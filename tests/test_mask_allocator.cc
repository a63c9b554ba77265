/**
 * @file
 * Unit tests for Algorithm 1 (partition resource mask generation) and
 * its three CU distribution policies.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/mask_allocator.hh"

namespace
{
/** Every operator new in this test binary, for the no-heap test. */
std::atomic<std::uint64_t> heap_allocations{0};
} // namespace

// All out of line: inlined, they would show the compiler malloc()
// and free() paired with operator delete and operator new, and trip
// -Wmismatched-new-delete.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    ++heap_allocations;
    if (void *p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace krisp
{
namespace
{

const ArchParams arch = ArchParams::mi50();

TEST(MaskAllocator, ConservedUsesFewestSes)
{
    ResourceMonitor idle(arch);
    MaskAllocator alloc(DistributionPolicy::Conserved);
    // Fig. 7: 19 CUs -> 2 SEs, split 10 + 9.
    const CuMask m = alloc.allocate(19, idle);
    EXPECT_EQ(m.count(), 19u);
    EXPECT_EQ(m.activeSeCount(arch), 2u);
    EXPECT_EQ(m.countInSe(arch, 0), 10u);
    EXPECT_EQ(m.countInSe(arch, 1), 9u);
}

TEST(MaskAllocator, DistributedSpreadsAcrossAllSes)
{
    ResourceMonitor idle(arch);
    MaskAllocator alloc(DistributionPolicy::Distributed);
    // Fig. 7: 19 CUs distributed -> 5,5,5,4.
    const CuMask m = alloc.allocate(19, idle);
    EXPECT_EQ(m.count(), 19u);
    EXPECT_EQ(m.activeSeCount(arch), 4u);
    EXPECT_EQ(m.countInSe(arch, 0), 5u);
    EXPECT_EQ(m.countInSe(arch, 3), 4u);
}

TEST(MaskAllocator, PackedFillsSeBeforeSpilling)
{
    ResourceMonitor idle(arch);
    MaskAllocator alloc(DistributionPolicy::Packed);
    // Fig. 7: 19 CUs packed -> 15 + 4.
    const CuMask m = alloc.allocate(19, idle);
    EXPECT_EQ(m.count(), 19u);
    EXPECT_EQ(m.countInSe(arch, 0), 15u);
    EXPECT_EQ(m.countInSe(arch, 1), 4u);
}

TEST(MaskAllocator, FullDeviceRequest)
{
    ResourceMonitor idle(arch);
    for (const auto policy :
         {DistributionPolicy::Conserved, DistributionPolicy::Packed,
          DistributionPolicy::Distributed}) {
        MaskAllocator alloc(policy);
        EXPECT_EQ(alloc.allocate(60, idle).count(), 60u);
        // Over-sized requests clamp to the device.
        EXPECT_EQ(alloc.allocate(200, idle).count(), 60u);
    }
}

TEST(MaskAllocator, SingleCuRequest)
{
    ResourceMonitor idle(arch);
    MaskAllocator alloc(DistributionPolicy::Conserved);
    const CuMask m = alloc.allocate(1, idle);
    EXPECT_EQ(m.count(), 1u);
    EXPECT_EQ(m.activeSeCount(arch), 1u);
}

TEST(MaskAllocator, EvenSplitAcrossSes)
{
    // 31 CUs conserved -> 3 SEs split 11/10/10 (not 11/11/9).
    ResourceMonitor idle(arch);
    MaskAllocator alloc(DistributionPolicy::Conserved);
    const CuMask m = alloc.allocate(31, idle);
    EXPECT_EQ(m.count(), 31u);
    EXPECT_EQ(m.activeSeCount(arch), 3u);
    EXPECT_EQ(m.minCusPerActiveSe(arch), 10u);
}

TEST(MaskAllocator, PicksLeastLoadedSe)
{
    ResourceMonitor mon(arch);
    // Occupy SE0 completely.
    mon.addKernel(CuMask::firstN(15));
    MaskAllocator alloc(DistributionPolicy::Conserved);
    const CuMask m = alloc.allocate(15, mon);
    EXPECT_EQ(m.count(), 15u);
    EXPECT_EQ(m.countInSe(arch, 0), 0u);
}

TEST(MaskAllocator, PicksLeastLoadedCusWithinSe)
{
    ResourceMonitor mon(arch);
    // Occupy the first 5 CUs of every SE (ties the SE choice, so the
    // stable sort picks SE0); the grant must use the idle CUs.
    CuMask busy;
    for (unsigned se = 0; se < arch.numSe; ++se)
        for (unsigned cu = 0; cu < 5; ++cu)
            busy.setSeCu(arch, se, cu);
    mon.addKernel(busy);
    MaskAllocator alloc(DistributionPolicy::Conserved);
    const CuMask m = alloc.allocate(10, mon);
    EXPECT_EQ(m.count(), 10u);
    // All granted CUs are the idle ones of SE0.
    for (unsigned cu = 0; cu < 5; ++cu)
        EXPECT_FALSE(m.test(cu));
    for (unsigned cu = 5; cu < 15; ++cu)
        EXPECT_TRUE(m.test(cu));
}

TEST(MaskAllocator, IsolationGrantsDisjointMasks)
{
    ResourceMonitor mon(arch);
    MaskAllocator alloc(DistributionPolicy::Conserved,
                        /*overlap_limit=*/0);
    const CuMask a = alloc.allocate(20, mon);
    mon.addKernel(a);
    const CuMask b = alloc.allocate(20, mon);
    mon.addKernel(b);
    const CuMask c = alloc.allocate(20, mon);
    EXPECT_EQ(a.count(), 20u);
    EXPECT_EQ(b.count(), 20u);
    EXPECT_EQ(c.count(), 20u);
    EXPECT_TRUE((a & b).empty());
    EXPECT_TRUE((a & c).empty());
    EXPECT_TRUE((b & c).empty());
}

TEST(MaskAllocator, BalancedModeShrinksWhenGpuIsBusy)
{
    ResourceMonitor mon(arch);
    MaskAllocator alloc(DistributionPolicy::Conserved,
                        /*overlap_limit=*/0);
    // 50 of 60 CUs already taken.
    mon.addKernel(CuMask::firstN(50));
    const CuMask m = alloc.allocate(40, mon);
    // Half-request floor: 20 CUs, balanced, preferring idle CUs.
    EXPECT_EQ(m.count(), 20u);
    EXPECT_GE(m.minCusPerActiveSe(arch),
              m.count() / m.activeSeCount(arch));
    EXPECT_EQ(alloc.stats().shortGrants, 1u);
}

TEST(MaskAllocator, BalancedModePrefersIdleCus)
{
    ResourceMonitor mon(arch);
    MaskAllocator alloc(DistributionPolicy::Conserved,
                        /*overlap_limit=*/0);
    mon.addKernel(CuMask::firstN(30)); // SE0+SE1 busy
    const CuMask m = alloc.allocate(30, mon);
    EXPECT_EQ(m.count(), 30u);
    EXPECT_TRUE((m & CuMask::firstN(30)).empty());
}

TEST(MaskAllocator, OverlapBudgetExtendsGrant)
{
    ResourceMonitor mon(arch);
    mon.addKernel(CuMask::firstN(50));
    // Budget of 60 (KRISP-O): full request granted with overlap.
    MaskAllocator oversub(DistributionPolicy::Conserved, 60);
    EXPECT_EQ(oversub.allocate(40, mon).count(), 40u);
    // Budget of 10: 10 idle + 10 overlap = 20... the grant can reach
    // free + budget = 20.
    MaskAllocator limited(DistributionPolicy::Conserved, 10);
    EXPECT_EQ(limited.allocate(40, mon).count(), 20u);
}

TEST(MaskAllocator, StrictModeSkipsOccupiedCus)
{
    ResourceMonitor mon(arch);
    mon.addKernel(CuMask::firstN(15)); // SE0 fully busy
    MaskAllocator alloc(DistributionPolicy::Packed, 0);
    alloc.setBalancedGrants(false);
    // Packed strict over SE order by load: SE1..3 idle first.
    const CuMask m = alloc.allocate(50, mon);
    // 45 idle CUs grantable; the 5 occupied SE0 CUs are skipped but
    // counted, so the grant is short.
    EXPECT_EQ(m.count(), 45u);
    EXPECT_EQ((m & CuMask::firstN(15)).count(), 0u);
}

TEST(MaskAllocator, StrictModeNeverReturnsEmpty)
{
    ResourceMonitor mon(arch);
    mon.addKernel(CuMask::full(arch));
    MaskAllocator alloc(DistributionPolicy::Conserved, 0);
    alloc.setBalancedGrants(false);
    const CuMask m = alloc.allocate(30, mon);
    EXPECT_EQ(m.count(), 1u); // single least-loaded CU fallback
}

TEST(MaskAllocator, BalancedModeFullyBusyDeviceStillGrants)
{
    ResourceMonitor mon(arch);
    mon.addKernel(CuMask::full(arch));
    MaskAllocator alloc(DistributionPolicy::Conserved, 0);
    const CuMask m = alloc.allocate(30, mon);
    // Escape hatch: half the request, overlapped.
    EXPECT_EQ(m.count(), 15u);
}

TEST(MaskAllocator, StatsAccumulate)
{
    ResourceMonitor mon(arch);
    MaskAllocator alloc(DistributionPolicy::Conserved, 0);
    alloc.allocate(10, mon);
    mon.addKernel(CuMask::firstN(60));
    alloc.allocate(10, mon);
    EXPECT_EQ(alloc.stats().requests, 2u);
    EXPECT_GT(alloc.stats().grantedCus, 10u);
    EXPECT_GT(alloc.stats().overlappedCus, 0u);
}

TEST(MaskAllocator, PolicyNames)
{
    EXPECT_STREQ(distributionPolicyName(DistributionPolicy::Conserved),
                 "conserved");
    EXPECT_STREQ(distributionPolicyName(DistributionPolicy::Packed),
                 "packed");
    EXPECT_STREQ(
        distributionPolicyName(DistributionPolicy::Distributed),
        "distributed");
}

/** Property sweep: every size yields a valid balanced grant. */
class AllocatorSweep
    : public ::testing::TestWithParam<DistributionPolicy>
{
};

TEST_P(AllocatorSweep, EverySizeOnIdleDevice)
{
    ResourceMonitor idle(arch);
    MaskAllocator alloc(GetParam());
    for (unsigned n = 1; n <= 60; ++n) {
        const CuMask m = alloc.allocate(n, idle);
        EXPECT_EQ(m.count(), n) << "size " << n;
        // Balance: per-SE counts differ by at most one (packed fills
        // whole SEs so only its last SE may be partial).
        if (GetParam() != DistributionPolicy::Packed) {
            unsigned lo = 15, hi = 0;
            for (unsigned se = 0; se < 4; ++se) {
                const unsigned c = m.countInSe(arch, se);
                if (c > 0) {
                    lo = std::min(lo, c);
                    hi = std::max(hi, c);
                }
            }
            EXPECT_LE(hi - lo, 1u) << "size " << n;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, AllocatorSweep,
                         ::testing::Values(
                             DistributionPolicy::Conserved,
                             DistributionPolicy::Distributed,
                             DistributionPolicy::Packed));

/**
 * Property-based randomized sweep: seeded alloc/release sequences
 * with invariants checked after every step. A failure message names
 * the (policy, limit, balanced, seed) tuple and the step, so any
 * counterexample replays exactly.
 */
struct PropCase
{
    DistributionPolicy policy;
    unsigned overlapLimit;
    bool balanced;
    std::uint64_t seed;
};

void
PrintTo(const PropCase &c, std::ostream *os)
{
    *os << distributionPolicyName(c.policy) << "/limit"
        << c.overlapLimit << (c.balanced ? "/balanced" : "/strict")
        << "/seed" << c.seed;
}

class AllocatorProperty : public ::testing::TestWithParam<PropCase>
{
};

TEST_P(AllocatorProperty, RandomAllocReleaseSequences)
{
    const PropCase c = GetParam();
    const unsigned total = arch.totalCus();
    Rng rng(c.seed);
    ResourceMonitor mon(arch);
    MaskAllocator alloc(c.policy, c.overlapLimit);
    alloc.setBalancedGrants(c.balanced);

    std::vector<CuMask> live;
    std::vector<unsigned> ref(total, 0); // reference per-CU counts

    for (unsigned step = 0; step < 400; ++step) {
        SCOPED_TRACE(::testing::Message() << "step " << step);
        const bool do_alloc = live.empty() || rng.chance(0.6);
        if (do_alloc) {
            const unsigned requested =
                1 + static_cast<unsigned>(rng.below(70));
            const unsigned num_cus = std::min(requested, total);
            const unsigned free = mon.idleCus().count();

            const CuMask m = alloc.allocate(requested, mon);

            // Grant shape: non-empty, never larger than the
            // (clamped) request, only device CUs, SE bounds.
            ASSERT_GE(m.count(), 1u);
            ASSERT_LE(m.count(), num_cus);
            ASSERT_EQ((m & CuMask::full(arch)).count(), m.count());
            for (unsigned se = 0; se < arch.numSe; ++se)
                ASSERT_LE(m.countInSe(arch, se), arch.cusPerSe);

            unsigned overlap = 0;
            for (unsigned cu = 0; cu < total; ++cu)
                if (m.test(cu) && ref[cu] > 0)
                    ++overlap;

            if (!c.balanced) {
                // Literal Algorithm 1: granted-occupied CUs stay
                // within the overlap budget. The single-CU fallback
                // (nothing isolated available) is the one exception.
                if (m.count() > 1) {
                    ASSERT_LE(overlap, c.overlapLimit);
                }
            } else {
                // Balanced mode grants exactly the shrunk target:
                // the full request while free + budget covers it,
                // else what the budget supplies, floored at half.
                const unsigned budget =
                    std::min(c.overlapLimit, total);
                unsigned target = num_cus;
                if (free + budget < num_cus)
                    target =
                        std::max((num_cus + 1) / 2, free + budget);
                target = std::clamp(target, 1u, total);
                ASSERT_EQ(m.count(), target);
                // Balance invariant: active-SE counts differ by at
                // most one (packed fills SEs whole, so only its
                // last SE may be ragged).
                if (c.policy != DistributionPolicy::Packed) {
                    unsigned lo = arch.cusPerSe, hi = 0;
                    for (unsigned se = 0; se < arch.numSe; ++se) {
                        const unsigned n = m.countInSe(arch, se);
                        if (n > 0) {
                            lo = std::min(lo, n);
                            hi = std::max(hi, n);
                        }
                    }
                    ASSERT_LE(hi - lo, 1u);
                }
            }

            mon.addKernel(m);
            live.push_back(m);
            for (unsigned cu = 0; cu < total; ++cu)
                if (m.test(cu))
                    ++ref[cu];
        } else {
            const std::size_t victim = static_cast<std::size_t>(
                rng.below(live.size()));
            mon.removeKernel(live[victim]);
            for (unsigned cu = 0; cu < total; ++cu)
                if (live[victim].test(cu))
                    --ref[cu];
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(victim));
        }

        // The monitor agrees with the reference model after every
        // step: per-CU counts (over-subscription fully accounted),
        // residency, and the derived busy/idle views.
        unsigned busy = 0;
        for (unsigned cu = 0; cu < total; ++cu) {
            ASSERT_EQ(mon.kernelsOnCu(cu), ref[cu])
                << "cu " << cu;
            if (ref[cu] > 0)
                ++busy;
        }
        ASSERT_EQ(mon.residentKernels(), live.size());
        ASSERT_EQ(mon.busyCus(), busy);
        ASSERT_EQ(mon.idleCus().count(), total - busy);
    }

    // Full release returns the monitor to pristine state.
    for (const CuMask &m : live)
        mon.removeKernel(m);
    EXPECT_EQ(mon.busyCus(), 0u);
    EXPECT_EQ(mon.idleCus().count(), total);
    EXPECT_EQ(mon.residentKernels(), 0u);
    for (unsigned se = 0; se < arch.numSe; ++se)
        EXPECT_EQ(mon.seKernelSum(se), 0u);
}

std::vector<PropCase>
propCases()
{
    std::vector<PropCase> cases;
    for (const auto policy :
         {DistributionPolicy::Conserved, DistributionPolicy::Packed,
          DistributionPolicy::Distributed}) {
        for (const unsigned limit : {0u, 10u, 60u}) {
            for (const bool balanced : {true, false}) {
                for (const std::uint64_t seed : {11ull, 29ull}) {
                    cases.push_back(
                        PropCase{policy, limit, balanced, seed});
                }
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Randomized, AllocatorProperty,
                         ::testing::ValuesIn(propCases()));

/**
 * Algorithm 1 and the monitor updates run on every kernel dispatch;
 * neither may touch the heap, in any policy or grant mode, cached or
 * not, on an idle or a crowded device.
 */
TEST(MaskAllocator, AllocateAndMonitorUpdatesStayOffTheHeap)
{
    ResourceMonitor mon(arch);
    std::vector<MaskAllocator> allocs;
    for (const auto policy :
         {DistributionPolicy::Conserved, DistributionPolicy::Packed,
          DistributionPolicy::Distributed}) {
        for (const unsigned limit : {0u, 3u, ~0u}) {
            for (const bool strict : {false, true}) {
                allocs.emplace_back(policy, limit);
                allocs.back().setBalancedGrants(!strict);
                allocs.back().setMaskCacheEnabled(limit == 3u);
            }
        }
    }
    std::array<CuMask, 48> live;
    std::size_t resident = 0;
    Rng rng(0x0ffe);

    const std::uint64_t before = heap_allocations.load();
    for (unsigned step = 0; step < 4000; ++step) {
        MaskAllocator &alloc = allocs[step % allocs.size()];
        if (resident < live.size() && (resident == 0 || rng.chance(0.55))) {
            const CuMask m = rng.chance(0.1)
                                 ? CuMask::full(arch)
                                 : alloc.allocate(
                                       1 + static_cast<unsigned>(
                                               rng.below(64)),
                                       mon);
            mon.addKernel(m);
            live[resident++] = m;
        } else {
            const std::size_t victim =
                static_cast<std::size_t>(rng.below(resident));
            mon.removeKernel(live[victim]);
            alloc.noteReleased(live[victim]);
            live[victim] = live[--resident];
        }
    }
    EXPECT_EQ(heap_allocations.load() - before, 0u);
}

TEST(MaskAllocatorDeath, ZeroRequestRejected)
{
    ResourceMonitor idle(arch);
    MaskAllocator alloc;
    EXPECT_EXIT(alloc.allocate(0, idle),
                ::testing::ExitedWithCode(1), "zero");
}

TEST(ResourceMonitor, AddRemoveCycle)
{
    ResourceMonitor mon(arch);
    const CuMask m = CuMask::firstN(10);
    mon.addKernel(m);
    mon.addKernel(m);
    EXPECT_EQ(mon.kernelsOnCu(0), 2u);
    EXPECT_EQ(mon.seKernelSum(0), 20u);
    EXPECT_EQ(mon.residentKernels(), 2u);
    mon.removeKernel(m);
    EXPECT_EQ(mon.kernelsOnCu(0), 1u);
    mon.removeKernel(m);
    EXPECT_EQ(mon.busyCus(), 0u);
    EXPECT_EQ(mon.idleCus().count(), 60u);
}

TEST(ResourceMonitor, WholeDeviceKernelsCountOnEveryCu)
{
    ResourceMonitor mon(arch);
    mon.addKernel(CuMask::full(arch));
    mon.addKernel(CuMask::firstN(10));
    EXPECT_EQ(mon.kernelsOnCu(0), 2u);
    EXPECT_EQ(mon.kernelsOnCu(59), 1u);
    EXPECT_EQ(mon.seKernelSum(0), 25u);
    EXPECT_EQ(mon.seKernelSum(3), 15u);
    EXPECT_EQ(mon.busyCus(), 60u);
    EXPECT_TRUE(mon.idleCus().empty());
    // Counts, not kernels, are tracked: a mask that was never added
    // may leave as long as every CU in it hosts a kernel.
    mon.removeKernel(CuMask::firstN(10) | CuMask::ofBits(1ull << 40));
    mon.removeKernel(CuMask::firstN(5));
    EXPECT_EQ(mon.kernelsOnCu(0), 0u);
    EXPECT_EQ(mon.kernelsOnCu(5), 1u);
    EXPECT_EQ(mon.kernelsOnCu(40), 0u);
    EXPECT_EQ(mon.seKernelSum(0), 10u);
    EXPECT_EQ(mon.seKernelSum(2), 14u);
    EXPECT_EQ(mon.busyCus(), 54u);
    EXPECT_EQ(mon.idleCus().bits(),
              CuMask::firstN(5).bits() | (1ull << 40));
    EXPECT_EQ(mon.residentKernels(), 0u);
}

/**
 * The monitor's incremental state agrees with a recount after every
 * step of random add/remove sequences: counters against a reference
 * model, per-SE sums, busy and idle sets against kernelsOnCu. Some
 * kernels cover the whole device, and removals are any mask whose
 * CUs all host a kernel, not only masks that were added.
 */
class MonitorInvariants
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(MonitorInvariants, IncrementalStateMatchesRecount)
{
    ArchParams shape = arch;
    shape.numSe = GetParam().first;
    shape.cusPerSe = GetParam().second;
    const unsigned total = shape.totalCus();
    Rng rng(0x4d0 + total * 7 + shape.numSe);
    ResourceMonitor mon(shape);
    std::vector<unsigned> ref(total, 0);
    unsigned resident = 0;

    for (unsigned step = 0; step < 3000; ++step) {
        SCOPED_TRACE(::testing::Message() << "step " << step);
        CuMask busy;
        for (unsigned cu = 0; cu < total; ++cu)
            if (ref[cu] > 0)
                busy.set(cu);
        const bool add = busy.empty() || resident == 0 || rng.chance(0.55);
        CuMask m;
        if (add && rng.chance(0.2)) {
            m = CuMask::full(shape);
        } else if (add) {
            const double density = rng.uniform(0.02, 0.7);
            for (unsigned cu = 0; cu < total; ++cu)
                if (rng.chance(density))
                    m.set(cu);
            if (m.empty())
                m.set(static_cast<unsigned>(rng.below(total)));
        } else if (busy == CuMask::full(shape) && rng.chance(0.3)) {
            m = busy;
        } else {
            const double density = rng.uniform(0.05, 1.0);
            for (unsigned cu = 0; cu < total; ++cu)
                if (busy.test(cu) && rng.chance(density))
                    m.set(cu);
            if (m.empty())
                m.set(static_cast<unsigned>(std::countr_zero(busy.bits())));
        }
        if (add) {
            mon.addKernel(m);
            ++resident;
        } else {
            mon.removeKernel(m);
            --resident;
        }
        for (unsigned cu = 0; cu < total; ++cu)
            if (m.test(cu))
                ref[cu] += add ? 1 : -1;

        unsigned busy_cus = 0;
        CuMask idle;
        for (unsigned cu = 0; cu < total; ++cu) {
            ASSERT_EQ(mon.kernelsOnCu(cu), ref[cu]) << "cu " << cu;
            if (mon.kernelsOnCu(cu) > 0)
                ++busy_cus;
            else
                idle.set(cu);
        }
        for (unsigned se = 0; se < shape.numSe; ++se) {
            unsigned sum = 0;
            for (unsigned cu = 0; cu < shape.cusPerSe; ++cu)
                sum += mon.kernelsOnSeCu(se, cu);
            ASSERT_EQ(mon.seKernelSum(se), sum) << "se " << se;
        }
        ASSERT_EQ(mon.busyCus(), busy_cus);
        ASSERT_EQ(mon.idleCus(), idle);
        ASSERT_EQ(mon.busyCuMask(), CuMask::full(shape) & ~idle);
        ASSERT_EQ(mon.residentKernels(), resident);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MonitorInvariants,
    ::testing::Values(std::pair{4u, 15u}, std::pair{8u, 8u},
                      std::pair{1u, 64u}, std::pair{64u, 1u},
                      std::pair{3u, 5u}),
    [](const ::testing::TestParamInfo<std::pair<unsigned, unsigned>>
           &info) {
        return std::to_string(info.param.first) + "x" +
               std::to_string(info.param.second);
    });

TEST(ResourceMonitorDeath, Underflow)
{
    ResourceMonitor mon(arch);
    EXPECT_DEATH(mon.removeKernel(CuMask::firstN(1)), "empty");
    mon.addKernel(CuMask::firstN(3));
    // Names the lowest CU that has no kernel.
    EXPECT_DEATH(mon.removeKernel(CuMask::ofBits(0b1000100111)),
                 "underflow on CU 5[^0-9]");
}

TEST(ResourceMonitorDeath, EmptyMask)
{
    ResourceMonitor mon(arch);
    EXPECT_DEATH(mon.addKernel(CuMask()), "empty mask");
}

TEST(ResourceMonitorDeath, IndexOutOfRange)
{
    ResourceMonitor mon(arch);
    EXPECT_DEATH(mon.kernelsOnCu(60), "CU index out of range: 60");
    EXPECT_DEATH(mon.kernelsOnSeCu(4, 0), "CU index out of range: 60");
    EXPECT_DEATH(mon.seKernelSum(4), "SE index out of range: 4");
}

TEST(ResourceMonitorDeath, MoreThan64Cus)
{
    ArchParams big = arch;
    big.numSe = 5;
    big.cusPerSe = 13;
    EXPECT_DEATH(ResourceMonitor{big}, "tracks 1 to 64 CUs");
    ArchParams none = arch;
    none.numSe = 0;
    EXPECT_DEATH(ResourceMonitor{none}, "tracks 1 to 64 CUs");
}

} // namespace
} // namespace krisp
