/**
 * @file
 * Spec oracle for Algorithm 1 (partition resource mask generation).
 *
 * RefMonitor and RefAllocator below transcribe the algorithm
 * literally: one plain counter per CU, a fresh std::stable_sort for
 * every least-loaded pick (shader engines by kernel sum, CUs within
 * an SE by kernel count) and a conserved widening loop that re-sorts
 * the shader engines at every step. MaskAllocator::allocate must
 * return the same mask and keep the same MaskAllocatorStats on every
 * call, over random monitor states and request sizes for every
 * policy, overlap limit, grant mode, mask-cache setting and a range
 * of device shapes. Tie orders (equal loads go to the lower index)
 * are part of the contract: only an exact comparison like this one
 * catches a change to them.
 */

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/mask_allocator.hh"

namespace krisp
{
namespace
{

/** Per-CU kernel counters, recounted on every query. */
class RefMonitor
{
  public:
    explicit RefMonitor(const ArchParams &arch)
        : arch_(arch), counters_(arch.totalCus(), 0)
    {
    }

    const ArchParams &arch() const { return arch_; }

    void
    add(CuMask mask)
    {
        for (unsigned cu = 0; cu < counters_.size(); ++cu)
            if (mask.test(cu))
                ++counters_[cu];
    }

    void
    remove(CuMask mask)
    {
        for (unsigned cu = 0; cu < counters_.size(); ++cu)
            if (mask.test(cu))
                --counters_[cu];
    }

    unsigned kernelsOnCu(unsigned cu) const { return counters_[cu]; }

    unsigned
    kernelsOnSeCu(unsigned se, unsigned cu) const
    {
        return counters_[se * arch_.cusPerSe + cu];
    }

    unsigned
    seKernelSum(unsigned se) const
    {
        unsigned sum = 0;
        for (unsigned cu = 0; cu < arch_.cusPerSe; ++cu)
            sum += kernelsOnSeCu(se, cu);
        return sum;
    }

    CuMask
    idleCus() const
    {
        CuMask idle;
        for (unsigned cu = 0; cu < counters_.size(); ++cu)
            if (counters_[cu] == 0)
                idle.set(cu);
        return idle;
    }

  private:
    ArchParams arch_;
    std::vector<unsigned> counters_;
};

/** Algorithm 1 with sorts, as the paper's pseudocode reads. */
class RefAllocator
{
  public:
    RefAllocator(DistributionPolicy policy, unsigned overlap_limit,
                 bool balanced, bool cache)
        : policy_(policy), overlap_limit_(overlap_limit),
          balanced_(balanced), cache_enabled_(cache), cache_(65)
    {
    }

    const MaskAllocatorStats &stats() const { return stats_; }

    void
    noteReleased(CuMask mask)
    {
        if (!cache_enabled_ || mask.empty())
            return;
        cache_[mask.count()] = mask;
    }

    CuMask
    allocate(unsigned requested_cus, const RefMonitor &monitor)
    {
        const unsigned total = monitor.arch().totalCus();
        const unsigned num_cus = std::min(requested_cus, total);

        if (cache_enabled_) {
            CuMask &slot = cache_[num_cus];
            if (!slot.empty() &&
                (slot & ~monitor.idleCus()).empty()) {
                const CuMask cached = slot;
                slot = CuMask();
                ++stats_.requests;
                ++stats_.cacheHits;
                stats_.grantedCus += cached.count();
                return cached;
            }
        }

        CuMask mask;
        if (balanced_) {
            const unsigned free = monitor.idleCus().count();
            const unsigned budget = std::min(overlap_limit_, total);
            unsigned target = num_cus;
            if (free + budget < num_cus)
                target = std::max((num_cus + 1) / 2, free + budget);
            target = std::clamp(target, 1u, total);
            mask = dispatch(target, monitor, true);
        } else {
            mask = dispatch(num_cus, monitor, false);
            if (mask.empty()) {
                unsigned best_cu = 0;
                unsigned best_load = ~0u;
                for (unsigned cu = 0; cu < total; ++cu) {
                    if (monitor.kernelsOnCu(cu) < best_load) {
                        best_load = monitor.kernelsOnCu(cu);
                        best_cu = cu;
                    }
                }
                mask.set(best_cu);
            }
        }

        ++stats_.requests;
        stats_.grantedCus += mask.count();
        if (mask.count() < num_cus)
            ++stats_.shortGrants;
        return mask;
    }

  private:
    static std::vector<unsigned>
    sesByLoad(const RefMonitor &monitor)
    {
        std::vector<unsigned> order(monitor.arch().numSe);
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [&](unsigned a, unsigned b) {
            return monitor.seKernelSum(a) < monitor.seKernelSum(b);
        });
        return order;
    }

    static std::vector<unsigned>
    cusByLoad(const RefMonitor &monitor, unsigned se)
    {
        std::vector<unsigned> order(monitor.arch().cusPerSe);
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [&](unsigned a, unsigned b) {
            return monitor.kernelsOnSeCu(se, a) <
                   monitor.kernelsOnSeCu(se, b);
        });
        return order;
    }

    void
    takeFromSe(CuMask &mask, const RefMonitor &monitor, unsigned se,
               unsigned quota, unsigned num_cus, unsigned &allocated,
               unsigned &overlapped, bool always_grant) const
    {
        const std::vector<unsigned> order = cusByLoad(monitor, se);
        for (unsigned j = 0;
             j < quota && j < order.size() && allocated < num_cus;
             ++j) {
            const unsigned cu = order[j];
            const bool occupied = monitor.kernelsOnSeCu(se, cu) > 0;
            if (occupied)
                ++overlapped;
            if (always_grant || !occupied ||
                overlapped <= overlap_limit_)
                mask.setSeCu(monitor.arch(), se, cu);
            ++allocated;
        }
    }

    /** Take per-SE quotas (base, plus one for the first @p extra
     *  SEs) from the @p num_se least-loaded SEs. */
    CuMask
    spread(unsigned num_cus, unsigned num_se, unsigned base,
           unsigned extra, const RefMonitor &monitor,
           bool always_grant)
    {
        const std::vector<unsigned> se_order = sesByLoad(monitor);
        CuMask mask;
        unsigned allocated = 0;
        unsigned overlapped = 0;
        for (unsigned i = 0; i < num_se && allocated < num_cus; ++i) {
            const unsigned quota = base + (i < extra ? 1 : 0);
            takeFromSe(mask, monitor, se_order[i], quota, num_cus,
                       allocated, overlapped, always_grant);
        }
        stats_.overlappedCus += overlapped;
        return mask;
    }

    CuMask
    dispatch(unsigned num_cus, const RefMonitor &monitor,
             bool always_grant)
    {
        const ArchParams &arch = monitor.arch();
        switch (policy_) {
          case DistributionPolicy::Distributed:
            return spread(num_cus, arch.numSe, num_cus / arch.numSe,
                          num_cus % arch.numSe, monitor, always_grant);
          case DistributionPolicy::Packed:
            return spread(num_cus, arch.numSe, arch.cusPerSe, 0,
                          monitor, always_grant);
          case DistributionPolicy::Conserved:
            break;
        }
        unsigned num_se = (num_cus + arch.cusPerSe - 1) / arch.cusPerSe;
        if (always_grant && overlap_limit_ < arch.totalCus()) {
            while (num_se < arch.numSe) {
                const std::vector<unsigned> order = sesByLoad(monitor);
                unsigned free_cus = 0;
                for (unsigned i = 0; i < num_se; ++i)
                    for (unsigned cu = 0; cu < arch.cusPerSe; ++cu)
                        if (monitor.kernelsOnSeCu(order[i], cu) == 0)
                            ++free_cus;
                if (free_cus + overlap_limit_ >= num_cus)
                    break;
                ++num_se;
            }
        }
        return spread(num_cus, num_se, num_cus / num_se,
                      num_cus % num_se, monitor, always_grant);
    }

    DistributionPolicy policy_;
    unsigned overlap_limit_;
    bool balanced_;
    bool cache_enabled_;
    std::vector<CuMask> cache_;
    MaskAllocatorStats stats_;
};

ArchParams
shape(unsigned num_se, unsigned cus_per_se)
{
    ArchParams arch = ArchParams::mi50();
    arch.numSe = num_se;
    arch.cusPerSe = cus_per_se;
    return arch;
}

/** A random mask of about @p density of the device's CUs. */
CuMask
randomMask(Rng &rng, const ArchParams &arch, double density)
{
    CuMask m;
    for (unsigned cu = 0; cu < arch.totalCus(); ++cu)
        if (rng.chance(density))
            m.set(cu);
    if (m.empty())
        m.set(static_cast<unsigned>(rng.below(arch.totalCus())));
    return m;
}

::testing::AssertionResult
sameStats(const MaskAllocatorStats &got, const MaskAllocatorStats &want)
{
    if (got.requests == want.requests &&
        got.shortGrants == want.shortGrants &&
        got.overlappedCus == want.overlappedCus &&
        got.grantedCus == want.grantedCus &&
        got.cacheHits == want.cacheHits)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "stats (requests, shortGrants, overlappedCus, grantedCus, "
              "cacheHits): got ("
           << got.requests << ", " << got.shortGrants << ", "
           << got.overlappedCus << ", " << got.grantedCus << ", "
           << got.cacheHits << "), want (" << want.requests << ", "
           << want.shortGrants << ", " << want.overlappedCus << ", "
           << want.grantedCus << ", " << want.cacheHits << ")";
}

struct SpecCase
{
    ArchParams arch;
    DistributionPolicy policy;
    unsigned overlapLimit;
    bool balanced;
    bool cache;
    std::uint64_t seed;
};

/**
 * One seeded walk over monitor states. Kernels come and go in phases
 * that fill the device, hold it, or drain it; some are the
 * allocator's own grants, others arbitrary masks up to the whole
 * device, so loads run well past the paper's 5-bit counters and ties
 * between SEs and CUs are frequent. Every grant is compared with the
 * reference; returns the number of comparisons made.
 */
unsigned
runSpecCase(const SpecCase &c)
{
    const unsigned total = c.arch.totalCus();
    Rng rng(c.seed);
    ResourceMonitor mon(c.arch);
    RefMonitor ref_mon(c.arch);
    MaskAllocator alloc(c.policy, c.overlapLimit);
    alloc.setBalancedGrants(c.balanced);
    alloc.setMaskCacheEnabled(c.cache);
    RefAllocator ref(c.policy, c.overlapLimit, c.balanced, c.cache);

    std::vector<CuMask> live;
    unsigned checks = 0;
    double alloc_chance = 0.6;
    for (unsigned step = 0; step < 1500; ++step) {
        if (step % 50 == 0) {
            static constexpr double phases[] = {0.25, 0.5, 0.65, 0.9};
            alloc_chance = phases[rng.below(4)];
        }
        const bool add =
            live.empty() || (live.size() < 48 && rng.chance(alloc_chance));
        if (!add) {
            const std::size_t victim =
                static_cast<std::size_t>(rng.below(live.size()));
            const CuMask gone = live[victim];
            live[victim] = live.back();
            live.pop_back();
            mon.removeKernel(gone);
            ref_mon.remove(gone);
            alloc.noteReleased(gone);
            ref.noteReleased(gone);
            continue;
        }
        CuMask m;
        if (rng.chance(0.2)) {
            m = rng.chance(0.1) ? CuMask::full(c.arch)
                                : randomMask(rng, c.arch,
                                             rng.uniform(0.05, 0.6));
        } else {
            const unsigned requested =
                1 + static_cast<unsigned>(rng.below(total + 8));
            m = alloc.allocate(requested, mon);
            const CuMask want = ref.allocate(requested, ref_mon);
            ++checks;
            EXPECT_EQ(m.bits(), want.bits())
                << "step " << step << ", " << requested
                << " CUs requested\n  got  " << m.toString(c.arch)
                << "\n  want " << want.toString(c.arch);
            EXPECT_TRUE(sameStats(alloc.stats(), ref.stats()))
                << "step " << step << ", " << requested
                << " CUs requested";
            if (::testing::Test::HasFailure())
                return checks;
        }
        mon.addKernel(m);
        ref_mon.add(m);
        live.push_back(m);
    }
    return checks;
}

/** Parameter: (SEs, CUs per SE). */
class MaskAllocatorSpec
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(MaskAllocatorSpec, MatchesLiteralAlgorithm1)
{
    const ArchParams arch = shape(GetParam().first, GetParam().second);
    unsigned checks = 0;
    std::uint64_t seed = 0x51ec0000 + arch.numSe * 100 + arch.cusPerSe;
    for (const auto policy :
         {DistributionPolicy::Distributed, DistributionPolicy::Packed,
          DistributionPolicy::Conserved}) {
        for (const unsigned limit : {0u, 1u, 3u, 8u, ~0u}) {
            for (const bool balanced : {true, false}) {
                for (const bool cache : {false, true}) {
                    const SpecCase c{arch, policy, limit, balanced,
                                     cache, ++seed};
                    SCOPED_TRACE(::testing::Message()
                                 << distributionPolicyName(policy)
                                 << " limit " << limit
                                 << (balanced ? " balanced" : " strict")
                                 << (cache ? " cache" : " no-cache")
                                 << " seed " << c.seed);
                    checks += runSpecCase(c);
                    if (HasFailure())
                        return;
                }
            }
        }
    }
    // Five shapes x at least 30k grants: over 10^5 comparisons.
    RecordProperty("checks", static_cast<int>(checks));
    EXPECT_GE(checks, 30'000u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MaskAllocatorSpec,
    ::testing::Values(std::pair{4u, 15u}, std::pair{8u, 8u},
                      std::pair{1u, 64u}, std::pair{64u, 1u},
                      std::pair{3u, 5u}),
    [](const ::testing::TestParamInfo<std::pair<unsigned, unsigned>>
           &info) {
        return std::to_string(info.param.first) + "x" +
               std::to_string(info.param.second);
    });

} // namespace
} // namespace krisp
