#include "core/mask_allocator.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace krisp
{

const char *
distributionPolicyName(DistributionPolicy policy)
{
    switch (policy) {
      case DistributionPolicy::Distributed: return "distributed";
      case DistributionPolicy::Packed: return "packed";
      case DistributionPolicy::Conserved: return "conserved";
    }
    panic("unknown distribution policy");
}

namespace
{

/** The CUs of @p bits within shader engine @p se, shifted to bit 0. */
std::uint64_t
seBits(std::uint64_t bits, const ArchParams &arch, unsigned se)
{
    const std::uint64_t bits_in_se =
        arch.cusPerSe < 64 ? (std::uint64_t(1) << arch.cusPerSe) - 1
                           : ~std::uint64_t(0);
    return (bits >> (se * arch.cusPerSe)) & bits_in_se;
}

using Ranking = std::array<std::uint8_t, ResourceMonitor::maxCus>;
using Loads = std::array<std::uint32_t, ResourceMonitor::maxCus>;

/**
 * One step of a stable insertion sort by ascending load: put (@p load,
 * @p id) at place @p at or before it, behind every entry of equal or
 * lower load, shifting the higher ones up. The entry at @p at is
 * overwritten: pass the next free place, or the last place of a full
 * ranking to drop its entry. Inserting ids in ascending order ranks
 * equal loads lowest id first.
 */
void
insertByLoad(Ranking &ids, Loads &loads, unsigned at, std::uint32_t load,
             unsigned id)
{
    for (; at > 0 && loads[at - 1] > load; --at) {
        loads[at] = loads[at - 1];
        ids[at] = ids[at - 1];
    }
    loads[at] = load;
    ids[at] = static_cast<std::uint8_t>(id);
}

} // namespace

MaskAllocator::MaskAllocator(DistributionPolicy policy,
                             unsigned overlap_limit)
    : policy_(policy), overlap_limit_(overlap_limit)
{
}

void
MaskAllocator::takeFromSe(CuMask &mask, const ResourceMonitor &monitor,
                          unsigned se, unsigned cu_quota,
                          unsigned num_cus, unsigned &allocated,
                          unsigned &overlapped,
                          bool always_grant) const
{
    const ArchParams &arch = monitor.arch();
    const unsigned first_cu = se * arch.cusPerSe;
    unsigned want =
        std::min({cu_quota, arch.cusPerSe, num_cus - allocated});

    // Least-loaded order (Alg. 1 line 12) starts with the idle CUs,
    // lowest index first: take them straight from the idle mask.
    const std::uint64_t device_idle = monitor.idleCus().bits();
    std::uint64_t idle = seBits(device_idle, arch, se);
    std::uint64_t taken = 0;
    for (; want > 0 && idle != 0; --want) {
        taken |= idle & -idle;
        idle &= idle - 1;
        ++allocated;
    }
    mask = mask | CuMask::ofBits(taken << first_cu);
    if (want == 0)
        return;

    // The quota reaches past the idle CUs: rank the occupied ones by
    // ascending kernel count, equal counts lowest index first, with a
    // stable insertion sort on a fixed array that keeps only the
    // first `want` of them.
    Ranking cus{};
    Loads loads{};
    unsigned ranked = 0;
    for (std::uint64_t busy = seBits(~device_idle, arch, se); busy != 0;
         busy &= busy - 1) {
        const unsigned cu = std::countr_zero(busy);
        const std::uint32_t load = monitor.kernelsOnCu(first_cu + cu);
        if (ranked < want)
            insertByLoad(cus, loads, ranked++, load, cu);
        else if (load < loads[want - 1])
            insertByLoad(cus, loads, want - 1, load, cu);
    }
    for (unsigned j = 0; j < want; ++j) {
        ++overlapped;
        if (always_grant || overlapped <= overlap_limit_)
            mask.set(first_cu + cus[j]);
        ++allocated;
    }
}

unsigned
MaskAllocator::conservedSeCount(unsigned num_cus,
                                const ResourceMonitor &monitor,
                                const SeOrder &se_order,
                                bool always_grant) const
{
    const ArchParams &arch = monitor.arch();
    // Fewest SEs that satisfy the request (lines 2-3).
    unsigned num_se = (num_cus + arch.cusPerSe - 1) / arch.cusPerSe;
    if (!always_grant || overlap_limit_ >= arch.totalCus() ||
        num_se >= arch.numSe)
        return num_se;
    // Isolation in force: widen the SE set while the least-loaded
    // SEs cannot supply the request from idle CUs alone, so free
    // capacity in other clusters is used before overlapping.
    const std::uint64_t idle = monitor.idleCus().bits();
    unsigned free_cus = 0;
    for (unsigned i = 0; i < num_se; ++i)
        free_cus += std::popcount(seBits(idle, arch, se_order[i]));
    while (num_se < arch.numSe && free_cus + overlap_limit_ < num_cus)
        free_cus += std::popcount(seBits(idle, arch, se_order[num_se++]));
    return num_se;
}

CuMask
MaskAllocator::grant(unsigned num_cus, const ResourceMonitor &monitor,
                     const SeOrder &se_order, bool always_grant)
{
    const ArchParams &arch = monitor.arch();
    // Per-SE quotas: `base` CUs each and one more for the first
    // `extra` SEs, so an even split differs by at most one CU; a
    // plain ceil() quota would leave the last SE short and create an
    // imbalance the even workgroup split punishes (Fig. 8). Packed
    // fills whole SEs instead.
    unsigned num_se = arch.numSe;
    unsigned base = arch.cusPerSe;
    unsigned extra = 0;
    if (policy_ != DistributionPolicy::Packed) {
        if (policy_ == DistributionPolicy::Conserved)
            num_se = conservedSeCount(num_cus, monitor, se_order,
                                      always_grant);
        base = num_cus / num_se;
        extra = num_cus % num_se;
    }

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

void
MaskAllocator::setMaskCacheEnabled(bool enabled)
{
    cache_enabled_ = enabled;
    if (!enabled)
        cache_.fill(CuMask());
}

void
MaskAllocator::noteReleased(CuMask mask)
{
    if (!cache_enabled_ || mask.empty())
        return;
    cache_[mask.count()] = mask;
}

CuMask
MaskAllocator::allocate(unsigned requested_cus,
                        const ResourceMonitor &monitor)
{
    const ArchParams &arch = monitor.arch();
    fatal_if(requested_cus == 0, "allocating a zero-CU partition");
    const unsigned total = arch.totalCus();
    const unsigned num_cus = std::min(requested_cus, total);

    if (cache_enabled_) {
        // O(1) repeat-size path: reuse the parked mask of this size
        // if every CU in it is still idle (one AND against the live
        // idle mask). The slot is consumed — its CUs are about to be
        // busy — and refilled on the next release.
        CuMask &slot = cache_[num_cus];
        if (!slot.empty() && (slot & ~monitor.idleCus()).empty()) {
            const CuMask cached = slot;
            slot = CuMask();
            ++stats_.requests;
            ++stats_.cacheHits;
            stats_.grantedCus += cached.count();
            return cached;
        }
    }

    // Shader engines by ascending kernel sum (Alg. 1 line 8), equal
    // sums lowest index first: a stable insertion sort, once per call.
    SeOrder se_order{};
    Loads se_loads{};
    for (unsigned se = 0; se < arch.numSe; ++se)
        insertByLoad(se_order, se_loads, se, monitor.seKernelSum(se), se);

    CuMask mask;
    if (balanced_) {
        // Shrink the request to what the overlap budget can supply
        // (never below half — the Sec. IV-C2 escape hatch), then
        // allocate a balanced mask where every selected CU is
        // granted. The least-loaded ordering still steers the grant
        // towards idle CUs, so overlap stays minimal.
        const unsigned free = monitor.idleCus().count();
        const unsigned budget =
            std::min<unsigned>(overlap_limit_, total);
        unsigned target = num_cus;
        if (free + budget < num_cus) {
            target = std::max((num_cus + 1) / 2, free + budget);
        }
        target = std::clamp(target, 1u, total);
        mask = grant(target, monitor, se_order, /*always_grant=*/true);
    } else {
        // Literal Algorithm 1: occupied CUs beyond the overlap
        // budget are skipped but still count against the request.
        mask = grant(num_cus, monitor, se_order, /*always_grant=*/false);
        if (mask.empty()) {
            // Nothing isolated was available; the kernel must still
            // run somewhere. Grant the globally least-loaded CU.
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

} // namespace krisp
