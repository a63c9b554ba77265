/**
 * @file
 * Partition resource mask generation — the paper's Algorithm 1.
 *
 * Given a requested partition size in CUs and the live per-CU kernel
 * counters, produce the CU mask enforcing the partition. Three CU
 * distribution policies are supported (Sec. IV-C1, Fig. 7):
 *
 *  - Distributed: spread the CUs evenly over all shader engines
 *    (the default hardware behaviour). Suffers when the per-SE share
 *    drops below a whole SE (dips at 15/11/7 active CUs on MI50).
 *  - Packed: fill one SE completely before spilling into the next.
 *    Suffers whenever an SE is left with a token CU (spikes at
 *    16/31/46 active CUs).
 *  - Conserved: use the fewest SEs that satisfy the request and
 *    spread evenly across them — the policy KRISP adopts; it also
 *    leaves whole SEs idle for power gating and co-location.
 *
 * SEs are chosen least-loaded-first by the sum of their CU kernel
 * counters, and CUs within an SE least-loaded-first, minimising
 * kernel overlap; equal loads go to the lower index. No call touches
 * the heap: the orders live in fixed arrays sized by the 64-bit
 * CuMask. An overlap limit bounds how many already-occupied
 * CUs may be included: 0 gives KRISP-I (isolated, possibly granting
 * fewer CUs than requested), totalCus gives KRISP-O (oversubscribed).
 */

#ifndef KRISP_CORE_MASK_ALLOCATOR_HH
#define KRISP_CORE_MASK_ALLOCATOR_HH

#include <array>
#include <cstdint>

#include "gpu/mask_allocator_iface.hh"
#include "gpu/resource_monitor.hh"
#include "kern/cu_mask.hh"

namespace krisp
{

/** CU distribution policy across shader engines. */
enum class DistributionPolicy
{
    Distributed,
    Packed,
    Conserved,
};

const char *distributionPolicyName(DistributionPolicy policy);

/** Statistics the allocator keeps about its decisions. */
struct MaskAllocatorStats
{
    std::uint64_t requests = 0;
    /** Requests that received fewer CUs than asked (isolation). */
    std::uint64_t shortGrants = 0;
    /** CUs granted that already hosted a kernel. */
    std::uint64_t overlappedCus = 0;
    std::uint64_t grantedCus = 0;
    /** Requests served from the released-mask cache (O(1) path). */
    std::uint64_t cacheHits = 0;
};

/** Algorithm 1 with selectable distribution policy and overlap limit. */
class MaskAllocator : public MaskAllocatorIface
{
  public:
    /**
     * @param policy        CU distribution policy
     * @param overlap_limit max CUs in a grant that may already host a
     *                      kernel; >= totalCus disables the limit
     */
    explicit MaskAllocator(DistributionPolicy policy =
                               DistributionPolicy::Conserved,
                           unsigned overlap_limit = ~0u);

    CuMask allocate(unsigned requested_cus,
                    const ResourceMonitor &monitor) override;

    /**
     * Balanced-grant mode (default on): when the overlap budget
     * cannot supply the full request, the request is shrunk (never
     * below half, per the Sec. IV-C2 overlap escape hatch) and a
     * balanced conserved mask is allocated, because the even per-SE
     * workgroup split punishes ragged masks severely (Fig. 8).
     * Disabling it gives the literal Algorithm 1 behaviour, which
     * skips over-budget CUs and may grant imbalanced partitions —
     * kept for ablation.
     */
    void setBalancedGrants(bool balanced) { balanced_ = balanced; }

    DistributionPolicy policy() const { return policy_; }
    unsigned overlapLimit() const { return overlap_limit_; }

    /**
     * Released-mask cache (default off): noteReleased() parks the
     * most recently retired mask of each size; a later allocate() of
     * the same size whose parked CUs are all idle reuses it in O(1)
     * instead of re-running Algorithm 1. Repeat-size kernel runs —
     * exactly what reconfiguration elision/grouping targets — then
     * get both a constant-time allocator pass and a *grant-stable*
     * mask (the same CUs every time, so queue masks stop churning).
     * Off by default because a cached grant may legitimately differ
     * from Algorithm 1's least-loaded pick; enabling it is part of
     * opting in to the elision policies.
     */
    void setMaskCacheEnabled(bool enabled);
    bool maskCacheEnabled() const { return cache_enabled_; }

    /**
     * Return a mask to the size-keyed cache; a no-op unless the cache
     * is enabled. Called by the KRISP runtime when a queue's
     * installed mask is replaced (its kernels drained behind B1).
     */
    void noteReleased(CuMask mask);

    const MaskAllocatorStats &stats() const { return stats_; }

  private:
    /** Shader engine indices, least-loaded first. */
    using SeOrder = std::array<std::uint8_t, ResourceMonitor::maxCus>;

    /**
     * Algorithm 1 proper for a request of @p num_cus: split it into
     * per-SE quotas as the policy says and fill them from the SEs of
     * @p se_order in turn.
     */
    CuMask grant(unsigned num_cus, const ResourceMonitor &monitor,
                 const SeOrder &se_order, bool always_grant);

    /**
     * Conserved policy: the fewest SEs that hold the request, widened
     * while isolation is in force and the first SEs of @p se_order
     * lack the idle CUs to supply it.
     */
    unsigned conservedSeCount(unsigned num_cus,
                              const ResourceMonitor &monitor,
                              const SeOrder &se_order,
                              bool always_grant) const;

    /**
     * Shared inner loop: fill @p mask taking up to @p cu_quota CUs
     * from shader engine @p se, least-loaded CUs first. With
     * @p always_grant every selected CU is granted (balanced mode);
     * otherwise occupied CUs beyond the overlap budget are skipped
     * but still counted against the request (Algorithm 1 lines
     * 15-21).
     */
    void takeFromSe(CuMask &mask, const ResourceMonitor &monitor,
                    unsigned se, unsigned cu_quota, unsigned num_cus,
                    unsigned &allocated, unsigned &overlapped,
                    bool always_grant) const;

    DistributionPolicy policy_;
    unsigned overlap_limit_;
    bool balanced_ = true;
    bool cache_enabled_ = false;
    /** Most recently released mask per size (index = CU count). */
    std::array<CuMask, 65> cache_{};
    MaskAllocatorStats stats_;
};

} // namespace krisp

#endif // KRISP_CORE_MASK_ALLOCATOR_HH
