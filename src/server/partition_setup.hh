/**
 * @file
 * Shared partition-policy setup.
 *
 * The closed-loop server and every GpuShard (the open loop's, the
 * LLM engine's, each cluster shard) bring up the same five policies
 * (Sec. VI-A): nothing for MPS, static stream masks for StaticEqual /
 * ModelRightSize, and the full profiling + allocator + interception
 * stack for the two KRISP variants. This helper owns that switch, and
 * PartitionSetup::launch the matching launch path, once so the
 * serving paths cannot drift apart.
 */

#ifndef KRISP_SERVER_PARTITION_SETUP_HH
#define KRISP_SERVER_PARTITION_SETUP_HH

#include <memory>
#include <optional>
#include <vector>

#include "core/krisp_runtime.hh"
#include "hip/stream.hh"
#include "profile/kernel_profiler.hh"
#include "server/policies.hh"

namespace krisp
{

/** One serving stream participating in the policy setup. */
struct PartitionWorker
{
    Stream *stream = nullptr;
    /** The kernel sequence this worker serves; the right-size basis
     *  for ModelRightSize (unused by the other policies). */
    const std::vector<KernelDescPtr> *seq = nullptr;
};

/**
 * The policy machinery one serving instance owns. For the KRISP
 * policies all four members are set and launches must go through
 * krisp; for the static policies everything stays null and launches
 * use the plain stream API under the masks applied at setup.
 */
struct PartitionSetup
{
    std::unique_ptr<PerfDatabase> db;
    std::unique_ptr<MaskAllocator> allocator;
    std::unique_ptr<KernelSizer> sizer;
    std::unique_ptr<KrispRuntime> krisp;

    /**
     * Launch @p seq on @p stream, each kernel decrementing
     * @p completion once: as one group through krisp (one
     * reconfiguration per equal-right-size run under
     * ReconfigPolicy::Group) when it is set, otherwise kernel by
     * kernel on the plain stream API.
     */
    void launch(Stream &stream, const std::vector<KernelDescPtr> &seq,
                const HsaSignalPtr &completion) const;
};

/**
 * Bring up @p policy for the given workers.
 *
 * @param hip            host runtime owning the worker streams
 * @param policy         spatial partitioning policy
 * @param enforcement    enforcement used by the KRISP policies
 * @param kprof          profiler for right-sizing decisions
 * @param workers        one entry per serving stream
 * @param profile_seqs   kernel sequences profiled into the KRISP
 *                       perf database (the closed-loop server feeds
 *                       per-worker sequences; a GpuShard every
 *                       sequence its frontend can assemble)
 * @param overlap_limit_override explicit KRISP overlap limit
 *                       (Fig. 16 sensitivity; empty = per policy)
 * @param ioctl_retry    retry/backoff budget for emulated reconfigs
 * @param reconfig       reconfiguration-elision policy for the KRISP
 *                       variants; anything but Always also enables
 *                       the allocator's released-mask cache
 * @param obs            optional observability context
 *
 * StaticEqual masks are applied through streamSetCuMask, so they take
 * effect only after the serialised setup ioctls complete — callers
 * start load immediately, exactly as the pre-extraction code did.
 */
PartitionSetup
setupPartitionPolicy(HipRuntime &hip, PartitionPolicy policy,
                     EnforcementMode enforcement,
                     const KernelProfiler &kprof,
                     const std::vector<PartitionWorker> &workers,
                     const std::vector<const std::vector<KernelDescPtr> *>
                         &profile_seqs,
                     std::optional<unsigned> overlap_limit_override,
                     const IoctlRetryPolicy &ioctl_retry,
                     ReconfigPolicy reconfig, ObsContext *obs);

} // namespace krisp

#endif // KRISP_SERVER_PARTITION_SETUP_HH
