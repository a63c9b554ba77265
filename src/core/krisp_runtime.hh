/**
 * @file
 * KRISP runtime interception (Fig. 5 / Fig. 11).
 *
 * Programmer transparency: ML frameworks keep calling the ordinary
 * stream launch API; this layer attaches the kernel-wise right-size
 * to every launch and enforces it through one of two mechanisms:
 *
 *  - Native: the proposed hardware. The right-size is written into
 *    the AQL packet's requestedCus field; the GPU command processor
 *    (with the KRISP firmware extension installed) runs Algorithm 1
 *    and tags the kernel with a resource mask. Per-kernel cost is
 *    only the ~1 us mask generation.
 *
 *  - Emulated: the paper's evaluation methodology on real hardware.
 *    Two barrier-AND packets are injected in front of every kernel
 *    packet; the first drains the queue and triggers a host callback
 *    that runs right-sizing + Algorithm 1 and reconfigures the
 *    queue's stream-scoped CU mask via the serialised ioctl; the
 *    second holds the kernel until the reconfiguration lands. The
 *    extra host latency is the emulation overhead L_over that
 *    Sec. V-B subtracts out.
 */

#ifndef KRISP_CORE_KRISP_RUNTIME_HH
#define KRISP_CORE_KRISP_RUNTIME_HH

#include <cstdint>
#include <vector>

#include "core/mask_allocator.hh"
#include "core/perf_database.hh"
#include "hip/hip_runtime.hh"
#include "hip/stream.hh"
#include "obs/obs.hh"

namespace krisp
{

/** How kernel-scoped partition instances are enforced. */
enum class EnforcementMode
{
    Native,
    Emulated,
};

const char *enforcementModeName(EnforcementMode mode);

/**
 * What the emulated launch path does when the right-size it wants is
 * already (or about to be) in effect on the stream's queue.
 *
 *  - Always: pay the full Fig. 11b protocol on every launch — the
 *    paper's evaluation methodology, byte-identical to the behaviour
 *    before this policy existed.
 *  - Elide: skip B1/B2/allocator/ioctl when the stream's tracked
 *    right-size already matches (the ECLIP observation that repeat
 *    reconfigurations are pure overhead).
 *  - Group: Elide, plus launchGroup() coalesces consecutive kernels
 *    with equal right-size into one barrier-pair + one ioctl per run.
 *
 * Native enforcement ignores the policy (there is no per-launch
 * protocol to skip).
 */
enum class ReconfigPolicy
{
    Always,
    Elide,
    Group,
};

const char *reconfigPolicyName(ReconfigPolicy policy);

/**
 * Bounded retry-with-exponential-backoff for failed CU-mask
 * reconfiguration ioctls (emulated enforcement). Attempt n waits
 * backoffNs * backoffMultiplier^(n-1) before resubmitting; after
 * maxAttempts total attempts the launch falls back to the queue's
 * current stream-scoped mask (MPS-style static partition), trading
 * right-sizing for availability.
 */
struct IoctlRetryPolicy
{
    unsigned maxAttempts = 4;
    Tick backoffNs = 20'000;
    double backoffMultiplier = 2.0;
};

/**
 * Ceiling on one retry-backoff delay (one simulated hour). Keeps
 * adversarial policy parameters (huge multipliers or attempt budgets)
 * from overflowing the double -> Tick conversion.
 */
constexpr Tick maxReconfigBackoffNs = ticksFromSec(3600.0);

/**
 * Snapshot of the interception-layer counters. The live values are
 * metrics-registry instruments ("krisp.*"); this struct is the
 * caller-friendly view stats() assembles from them.
 */
struct KrispRuntimeStats
{
    std::uint64_t launches = 0;
    /** Emulated-mode queue CU-mask reconfigurations performed. */
    std::uint64_t emulatedReconfigs = 0;
    /** Sum of requested partition sizes (for averaging). */
    std::uint64_t requestedCusTotal = 0;
    /** Reconfiguration ioctls resubmitted after a failure. */
    std::uint64_t reconfigRetries = 0;
    /** Launches degraded to the static queue mask after retries. */
    std::uint64_t reconfigFallbacks = 0;
    /** Emulated launches that paid the full reconfig protocol. */
    std::uint64_t reconfigLaunches = 0;
    /** Emulated launches skipped because the size was in effect. */
    std::uint64_t reconfigElisions = 0;
    /** Emulated launches that rode a group leader's reconfig. */
    std::uint64_t groupedLaunches = 0;
    /** Launches whose right-size was clamped by the grant cap. */
    std::uint64_t cappedGrants = 0;
};

/** The programmer-transparent launch interceptor. */
class KrispRuntime
{
  public:
    /**
     * @param hip       host runtime owning the streams
     * @param sizer     kernel-wise right-sizing policy
     * @param allocator Algorithm 1 instance (shared with the device
     *                  in Native mode)
     * @param mode      enforcement mechanism
     * @param obs       optional observability context: per-launch
     *                  right-size decisions and barrier injections go
     *                  to its trace sink, counters register in its
     *                  metrics registry ("krisp.*"). Without one, the
     *                  counters live in a private registry.
     *
     * In Native mode the allocator is installed into the GPU command
     * processor as the KRISP firmware extension.
     */
    KrispRuntime(HipRuntime &hip, const KernelSizer &sizer,
                 MaskAllocator &allocator, EnforcementMode mode,
                 ObsContext *obs = nullptr);

    KrispRuntime(const KrispRuntime &) = delete;
    KrispRuntime &operator=(const KrispRuntime &) = delete;

    EnforcementMode mode() const { return mode_; }

    /** Reconfiguration-elision policy (emulated mode only). */
    void setReconfigPolicy(ReconfigPolicy policy);
    ReconfigPolicy reconfigPolicy() const { return policy_; }

    /** Failure-handling policy for emulated-mode reconfig ioctls. */
    void setIoctlRetryPolicy(IoctlRetryPolicy policy);

    /**
     * Brownout degradation knob: clamp every right-size grant to at
     * most @p cap CUs (0 = uncapped, the default). Smaller grants
     * mean cheaper reconfigurations and more co-location headroom at
     * the cost of per-kernel latency — the resilience layer's middle
     * ground between serving normally and shedding traffic. Clamped
     * launches are counted under "krisp.capped_grants". Takes effect
     * from the next launch; applies to both enforcement modes.
     */
    void setGrantCapCus(unsigned cap) { grant_cap_ = cap; }
    unsigned grantCapCus() const { return grant_cap_; }

    /** Counter snapshot (values live in the metrics registry). */
    KrispRuntimeStats stats() const;

    /**
     * Launch @p kernel on @p stream with kernel-wise right-sizing;
     * @p completion is decremented when the kernel retires.
     */
    void launch(Stream &stream, KernelDescPtr kernel,
                HsaSignalPtr completion);

    /**
     * Launch a whole kernel sequence on @p stream, each kernel
     * decrementing @p completion once. Semantically equivalent to
     * calling launch() per kernel; under ReconfigPolicy::Group in
     * emulated mode, consecutive kernels with equal right-size are
     * coalesced into one barrier-pair + one reconfiguration ioctl per
     * run (the ECLIP-style lookahead over the model's known kernel
     * sequence). A run ends at a size change, at the queue ring's
     * wrap point, and implicitly at a fault-triggered fallback (the
     * invalidated tracking forces the next call to reconfigure).
     */
    void launchGroup(Stream &stream,
                     const std::vector<KernelDescPtr> &kernels,
                     HsaSignalPtr completion);

  private:
    void launchNative(Stream &stream, KernelDescPtr kernel,
                      HsaSignalPtr completion, unsigned cus);
    void launchEmulated(Stream &stream, KernelDescPtr kernel,
                        HsaSignalPtr completion, unsigned cus);
    /** Per-launch bookkeeping shared by every dispatch path. */
    void accountLaunch(const KernelDescriptor &kernel, unsigned cus);
    /** @p cus clamped to the grant cap (identity when uncapped). */
    unsigned cappedCus(unsigned cus) const;
    /** True when this emulated launch may skip the protocol. */
    bool canElide(const Stream &stream, unsigned cus) const;
    /** Launch directly under the already-installed mask. */
    void launchElided(Stream &stream, KernelDescPtr kernel,
                      HsaSignalPtr completion, unsigned cus,
                      const char *how);
    /**
     * Emulated protocol for a run of @p kernels sharing right-size
     * @p cus: one B1/B2 pair, every kernel of the run behind B2, one
     * allocator pass + reconfiguration ioctl.
     */
    void launchRunEmulated(Stream &stream,
                           const KernelDescPtr *kernels,
                           std::size_t count, HsaSignalPtr completion,
                           unsigned cus);
    /**
     * Submit the mask-reconfiguration ioctl for one emulated launch
     * (attempt counts from 1). On rejection, retries with exponential
     * backoff up to the policy's attempt budget, then releases the
     * kernel under the queue's current static mask. The stream is
     * addressed by id: retries cross simulated delays during which
     * the stream may be destroyed, in which case the reconfiguration
     * is abandoned (counted as a fallback) instead of touching a
     * dangling pointer. @p backoff_scale carries the accumulated
     * exponential factor so retry n costs O(1), not O(n).
     * @p proto_start is when the drain barrier signalled quiesce;
     * the stream's protocol-wait accumulator is credited with
     * (now - proto_start) when the held kernels are released.
     */
    void tryReconfig(StreamId sid, CuMask mask,
                     HsaSignalPtr mask_ready, unsigned attempt,
                     double backoff_scale, Tick proto_start);
    /** Release a held kernel whose stream disappeared mid-flight. */
    void abandonReconfig(HsaSignalPtr mask_ready, const char *why);

    HipRuntime &hip_;
    const KernelSizer &sizer_;
    MaskAllocator &allocator_;
    EnforcementMode mode_;
    ReconfigPolicy policy_ = ReconfigPolicy::Always;
    IoctlRetryPolicy retry_;
    unsigned grant_cap_ = 0;

    /** Fallback registry when no ObsContext is supplied. */
    MetricsRegistry own_metrics_;
    TraceSink *trace_ = nullptr;
    TimelineRecorder *timeline_ = nullptr;
    Label *policy_label_ = nullptr;
    Counter *launches_ = nullptr;
    Counter *emulated_reconfigs_ = nullptr;
    Counter *requested_cus_total_ = nullptr;
    Counter *reconfig_retries_ = nullptr;
    Counter *reconfig_fallbacks_ = nullptr;
    Counter *reconfig_launches_ = nullptr;
    Counter *reconfig_elisions_ = nullptr;
    Counter *grouped_launches_ = nullptr;
    Counter *capped_grants_ = nullptr;
    Accumulator *requested_cus_ = nullptr;
};

} // namespace krisp

#endif // KRISP_CORE_KRISP_RUNTIME_HH
