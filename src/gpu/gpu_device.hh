/**
 * @file
 * The simulated GPU: HSA queue consumption (command processor),
 * kernel dispatch with CU masks, contention-aware execution, and the
 * KRISP kernel-scoped partition-instance firmware extension.
 *
 * Execution model. Each running kernel is a fluid job whose drain
 * rate is re-evaluated whenever the set of running kernels changes:
 *
 *  - its compute rate is 1/t_compute(mask) scaled by the average CU
 *    share (CU throughput divides among co-resident kernels, with a
 *    small multiplicative interference penalty);
 *  - its memory rate is its max-min-fair share of device bandwidth,
 *    capped by the issue bandwidth of its (shared) CUs;
 *  - progress advances at the smaller of the two (roofline).
 *
 * The command processor honours the AQL barrier bit (a packet waits
 * for all prior packets of its queue), barrier-AND dependency
 * signals, and — when a KRISP allocator is installed — runs Algorithm
 * 1 on packets carrying a requested partition size (Fig. 10b).
 */

#ifndef KRISP_GPU_GPU_DEVICE_HH
#define KRISP_GPU_GPU_DEVICE_HH

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "gpu/cu_share.hh"
#include "gpu/gpu_config.hh"
#include "gpu/mask_allocator_iface.hh"
#include "gpu/power_model.hh"
#include "gpu/resource_monitor.hh"
#include "hsa/queue.hh"
#include "kern/timing_model.hh"
#include "obs/obs.hh"
#include "sim/event_queue.hh"
#include "sim/fluid_scheduler.hh"

namespace krisp
{

/** One retired kernel, as reported to the trace hook. */
struct KernelTraceEvent
{
    KernelId id = 0;
    QueueId queue = 0;
    std::string name;
    CuMask mask;
    /** Packet accepted by the command processor. */
    Tick dispatchTick = 0;
    /** First workgroup running. */
    Tick startTick = 0;
    /** Kernel retired. */
    Tick endTick = 0;
};

class FaultInjector;

/** Aggregate device statistics. */
struct GpuDeviceStats
{
    std::uint64_t kernelsDispatched = 0;
    std::uint64_t kernelsCompleted = 0;
    std::uint64_t packetsProcessed = 0;
    std::uint64_t barriersProcessed = 0;
    std::uint64_t krispAllocations = 0;
    /** Hung kernels force-retired by the GPU watchdog. */
    std::uint64_t watchdogKills = 0;
    /** Per-kernel wall latency (dispatch to retire), ns. */
    Accumulator kernelLatencyNs;
    /** Observed running-kernel concurrency at each dispatch. */
    Accumulator concurrencyAtDispatch;
};

/** The simulated MI50-class device. */
class GpuDevice
{
  public:
    GpuDevice(EventQueue &eq, GpuConfig config);

    GpuDevice(const GpuDevice &) = delete;
    GpuDevice &operator=(const GpuDevice &) = delete;

    const GpuConfig &config() const { return config_; }
    const ArchParams &arch() const { return config_.arch; }
    EventQueue &eventQueue() { return eq_; }

    /**
     * Human-readable device name for log attribution. Defaults to
     * "gpu"; a multi-device cluster names each shard's device
     * ("shard3") so watchdog warnings identify the GPU they came from.
     */
    void setName(std::string name) { name_ = std::move(name); }
    const std::string &name() const { return name_; }

    /** Create a software HSA queue bound to this device. */
    HsaQueue &createQueue();

    /** Look up a queue by id. */
    HsaQueue &queue(QueueId id);

    /**
     * Apply a stream-scoped CU mask to a queue. This is the state
     * change performed by the CU-masking ioctl; callers model the
     * syscall latency (IoctlService) before invoking it. Affects
     * kernels dispatched afterwards.
     */
    void setQueueCuMask(QueueId id, CuMask mask);

    /**
     * Install the KRISP firmware extension. With an allocator set,
     * kernel packets carrying requestedCus > 0 get a per-kernel mask
     * from Algorithm 1; without one, the field is ignored and the
     * queue mask applies (baseline hardware).
     */
    void setKrispAllocator(MaskAllocatorIface *allocator);

    /**
     * Install a tracing hook invoked at every kernel retirement
     * (profilers, timeline tools). Pass nullptr to disable.
     */
    void
    setTraceFn(std::function<void(const KernelTraceEvent &)> fn)
    {
        trace_fn_ = std::move(fn);
    }

    /**
     * Attach an observability context: the trace sink receives
     * kernel / workgroup / barrier / mask events (and is bound to
     * this device's simulated clock), existing and future HSA queues
     * report their reconfigurations into it. Pass nullptr to detach.
     * Purely observational — attaching never changes simulated time.
     */
    void attachObs(ObsContext *obs);

    /**
     * Attach a fault injector (site a): dispatched kernels may hang
     * or run slower, and their completion signals may lose
     * decrements. While a fault plan with a nonzero watchdogTimeoutNs
     * is armed, a per-kernel GPU watchdog force-retires kernels that
     * overstay it (driver-reset model): the kernel's completion
     * signal and callback still fire so only its request fails.
     * Pass nullptr to detach.
     */
    void attachFault(FaultInjector *fault);

    /**
     * Snapshot device statistics into @p metrics under "gpu.*"
     * (called once at end of run for the per-run JSON dump).
     */
    void publishMetrics(MetricsRegistry &metrics) const;

    const ResourceMonitor &monitor() const { return monitor_; }
    PowerModel &power() { return power_; }
    const PowerModel &power() const { return power_; }
    const GpuDeviceStats &stats() const { return stats_; }

    /** True if no queue has packets and nothing is executing. */
    bool idle() const;

  private:
    /** Per-queue command-processor pipe state. */
    struct QueueCtx
    {
        std::unique_ptr<HsaQueue> queue;
        /** CP pipe busy with (or waiting on) this queue's head packet. */
        bool processing = false;
        /** Kernels from this queue dispatched but not yet retired. */
        unsigned outstanding = 0;
        /** Head packet stalled on the barrier bit. */
        bool waitingQuiesce = false;
    };

    struct RunningKernel
    {
        KernelId id = 0;
        QueueId qid = 0;
        KernelDescPtr desc;
        CuMask mask;
        HsaSignalPtr completion;
        std::function<void()> onComplete;
        Tick dispatchTick = 0;
        Tick startTick = 0;
        /** Bandwidth granted in the last rate evaluation, bytes/ns. */
        double bwAlloc = 0;
        /**
         * Per-CU occupancy demand, fixed for the kernel's lifetime
         * (workgroups vs. saturation occupancy of its mask); cached at
         * adoption so rate recomputation does not re-derive it.
         */
        double demand = 0;
        /** Isolated compute time on the mask (floored), cached at
         *  adoption like demand. */
        double tCompute = 0;
        /** CUs in the mask. */
        unsigned cuCount = 0;
        /** The descriptor's DRAM bytes and issue factor, cached at
         *  adoption so rate recomputation reads no descriptor. */
        double bytes = 0;
        double issueFactor = 1.0;
        /** Injected hang: the fluid job runs at rate 0 forever. */
        bool hung = false;
        /** Injected duration multiplier (1.0 = none). */
        double slowFactor = 1.0;
        /** Pending GPU-watchdog event for this kernel. */
        EventId watchdog = invalidEventId;
    };

    /** One kernel's inputs to the roofline rate evaluation. */
    struct RateEval
    {
        JobId job;
        RunningKernel *rk;
        double computeRate; // progress per ns, compute-limited
        double demandBw;    // bytes per ns the kernel asks for
    };

    void tryProcess(QueueCtx &ctx);
    void handlePacket(QueueCtx &ctx);
    void handleBarrier(QueueCtx &ctx);
    void finishBarrier(QueueCtx &ctx);
    void dispatchKernel(QueueCtx &ctx, const AqlPacket &pkt,
                        CuMask mask);
    void onKernelComplete(JobId job);
    void watchdogFire(JobId job);
    void retireKernel(RunningKernel rk, bool killed);
    void recomputeRates(FluidScheduler &fs);

    /** contentionPenalty^k for k = 0 .. n - 1 at least, tabulated as
     *  residency counts appear. */
    std::span<const double> contentionPows(std::size_t n);

    /** Adopt @p rk as running job @p job. */
    RunningKernel &adoptRunning(JobId job, RunningKernel rk);
    /** Remove job @p job from the running set. */
    RunningKernel removeRunning(JobId job);

    EventQueue &eq_;
    GpuConfig config_;
    std::string name_ = "gpu";
    ResourceMonitor monitor_;
    /** The CUs of shader engine 0; SE s is this shifted by
     *  s * cusPerSe. */
    std::uint64_t se0_cus_;
    PowerModel power_;
    FluidScheduler fluid_;
    MaskAllocatorIface *allocator_ = nullptr;
    std::function<void(const KernelTraceEvent &)> trace_fn_;
    TraceSink *trace_ = nullptr;
    TimelineRecorder *timeline_ = nullptr;
    FaultInjector *fault_ = nullptr;

    /** Per-kernel-descriptor totals for gpu.kernel.* metrics. */
    struct KernelAgg
    {
        std::uint64_t completions = 0;
        double cuNs = 0; ///< sum of mask CUs * execution ns
    };
    /**
     * Keyed by descriptor identity (the shared_ptr keeps the name
     * alive); folded by kernel name at publish time. Only populated
     * while an obs context is attached, so obs-free runs pay nothing.
     */
    std::unordered_map<KernelDescPtr, KernelAgg> kernel_agg_;
    bool kernel_agg_enabled_ = false;

    std::vector<std::unique_ptr<QueueCtx>> queues_;
    std::unordered_map<JobId, RunningKernel> running_;
    /** Kernel handed to the fluid scheduler but not yet adopted. */
    std::optional<RunningKernel> staging_;
    KernelId next_kernel_id_ = 1;
    GpuDeviceStats stats_;

    /** contention_pow_[k] = std::pow(contentionPenalty, k). */
    std::vector<double> contention_pow_;

    // Scratch buffers reused across recomputeRates() calls: the
    // dispatch/retire hot path runs allocation-free in steady state.
    std::vector<JobId> scratch_jobs_;
    /** The running kernel of each job in scratch_jobs_. */
    std::vector<RunningKernel *> scratch_kernels_;
    /** Each job's mask and demand, and its CU share sum. */
    std::vector<CuLoad> scratch_loads_;
    std::vector<double> scratch_share_sums_;
    std::vector<RateEval> scratch_evals_;
    std::vector<double> scratch_demands_;
    std::vector<double> scratch_grants_;
    std::vector<std::size_t> scratch_order_;
};

} // namespace krisp

#endif // KRISP_GPU_GPU_DEVICE_HH
