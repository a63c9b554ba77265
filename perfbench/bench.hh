/**
 * @file
 * Shared types of the repository benchmark: what one serving run
 * produced, how a workload is driven, and the layer replays.
 *
 * A workload drives one of the public serving entry points
 * (InferenceServer, ClusterServer, OpenLoopServer, LlmEngine) with a
 * fixed configuration derived from the workload seed. The benchmark
 * times set-up and run() calls from outside, and reads per-layer
 * counters from the metrics registry the program already publishes
 * and from replays of single layers driven through public functions.
 */

#ifndef KRISP_PERFBENCH_BENCH_HH
#define KRISP_PERFBENCH_BENCH_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "kern/kernel_desc.hh"
#include "models/model_zoo.hh"
#include "spans.hh"

namespace perfbench
{

/** A percentile together with the samples it was taken over. */
struct Percentile
{
    double value = 0;
    std::size_t samples = 0;
    double q = 0;

    /**
     * Samples ranked strictly above the nearest-rank sample that
     * gives the value: the evidence the tail estimate rests on.
     */
    std::size_t beyond() const;
};

/** What one serving run simulated; deterministic for a config. */
struct SimOutcome
{
    /** Simulated requests offered in the measurement window. */
    std::uint64_t attempted = 0;
    /** Of those: dropped, shed or failed. */
    std::uint64_t failed = 0;
    std::uint64_t served = 0;
    double throughputRps = 0;
    /** Completions within the workload's latency limit, per sim s. */
    double goodputRps = 0;
    Percentile p50Ms;
    Percentile p99Ms;
    /** 0 where the entry point does not expose device energy. */
    double energyJPerReq = 0;
    /** LLM serving only (0 elsewhere). */
    Percentile ttftP99Ms;
    Percentile itlP99Ms;
    double tokensPerS = 0;
    /** Output invariants the run broke (empty when correct). */
    std::vector<std::string> violations;

    /** Every simulated field printed with all its digits. */
    std::string fingerprint() const;
};

/** Per-layer metric values by name. */
using Layers = std::map<std::string, double>;
/** Per-layer percentiles by name (checked for sample support). */
using LayerPercentiles = std::map<std::string, Percentile>;

/** One timed call of a serving entry point's run(). */
struct Call
{
    std::uint64_t served = 0;
    double wallS = 0;
};

/** One call of a workload's run(). */
struct RunRecord
{
    SimOutcome sim;
    /** Every entry-point call the run made, in order. */
    std::vector<Call> calls;
    /** Counters read from the run's metrics registry, if it had one. */
    Layers layers;
    LayerPercentiles pcts;
};

/** Which observability a run carries. */
enum class Telemetry
{
    /** The workload's own telemetry: what end-to-end runs time. */
    Configured,
    /** No observability context at all. */
    Off,
    /** The configured telemetry, plus a metrics registry if none. */
    Counters,
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;
    virtual unsigned shards() const = 0;
    /** Whether the configured telemetry attaches a context. */
    virtual bool telemetered() const = 0;

    /**
     * Bring up the serving stack once, as run() does before its first
     * event: one device per shard, zoo lowering and Required-CUs
     * profiling. @return kernels profiled into the Required-CUs table.
     */
    virtual std::size_t setUp() const = 0;

    virtual RunRecord run(Telemetry telemetry) const = 0;

    /**
     * Layer replays on bare components with this workload's kernel
     * mix; @p traced is the workload's counters run.
     */
    virtual void replay(const RunRecord &traced, SpanLog &spans,
                        Layers &out, LayerPercentiles &pcts) const = 0;
};

/** The workload named @p name with input seed @p seed, or null. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

// ---- host speed (hostspeed.cc) -------------------------------------

/**
 * Wall seconds of one pass of a fixed reference workload (libm
 * arithmetic and event-queue work, independent of the simulator).
 * Timing it next to a call gives the host's speed during that call.
 */
double referenceSeconds();

// ---- layer replays (replays.cc) -----------------------------------

/** One kernel sequence per serving stream, lowered from a zoo. */
using KernelMix = std::function<
    std::vector<const std::vector<krisp::KernelDescPtr> *>(
        const krisp::ModelZoo &)>;

/**
 * Bring up the single-device stack InferenceServer and OpenLoopServer
 * build at the top of run(): one stream per sequence of @p streams,
 * KRISP-I native set-up with @p profiled in the Required-CUs table.
 * @return entries of the Required-CUs table.
 */
std::size_t setUpSingleDevice(const KernelMix &streams,
                              const KernelMix &profiled);

/** Algorithm 1 under a timing wrapper on a bare native device. */
struct AllocatorReplay
{
    Percentile p50Ns;
    Percentile p99Ns;
    double shortGrantFrac = 0;
};

/**
 * Profile @p mix, install KRISP-I native enforcement, wrap its mask
 * allocator in a timer through GpuDevice::setKrispAllocator, and
 * launch the mix until at least @p allocations have been timed.
 */
AllocatorReplay replayAllocator(const KernelMix &mix,
                                std::size_t allocations);

/**
 * Wall ns per kernel for launching @p mix on bare streams (no KRISP,
 * no telemetry) until at least @p kernels have retired.
 */
double replayBareStreams(const KernelMix &mix, std::size_t kernels);

/** Emulated-enforcement launch path on one bare GpuShard. */
struct EmulatedReplay
{
    double nsPerLaunch = 0;
    /** krisp.* / gpu.* / host.* counters of the replaying shard. */
    Layers counters;
};

/**
 * Replay decode steps of @p model at @p batch over @p context tokens
 * through KrispRuntime::launch on an emulated shard (reconfiguration
 * protocol Always) until at least @p launches were made.
 */
EmulatedReplay replayEmulatedLaunch(const std::string &model,
                                    unsigned batch, unsigned context,
                                    std::size_t launches);

/**
 * Wall ns per event of a cluster fabric with @p shards shard LPs
 * plus the control LP, each LP firing @p eventsPerLpSimS events per
 * simulated second, a share @p crossShare of them posting a
 * cross-LP message; runs until @p events have fired.
 */
double replayFabric(unsigned shards, krisp::Tick lookaheadNs,
                    double eventsPerLpSimS, double crossShare,
                    std::size_t events);

} // namespace perfbench

#endif // KRISP_PERFBENCH_BENCH_HH
