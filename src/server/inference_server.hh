/**
 * @file
 * The spatially partitioned GPU inference server (Sec. VI-A).
 *
 * Mirrors the paper's custom framework: a frontend feeding per-worker
 * request queues, and independent workers that preprocess, run the
 * model's kernel sequence on their own stream, and postprocess. The
 * load generator is closed-loop at maximum load ("our evaluation
 * drives the GPU and inference server at maximum load"). Measurement
 * uses a warmup phase followed by a fixed number of measured requests
 * per worker; throughput, tail latency and energy are taken over the
 * measurement window.
 */

#ifndef KRISP_SERVER_INFERENCE_SERVER_HH
#define KRISP_SERVER_INFERENCE_SERVER_HH

#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/krisp_runtime.hh"
#include "fault/fault_plan.hh"
#include "obs/obs.hh"
#include "server/policies.hh"

namespace krisp
{

/** Everything needed to run one server experiment. */
struct ServerConfig
{
    /** One entry per worker; mixed co-location uses different models. */
    std::vector<std::string> workerModels;
    unsigned batch = 32;
    PartitionPolicy policy = PartitionPolicy::MpsDefault;
    /** Enforcement used by the KRISP policies. */
    EnforcementMode enforcement = EnforcementMode::Native;
    /** Override the KRISP overlap limit (Fig. 16 sensitivity). */
    std::optional<unsigned> overlapLimitOverride;

    /** Per-request CPU work around the GPU portion. */
    Tick preprocessNs = 1'500'000;
    Tick postprocessNs = 500'000;

    /** Requests per worker before measurement starts. */
    unsigned warmupRequests = 3;
    /** Measured requests per worker. */
    unsigned measuredRequests = 40;
    /** Hard stop for pathological configurations. */
    Tick maxSimNs = ticksFromSec(600);

    /**
     * Fault scenario for this run (default: inject nothing; the fault
     * layer is then never instantiated and results are bit-identical
     * to a build without it). Fault draws use faults.seed — runs with
     * equal configs produce identical traces.
     */
    FaultPlan faults;
    /**
     * Per-request deadline: a request still incomplete this long
     * after admission is shed — abandoned, counted as a deadline
     * miss, and its worker moves on. 0 disables deadlines.
     */
    Tick requestDeadlineNs = 0;
    /**
     * Per-request watchdog: a request still incomplete this long
     * after admission is declared failed (lost signal, hung kernel)
     * and abandoned so the experiment finishes without it.
     * 0 disables the watchdog.
     */
    Tick requestTimeoutNs = 0;
    /**
     * Reconfiguration-elision policy for the KRISP policies under
     * emulated enforcement; Always is the paper's per-launch protocol.
     */
    ReconfigPolicy reconfig = ReconfigPolicy::Always;

    /**
     * Optional observability context (owned by the caller, must
     * outlive run()). When set, the run emits kernel / mask /
     * barrier / ioctl events and per-request spans with worker and
     * model attribution into its trace sink, and fills its metrics
     * registry with "server.*", "krisp.*", "gpu.*" and "sim.*"
     * instruments. Purely observational: simulated-time results are
     * identical with or without it.
     */
    ObsContext *obs = nullptr;
};

/** Per-worker measurement output. */
struct WorkerResult
{
    std::string model;
    std::uint64_t completed = 0;
    double rps = 0;
    double meanLatencyMs = 0;
    double p95LatencyMs = 0;
};

/** Aggregate measurement output. */
struct ServerResult
{
    std::vector<WorkerResult> workers;
    double totalRps = 0;
    /** Worst per-worker p95 (the paper reports per-model tails). */
    double maxP95Ms = 0;
    double energyPerInferenceJ = 0;
    double avgPowerW = 0;
    double measureSeconds = 0;
    std::uint64_t completed = 0;
    /** Requests shed on deadline during the measurement window. */
    std::uint64_t deadlineMisses = 0;
    /** Requests failed by the watchdog during the measurement window. */
    std::uint64_t failedRequests = 0;
    /** True if the maxSimNs hard stop cut the run short. */
    bool timedOut = false;
};

/** Runs one closed-loop experiment; a fresh instance per run. */
class InferenceServer
{
  public:
    explicit InferenceServer(ServerConfig config);

    /** Execute the experiment to completion. */
    ServerResult run();

  private:
    ServerConfig config_;
};

} // namespace krisp

#endif // KRISP_SERVER_INFERENCE_SERVER_HH
