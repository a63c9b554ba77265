/**
 * @file
 * Open-loop serving: Poisson client arrivals, a frontend request
 * queue with dynamic batching, and latency-under-load measurement.
 *
 * The paper evaluates at maximum load with fixed batches (Sec. VI-A);
 * this extension completes the server architecture it describes — a
 * frontend that enqueues client requests and workers that serve
 * assembled batches — so KRISP can also be studied at realistic
 * request rates (the regime GSLICE/Gpulet/ELSA schedule for).
 */

#ifndef KRISP_SERVER_LOAD_GENERATOR_HH
#define KRISP_SERVER_LOAD_GENERATOR_HH

#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/krisp_runtime.hh"
#include "fault/fault_plan.hh"
#include "obs/obs.hh"
#include "server/policies.hh"

namespace krisp
{

/** Open-loop experiment configuration. */
struct OpenLoopConfig
{
    std::string model = "resnet152";
    unsigned numWorkers = 4;
    PartitionPolicy policy = PartitionPolicy::KrispIsolated;
    /** Enforcement used by the KRISP policies. */
    EnforcementMode enforcement = EnforcementMode::Native;

    /** Mean client arrival rate, single requests per second. */
    double arrivalRatePerSec = 100.0;
    /** Largest batch a worker serves. */
    unsigned maxBatch = 32;
    /** Partial batches dispatch after this delay. */
    Tick batchTimeoutNs = ticksFromMs(2.0);
    /** Frontend drops requests beyond this backlog (overload guard). */
    std::size_t queueCapacity = 2048;

    Tick warmupNs = ticksFromMs(500);
    Tick measureNs = ticksFromSec(4.0);
    /** Hard stop for pathological configurations. */
    Tick maxSimNs = ticksFromSec(600);

    /**
     * Seed for the Poisson arrival process. Two runs with equal
     * seeds (and equal configs) produce identical traces; the fault
     * layer draws from its own faults.seed, so changing one never
     * perturbs the other.
     */
    std::uint64_t seed = 1;
    Tick preprocessNs = 1'500'000;
    Tick postprocessNs = 500'000;

    /** Fault scenario (default: inject nothing, no fault layer). */
    FaultPlan faults;
    /**
     * Queued requests older than this are shed at the next dispatch
     * opportunity instead of being served uselessly late. 0 disables
     * deadline shedding.
     */
    Tick requestDeadlineNs = 0;
    /**
     * Per-batch watchdog: a batch still unfinished this long after
     * dispatch is declared failed and its worker freed (hung kernel,
     * lost completion). 0 disables the watchdog.
     */
    Tick batchWatchdogNs = 0;
    /** Reconfiguration-elision policy (see ServerConfig::reconfig). */
    ReconfigPolicy reconfig = ReconfigPolicy::Always;

    /**
     * Optional observability context (owned by the caller, must
     * outlive run()). Purely observational, as in ServerConfig.
     */
    ObsContext *obs = nullptr;
};

/** Open-loop measurement output. */
struct OpenLoopResult
{
    double offeredRps = 0;
    double achievedRps = 0;
    double dropRate = 0;
    double meanBatchSize = 0;
    /** End-to-end request latency including queueing, ms. */
    double p50Ms = 0;
    double p95Ms = 0;
    double p99Ms = 0;
    double meanQueueDelayMs = 0;
    /** Worst queueing delay of any served request, ms. */
    double maxQueueDelayMs = 0;
    double energyPerRequestJ = 0;
    /** Requests admitted during the measurement window. */
    std::uint64_t arrivals = 0;
    std::uint64_t served = 0;
    std::uint64_t dropped = 0;
    /** Requests shed past their deadline (measurement window). */
    std::uint64_t shedDeadline = 0;
    /** Batches failed by the watchdog (whole run). */
    std::uint64_t failedBatches = 0;
    /** True if the maxSimNs hard stop cut the run short. */
    bool timedOut = false;
};

/** Runs one open-loop experiment; a fresh instance per run. */
class OpenLoopServer
{
  public:
    explicit OpenLoopServer(OpenLoopConfig config);

    OpenLoopResult run();

  private:
    OpenLoopConfig config_;
};

} // namespace krisp

#endif // KRISP_SERVER_LOAD_GENERATOR_HH
