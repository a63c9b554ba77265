/**
 * @file
 * Multi-GPU open-loop serving: Poisson client arrivals routed across
 * N simulated GPU shards, with fault-aware failover.
 *
 * Scaling model. The run decomposes into logical processes executed
 * by a ClusterFabric (cluster/parallel_engine.hh): a control plane
 * (LP 0) owns the Poisson arrival process at arrivalRatePerSec, the
 * ClusterRouter, frontend queues, batching and watchdogs, and each
 * shard's device plane (LP 1+i) runs the familiar open-loop pipeline
 * — preprocess / launch / postprocess — against its own device on its
 * own event queue. The planes interact only through fabric messages,
 * so the same run executes sequentially (the oracle) or in
 * conservative parallel windows with byte-identical results.
 *
 * Failover. A shard that keeps hanging batches (watchdog strikes) or
 * keeps degrading launches to its static mask (ioctl-fallback storm)
 * is *drained*: the router stops sending it traffic, its queued
 * requests are re-routed to healthy shards, and after drainNs it is
 * re-admitted with a fresh health baseline. In-flight work on a
 * draining shard still completes; only admission stops.
 *
 * Determinism: arrivals, model choice and routing all derive from
 * config seeds; per-shard faults draw from forShard-derived streams.
 * Equal configs replay byte-identically — including the routing
 * decision hash, which tests compare across harness --jobs settings.
 */

#ifndef KRISP_CLUSTER_CLUSTER_SERVER_HH
#define KRISP_CLUSTER_CLUSTER_SERVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_router.hh"
#include "server/gpu_shard.hh"
#include "cluster/parallel_engine.hh"
#include "cluster/resilience.hh"

namespace krisp
{

/**
 * Layout revision of ClusterConfig::fingerprint(). Persisted
 * fingerprints (the placement search's eval cache) record it, so a
 * snapshot of another layout is recognised and ignored.
 */
inline constexpr std::uint64_t fingerprintVersion = 2;

/** Cluster experiment configuration. */
struct ClusterConfig
{
    unsigned numShards = 2;
    RoutingPolicy routing = RoutingPolicy::LeastOutstanding;
    /** Workload mix; each request picks uniformly (seeded). */
    std::vector<std::string> models = {"resnet152"};
    /**
     * Optional explicit placement: modelHomes[m] lists the home
     * shards of models[m]. Empty means the legacy implicit scheme
     * (shard s homes models[s % models.size()]), which stays
     * byte-identical for existing configs. Home shards are what
     * ModelAffinity routes to; with KRISP partitioning they are also
     * the shards that keep the model's profiled masks resident.
     */
    std::vector<std::vector<unsigned>> modelHomes;
    unsigned workersPerShard = 2;
    PartitionPolicy policy = PartitionPolicy::KrispIsolated;
    EnforcementMode enforcement = EnforcementMode::Native;

    /** Cluster-wide mean arrival rate, requests per second. */
    double arrivalRatePerSec = 200.0;
    unsigned maxBatch = 8;
    Tick batchTimeoutNs = ticksFromMs(2.0);
    /** Per-shard frontend backlog bound. */
    std::size_t queueCapacity = 1024;

    Tick warmupNs = ticksFromMs(500);
    Tick measureNs = ticksFromSec(2.0);
    Tick maxSimNs = ticksFromSec(600);

    std::uint64_t seed = 1;
    Tick preprocessNs = 1'500'000;
    Tick postprocessNs = 500'000;

    /** Cluster fault scenario; shard i draws from faults.forShard(i). */
    FaultPlan faults;
    Tick requestDeadlineNs = 0;
    Tick batchWatchdogNs = 0;
    /** Reconfiguration-elision policy (see ServerConfig::reconfig). */
    ReconfigPolicy reconfig = ReconfigPolicy::Always;
    /**
     * Optional per-shard CU grant caps (shardGrantCapCus[s] caps
     * shard s, 0 = uncapped). Empty means no static caps. Brownout
     * composes with these: the effective cap is the tighter of the
     * static cap and the cluster-wide brownout cap.
     */
    std::vector<unsigned> shardGrantCapCus;

    /**
     * Canonical shard-order-invariant FNV-1a fingerprint over every
     * serving-relevant field. Two configs that describe the same
     * serving behaviour up to a relabeling of shard indices (same
     * per-shard cap + homed-model sets, same global knobs) hash
     * equal; the engine choice is excluded because either engine
     * produces byte-identical results. Used as the evaluation-cache
     * key of the placement search and by determinism tests.
     */
    std::uint64_t fingerprint() const;

    // ---- failover policy -----------------------------------------
    /**
     * Drain a shard after this many watchdog-failed batches (0 =
     * never). A shard is also drained once 16 of its launches have
     * degraded to ioctl fallbacks since its last (re)admission.
     */
    unsigned failoverHangThreshold = 3;
    /** Re-admit a drained shard after this long (0 = never). */
    Tick drainNs = ticksFromMs(100.0);
    /**
     * Post-readmit grace: the health monitor holds its fire this long
     * after a re-admission (or crash recovery), so a shard re-admitted
     * into a still-active fault storm is not immediately re-drained,
     * inflating failovers. 0 keeps the legacy hair-trigger.
     */
    Tick readmitGraceNs = 0;

    // ---- resilience (see cluster/resilience.hh) ------------------
    ResilienceConfig resilience;
    /**
     * Fraction of arrivals in the Interactive priority class; the
     * rest are Batch. Drawn from a dedicated seed stream so the
     * class sequence never perturbs arrival or model draws.
     */
    double interactiveFraction = 1.0;
    /** Per-class SLO bound for attainment stats (0 = untracked). */
    double sloMs = 0;

    /**
     * Execution engine (sequential oracle vs windowed parallel, see
     * cluster/parallel_engine.hh). Either engine produces
     * byte-identical metrics, routing hashes and results for equal
     * configs; the engine only decides how the LP queues execute.
     */
    EngineConfig engine;

    /**
     * Optional cluster-level observability (routing, drops,
     * failover). With one attached, every shard also builds its own
     * context and its metrics merge in under "cluster.shard<i>.".
     */
    ObsContext *obs = nullptr;
};

/** Cluster measurement output. */
struct ClusterResult
{
    double offeredRps = 0;
    double achievedRps = 0;
    double dropRate = 0;
    double shedRate = 0;
    double meanBatchSize = 0;
    double p50Ms = 0;
    double p95Ms = 0;
    double p99Ms = 0;
    double energyPerRequestJ = 0;

    std::uint64_t arrivals = 0;
    std::uint64_t served = 0;
    std::uint64_t dropped = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t failedBatches = 0;

    /** Shards drained by the failover monitor (whole run). */
    std::uint64_t failovers = 0;
    /** Queued requests moved off a draining shard. */
    std::uint64_t rerouted = 0;
    /** Drained shards re-admitted after their drain window. */
    std::uint64_t readmits = 0;

    std::uint64_t routingDecisions = 0;
    /** FNV-1a hash over all routing decisions (replay oracle). */
    std::uint64_t routingHash = 0;

    /** Requests served per shard (measurement window). */
    std::vector<std::uint64_t> servedPerShard;
    bool timedOut = false;

    /**
     * Whole-run resilience accounting. Unlike the windowed counters
     * above, these cover every generated request, so the conservation
     * invariant (conservationDelta() == 0) is exact.
     */
    ResilienceStats resilience;
    /** completed / (completed + dropped + failed), whole run. */
    double availability = 0;
    /** Per class: SLO-met completions / injected (0 without sloMs). */
    std::array<double, numPriorityClasses> sloAttainment{};
    /**
     * Pristine-release invariant over every live shard at end of
     * run: no resident kernels, no busy CUs — hedging cancellation
     * and crash recovery leaked no allocator grants.
     */
    bool allocatorsPristine = true;

    /**
     * What the fabric did (windows, cross-LP messages, fallback).
     * Deliberately NOT published into the metrics registry: metrics
     * JSON must stay byte-identical across engines, and window
     * counts are engine-specific by nature.
     */
    EngineStats engine;
};

/** Runs one cluster experiment; a fresh instance per run. */
class ClusterServer
{
  public:
    explicit ClusterServer(ClusterConfig config);

    ClusterResult run();

  private:
    ClusterConfig config_;
};

} // namespace krisp

#endif // KRISP_CLUSTER_CLUSTER_SERVER_HH
