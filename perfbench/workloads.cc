/**
 * @file
 * The four benchmark workloads. Each fixes every configuration field
 * that would otherwise fall back to a KRISP_* environment default, so
 * the same seed always measures the same program.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "bench.hh"
#include "cluster/cluster_server.hh"
#include "cluster/gpu_shard.hh"
#include "common/random.hh"
#include "obs/obs.hh"
#include "server/inference_server.hh"
#include "server/llm_engine.hh"
#include "server/load_generator.hh"

using namespace krisp;

namespace perfbench
{

std::size_t
Percentile::beyond() const
{
    if (samples == 0)
        return 0;
    // Nearest rank, as PercentileTracker::percentile computes it.
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples)));
    rank = std::clamp<std::size_t>(rank, 1, samples);
    return samples - rank;
}

std::string
SimOutcome::fingerprint() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "attempted=%" PRIu64 " failed=%" PRIu64 " served=%" PRIu64
        " thr=%.17g good=%.17g p50=%.17g/%zu p99=%.17g/%zu e=%.17g"
        " ttft=%.17g/%zu itl=%.17g/%zu tok=%.17g",
        attempted, failed, served, throughputRps, goodputRps,
        p50Ms.value, p50Ms.samples, p99Ms.value, p99Ms.samples,
        energyJPerReq, ttftP99Ms.value, ttftP99Ms.samples,
        itlP99Ms.value, itlP99Ms.samples, tokensPerS);
    return buf;
}

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- registry readers ----------------------------------------------
//
// Instruments are looked up by the kind their publisher registered
// them as; an absent instrument reads as 0 (the layer did no work).

double
gaugeOr0(MetricsRegistry &m, const std::string &name)
{
    return m.has(name) ? m.gauge(name).value() : 0.0;
}

double
counterOr0(MetricsRegistry &m, const std::string &name)
{
    return m.has(name) ? static_cast<double>(m.counter(name).value())
                       : 0.0;
}

Percentile
trackerPct(MetricsRegistry &m, const std::string &name, double q)
{
    if (!m.has(name))
        return {};
    const PercentileTracker &t = m.percentiles(name);
    if (t.empty())
        return {};
    return Percentile{t.percentile(q), t.count(), q};
}

/** Samples of @p t at or below @p limit (binary search on ranks). */
std::size_t
countAtMost(const PercentileTracker &t, double limit)
{
    std::size_t lo = 0, hi = t.count();
    const double n = static_cast<double>(t.count());
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo + 1) / 2;
        // Quantile (mid - 0.5) / n has nearest rank exactly mid.
        const double v =
            t.percentile((static_cast<double>(mid) - 0.5) / n);
        if (v <= limit)
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

/** Counters every KRISP-serving registry publishes under krisp.* . */
void
readKrisp(MetricsRegistry &m, const std::string &prefix, Layers &out)
{
    for (const char *name :
         {"launches", "reconfig_launches", "reconfig_elisions",
          "grouped_launches", "reconfig_fallbacks", "reconfig_retries"})
        out[std::string("krisp.") + name] +=
            counterOr0(m, prefix + "krisp." + name);
}

/** Device and host counters (gpu.* / host.*) of one registry. */
void
readDevice(MetricsRegistry &m, const std::string &prefix, Layers &out)
{
    for (const char *name :
         {"kernels_dispatched", "krisp_allocations",
          "barriers_processed", "queue_mask_reconfigs"})
        out[std::string("gpu.") + name] +=
            gaugeOr0(m, prefix + "gpu." + name);
    out["host.ioctls_completed"] +=
        gaugeOr0(m, prefix + "host.ioctls_completed");
}

/** Event-core counters published as sim.* gauges. */
void
readSim(MetricsRegistry &m, Layers &out)
{
    const double scheduled = gaugeOr0(m, "sim.events_scheduled");
    out["sim.events_fired"] = gaugeOr0(m, "sim.events_fired");
    out["sim.cancelled_frac"] =
        scheduled > 0 ? gaugeOr0(m, "sim.events_cancelled") / scheduled
                      : 0.0;
}

/** Serving-phase percentiles published as server.phase.* . */
void
readPhases(MetricsRegistry &m, LayerPercentiles &pcts)
{
    pcts["server.queue_wait_ms.p99"] =
        trackerPct(m, "server.phase.queue_wait_ms", 0.99);
    pcts["server.batch_wait_ms.p99"] =
        trackerPct(m, "server.phase.batch_wait_ms", 0.99);
    pcts["server.execute_ms.p50"] =
        trackerPct(m, "server.phase.execute_ms", 0.50);
    pcts["server.execute_ms.p99"] =
        trackerPct(m, "server.phase.execute_ms", 0.99);
}

/** Per-request latency percentiles from the server.latency_ms set. */
void
latencyFromTracker(MetricsRegistry &m, double limitMs, SimOutcome &sim)
{
    const PercentileTracker &t = m.percentiles("server.latency_ms");
    if (t.empty())
        return;
    sim.p50Ms = Percentile{t.percentile(0.50), t.count(), 0.50};
    sim.p99Ms = Percentile{t.percentile(0.99), t.count(), 0.99};
    sim.goodputRps = sim.throughputRps *
                     static_cast<double>(countAtMost(t, limitMs)) /
                     static_cast<double>(t.count());
}

/** Obs-layer health of a run's context. */
void
readObs(ObsContext &obs, Layers &out)
{
    out["obs.trace_records"] = static_cast<double>(obs.trace.size());
    out["obs.trace_dropped"] = counterOr0(obs.metrics, "obs.trace_dropped");
    std::size_t sampled = 0;
    for (const TraceRecord &r : obs.trace.records())
        if (r.kind == TraceEventKind::RequestSpan)
            ++sampled;
    out["obs.records_per_sampled_req"] =
        sampled > 0 ? static_cast<double>(obs.trace.size()) /
                          static_cast<double>(sampled)
                    : 0.0;
}

void
requireServed(SimOutcome &sim, bool timedOut)
{
    if (timedOut)
        sim.violations.push_back("run hit its maxSimNs cap");
    if (sim.served == 0)
        sim.violations.push_back("no request was served");
}

/** Distinct profile keys over @p seqs (the Required-CUs table size). */
std::size_t
distinctKernels(const std::vector<const std::vector<KernelDescPtr> *> &seqs)
{
    std::set<std::string> keys;
    for (const auto *seq : seqs)
        for (const KernelDescPtr &k : *seq)
            keys.insert(k->profileKey());
    return keys.size();
}

/** Seeded-shuffle helper for the closed-loop co-location order. */
std::vector<std::string>
shuffled(std::vector<std::string> v, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
    return v;
}

// ---- closed_krisp_mix ----------------------------------------------

/**
 * One GPU at closed-loop maximum load: four workers (resnet152,
 * densenet201, albert, squeezenet) at batch 32 under KRISP-I native
 * enforcement (Sec. VI-A). There are no random arrivals; the seed
 * only picks which model each worker stream serves.
 */
class ClosedKrispMix : public Workload
{
  public:
    explicit ClosedKrispMix(std::uint64_t seed)
        : models_(shuffled({"resnet152", "densenet201", "albert",
                            "squeezenet"},
                           seed))
    {
    }

    std::string name() const override { return "closed_krisp_mix"; }
    unsigned shards() const override { return 1; }
    bool telemetered() const override { return true; }

    std::size_t
    setUp() const override
    {
        return setUpSingleDevice(mix(), mix());
    }

    RunRecord
    run(Telemetry telemetry) const override
    {
        ServerConfig cfg;
        cfg.workerModels = models_;
        cfg.batch = kBatch;
        cfg.policy = PartitionPolicy::KrispIsolated;
        cfg.enforcement = EnforcementMode::Native;
        cfg.warmupRequests = 3;
        cfg.measuredRequests = kMeasured;
        cfg.reconfig = ReconfigPolicy::Always;
        // Metrics only: the latency set behind p50/p99 covers every
        // completion, where the result struct keeps per-worker p95s.
        ObsContext obs;
        obs.trace.setEnabled(false);
        if (telemetry != Telemetry::Off)
            cfg.obs = &obs;

        RunRecord rec;
        const auto t0 = Clock::now();
        const ServerResult r = InferenceServer(cfg).run();
        rec.calls.push_back(Call{r.completed, secondsSince(t0)});

        SimOutcome &sim = rec.sim;
        sim.served = r.completed;
        sim.failed = r.deadlineMisses + r.failedRequests;
        sim.attempted = r.completed + sim.failed;
        sim.throughputRps = r.totalRps;
        sim.energyJPerReq = r.energyPerInferenceJ;
        requireServed(sim, r.timedOut);
        if (cfg.obs == nullptr)
            return rec;

        MetricsRegistry &m = obs.metrics;
        latencyFromTracker(m, kLimitMs, sim);
        const double completions = static_cast<double>(
            m.percentiles("server.latency_ms").count());
        readSim(m, rec.layers);
        rec.layers["sim.events_per_req"] =
            rec.layers["sim.events_fired"] / completions;
        readPhases(m, rec.pcts);
        rec.layers["server.mean_batch"] = kBatch;
        readKrisp(m, "", rec.layers);
        readDevice(m, "", rec.layers);
        rec.layers["krisp.requested_cus.mean"] =
            m.accumulator("krisp.requested_cus").mean();
        rec.layers["gpu.concurrency_at_dispatch.mean"] =
            gaugeOr0(m, "gpu.concurrency_at_dispatch.mean");
        rec.layers["gpu.kernel_latency_ns.mean"] =
            gaugeOr0(m, "gpu.kernel_latency_ns.mean");
        rec.layers["host.ioctl_queue_delay_ns.mean"] =
            gaugeOr0(m, "host.ioctl_queue_delay_ns.mean");
        rec.layers["models.kernels_per_req"] =
            rec.layers["gpu.kernels_dispatched"] / completions;
        readObs(obs, rec.layers);
        return rec;
    }

    void
    replay(const RunRecord &, SpanLog &spans, Layers &out,
           LayerPercentiles &pcts) const override
    {
        {
            ScopedSpan span(spans, "replay.allocator");
            const AllocatorReplay a = replayAllocator(mix(), 4000);
            pcts["core.allocate_ns.p50"] = a.p50Ns;
            pcts["core.allocate_ns.p99"] = a.p99Ns;
            out["core.short_grant_frac"] = a.shortGrantFrac;
        }
        ScopedSpan span(spans, "replay.bare_streams");
        out["gpu.ns_per_kernel"] = replayBareStreams(mix(), 20000);
    }

  private:
    static constexpr unsigned kBatch = 32;
    static constexpr unsigned kMeasured = 60;
    /** Goodput latency limit. */
    static constexpr double kLimitMs = 250.0;

    KernelMix
    mix() const
    {
        return [models = models_](const ModelZoo &zoo) {
            std::vector<const std::vector<KernelDescPtr> *> seqs;
            for (const std::string &m : models)
                seqs.push_back(&zoo.kernels(m, kBatch));
            return seqs;
        };
    }

    std::vector<std::string> models_;
};

// ---- cluster16_mps -------------------------------------------------

/**
 * Sixteen shards with MPS-default partitioning behind the
 * least-outstanding router: open-loop Poisson arrivals at 250 req/s
 * per shard over resnet152, squeezenet, vgg19 and albert, batches of
 * up to 8 and a 200 ms queueing deadline.
 */
class Cluster16Mps : public Workload
{
  public:
    explicit Cluster16Mps(std::uint64_t seed) : seed_(seed) {}

    std::string name() const override { return "cluster16_mps"; }
    unsigned shards() const override { return kShards; }
    bool telemetered() const override { return false; }

    std::size_t
    setUp() const override
    {
        // One device plane per shard, as ClusterServer::run builds
        // them; MPS-default profiles nothing.
        std::vector<std::unique_ptr<EventQueue>> queues;
        std::vector<std::unique_ptr<GpuShard>> shards;
        const ClusterConfig cfg = config();
        for (unsigned s = 0; s < kShards; ++s) {
            GpuShardConfig sc;
            sc.index = s;
            sc.policy = cfg.policy;
            sc.enforcement = cfg.enforcement;
            sc.numWorkers = cfg.workersPerShard;
            sc.maxBatch = cfg.maxBatch;
            sc.models = cfg.models;
            sc.reconfig = cfg.reconfig;
            queues.push_back(std::make_unique<EventQueue>());
            shards.push_back(
                std::make_unique<GpuShard>(*queues.back(), sc));
        }
        return 0;
    }

    RunRecord
    run(Telemetry telemetry) const override
    {
        ClusterConfig cfg = config();
        ObsContext obs;
        obs.trace.setEnabled(false);
        if (telemetry == Telemetry::Counters)
            cfg.obs = &obs;

        RunRecord rec;
        const auto t0 = Clock::now();
        const ClusterResult r = ClusterServer(cfg).run();
        rec.calls.push_back(Call{r.served, secondsSince(t0)});

        SimOutcome &sim = rec.sim;
        sim.served = r.served;
        sim.failed = r.dropped + r.shedDeadline;
        sim.attempted = r.arrivals + r.dropped;
        sim.throughputRps = r.achievedRps;
        // SLO-met share of whole-run completions, applied to the
        // measured throughput (the result keeps no windowed count).
        const ResilienceStats &res = r.resilience;
        sim.goodputRps =
            res.completed > 0
                ? r.achievedRps *
                      static_cast<double>(res.sloOkByClass[0]) /
                      static_cast<double>(res.completed)
                : 0.0;
        sim.p50Ms = Percentile{r.p50Ms, r.served, 0.50};
        sim.p99Ms = Percentile{r.p99Ms, r.served, 0.99};
        sim.energyJPerReq = r.energyPerRequestJ;
        requireServed(sim, r.timedOut);
        if (res.conservationDelta() != 0)
            sim.violations.push_back("request conservation broken");
        if (!r.allocatorsPristine)
            sim.violations.push_back("allocator grants leaked");

        rec.layers["cluster.fabric_msgs"] =
            static_cast<double>(r.engine.crossMessages);
        rec.layers["cluster.routing_decisions"] =
            static_cast<double>(r.routingDecisions);
        double max_served = 0, sum_served = 0;
        for (const std::uint64_t n : r.servedPerShard) {
            max_served = std::max(max_served, static_cast<double>(n));
            sum_served += static_cast<double>(n);
        }
        rec.layers["cluster.served_imbalance"] =
            sum_served > 0 ? max_served * kShards / sum_served : 0.0;
        rec.layers["server.mean_batch"] = r.meanBatchSize;
        rec.layers["sim.events_fired"] =
            static_cast<double>(r.engine.eventsFired);
        if (cfg.obs == nullptr)
            return rec;

        MetricsRegistry &m = obs.metrics;
        readSim(m, rec.layers);
        rec.layers["sim.events_per_req"] =
            rec.layers["sim.events_fired"] /
            static_cast<double>(res.completed);
        readPhases(m, rec.pcts);
        // Per-shard islands ("cluster.shard<i>.") summed; the means
        // weight each shard by the kernels it dispatched.
        double conc = 0, lat = 0;
        for (unsigned s = 0; s < kShards; ++s) {
            const std::string p = "cluster.shard" + std::to_string(s) + ".";
            readKrisp(m, p, rec.layers);
            readDevice(m, p, rec.layers);
            const double k = gaugeOr0(m, p + "gpu.kernels_dispatched");
            conc += k * gaugeOr0(m, p + "gpu.concurrency_at_dispatch.mean");
            lat += k * gaugeOr0(m, p + "gpu.kernel_latency_ns.mean");
        }
        const double kernels = rec.layers["gpu.kernels_dispatched"];
        rec.layers["gpu.concurrency_at_dispatch.mean"] =
            kernels > 0 ? conc / kernels : 0.0;
        rec.layers["gpu.kernel_latency_ns.mean"] =
            kernels > 0 ? lat / kernels : 0.0;
        rec.layers["models.kernels_per_req"] =
            kernels / static_cast<double>(res.completed);
        readObs(obs, rec.layers);
        rec.layers["cluster.sim_s"] = gaugeOr0(m, "sim.final_tick_ns") / 1e9;
        return rec;
    }

    void
    replay(const RunRecord &traced, SpanLog &spans, Layers &out,
           LayerPercentiles &) const override
    {
        const ClusterConfig cfg = config();
        {
            // The workload's LP count and event density, replayed on
            // the fabric alone.
            ScopedSpan span(spans, "replay.fabric");
            const double lps = kShards + 1;
            const double fired = traced.layers.at("sim.events_fired");
            const double sim_s = traced.layers.at("cluster.sim_s");
            out["cluster.fabric_ns_per_event"] = replayFabric(
                kShards, cfg.postprocessNs, fired / lps / sim_s,
                traced.layers.at("cluster.fabric_msgs") / fired, 400000);
        }
        ScopedSpan span(spans, "replay.bare_streams");
        const unsigned batch = static_cast<unsigned>(std::max(
            1.0, std::round(traced.layers.at("server.mean_batch"))));
        out["gpu.ns_per_kernel"] = replayBareStreams(
            [models = cfg.models, batch](const ModelZoo &zoo) {
                std::vector<const std::vector<KernelDescPtr> *> seqs;
                for (const std::string &m : models)
                    seqs.push_back(&zoo.kernels(m, batch));
                return seqs;
            },
            20000);
    }

  private:
    static constexpr unsigned kShards = 16;

    ClusterConfig
    config() const
    {
        ClusterConfig cfg;
        cfg.numShards = kShards;
        cfg.routing = RoutingPolicy::LeastOutstanding;
        cfg.models = {"resnet152", "squeezenet", "vgg19", "albert"};
        cfg.workersPerShard = 2;
        cfg.policy = PartitionPolicy::MpsDefault;
        cfg.enforcement = EnforcementMode::Native;
        cfg.arrivalRatePerSec = 250.0 * kShards;
        cfg.maxBatch = 8;
        cfg.requestDeadlineNs = ticksFromMs(200.0);
        cfg.sloMs = 200.0;
        // ~1,200 measured requests: enough for p99 with 10 samples
        // beyond it, short enough for many timed runs per window.
        cfg.warmupNs = ticksFromMs(50.0);
        cfg.measureNs = ticksFromMs(300.0);
        cfg.seed = seed_;
        cfg.reconfig = ReconfigPolicy::Always;
        cfg.engine.engine = ClusterEngine::Sequential;
        cfg.engine.workers = 1;
        cfg.engine.windowNs = 0;
        return cfg;
    }

    std::uint64_t seed_;
};

// ---- openloop_traced -----------------------------------------------

/**
 * The operator set-up of the telemetry-overhead experiment: resnet152
 * on four workers under KRISP-I native enforcement, Poisson arrivals
 * at 800 req/s, metrics on and one request in 64 traced.
 */
class OpenloopTraced : public Workload
{
  public:
    explicit OpenloopTraced(std::uint64_t seed) : seed_(seed) {}

    std::string name() const override { return "openloop_traced"; }
    unsigned shards() const override { return 1; }
    bool telemetered() const override { return true; }

    std::size_t
    setUp() const override
    {
        // Workers right-size for the largest batch; the table covers
        // every batch size the frontend can assemble.
        const auto workers = [](const ModelZoo &zoo) {
            return std::vector<const std::vector<KernelDescPtr> *>(
                kWorkers, &zoo.kernels(kModel, kMaxBatch));
        };
        const auto every_batch = [](const ModelZoo &zoo) {
            std::vector<const std::vector<KernelDescPtr> *> seqs;
            for (unsigned b = 1; b <= kMaxBatch; ++b)
                seqs.push_back(&zoo.kernels(kModel, b));
            return seqs;
        };
        return setUpSingleDevice(workers, every_batch);
    }

    RunRecord
    run(Telemetry telemetry) const override
    {
        OpenLoopConfig cfg;
        cfg.model = kModel;
        cfg.numWorkers = kWorkers;
        cfg.policy = PartitionPolicy::KrispIsolated;
        cfg.enforcement = EnforcementMode::Native;
        cfg.arrivalRatePerSec = 800.0;
        cfg.maxBatch = kMaxBatch;
        cfg.warmupNs = ticksFromMs(200.0);
        cfg.measureNs = ticksFromSec(1.6);
        cfg.seed = seed_;
        cfg.reconfig = ReconfigPolicy::Always;
        ObsContext obs;
        obs.trace.setSample(64);
        if (telemetry != Telemetry::Off)
            cfg.obs = &obs;

        RunRecord rec;
        const auto t0 = Clock::now();
        const OpenLoopResult r = OpenLoopServer(cfg).run();
        rec.calls.push_back(Call{r.served, secondsSince(t0)});

        SimOutcome &sim = rec.sim;
        sim.served = r.served;
        sim.failed = r.dropped + r.shedDeadline + r.failedBatches;
        sim.attempted = r.arrivals + r.dropped;
        sim.throughputRps = r.achievedRps;
        sim.p50Ms = Percentile{r.p50Ms, r.served, 0.50};
        sim.p99Ms = Percentile{r.p99Ms, r.served, 0.99};
        sim.energyJPerReq = r.energyPerRequestJ;
        requireServed(sim, r.timedOut);
        rec.layers["server.mean_batch"] = r.meanBatchSize;
        if (cfg.obs == nullptr)
            return rec;

        MetricsRegistry &m = obs.metrics;
        // Goodput share from every completion's latency.
        const PercentileTracker &all = m.percentiles("server.latency_ms");
        sim.goodputRps = r.achievedRps *
                         static_cast<double>(countAtMost(all, kLimitMs)) /
                         static_cast<double>(all.count());
        readSim(m, rec.layers);
        rec.layers["sim.events_per_req"] =
            rec.layers["sim.events_fired"] /
            static_cast<double>(all.count());
        readPhases(m, rec.pcts);
        readKrisp(m, "", rec.layers);
        readDevice(m, "", rec.layers);
        rec.layers["krisp.requested_cus.mean"] =
            m.accumulator("krisp.requested_cus").mean();
        rec.layers["gpu.concurrency_at_dispatch.mean"] =
            gaugeOr0(m, "gpu.concurrency_at_dispatch.mean");
        rec.layers["gpu.kernel_latency_ns.mean"] =
            gaugeOr0(m, "gpu.kernel_latency_ns.mean");
        rec.layers["models.kernels_per_req"] =
            rec.layers["gpu.kernels_dispatched"] /
            static_cast<double>(all.count());
        readObs(obs, rec.layers);
        return rec;
    }

    void
    replay(const RunRecord &traced, SpanLog &spans, Layers &out,
           LayerPercentiles &pcts) const override
    {
        const unsigned batch = static_cast<unsigned>(std::max(
            1.0, std::round(traced.layers.at("server.mean_batch"))));
        const KernelMix mix = [batch](const ModelZoo &zoo) {
            return std::vector<const std::vector<KernelDescPtr> *>(
                kWorkers, &zoo.kernels(kModel, batch));
        };
        {
            ScopedSpan span(spans, "replay.allocator");
            const AllocatorReplay a = replayAllocator(mix, 4000);
            pcts["core.allocate_ns.p50"] = a.p50Ns;
            pcts["core.allocate_ns.p99"] = a.p99Ns;
            out["core.short_grant_frac"] = a.shortGrantFrac;
        }
        ScopedSpan span(spans, "replay.bare_streams");
        out["gpu.ns_per_kernel"] = replayBareStreams(mix, 20000);
    }

  private:
    static constexpr const char *kModel = "resnet152";
    static constexpr unsigned kWorkers = 4;
    static constexpr unsigned kMaxBatch = 32;
    static constexpr double kLimitMs = 100.0;

    std::uint64_t seed_;
};

// ---- llm_emulated --------------------------------------------------

/**
 * llm-small on two shards with continuous batching, KRISP-I under
 * emulated enforcement and the paper's Always reconfiguration
 * protocol, Poisson arrivals at 96 req/s, measured over four 3.25 s
 * engine runs.
 */
class LlmEmulated : public Workload
{
  public:
    explicit LlmEmulated(std::uint64_t seed) : seed_(seed) {}

    std::string name() const override { return "llm_emulated"; }
    unsigned shards() const override { return kShards; }
    bool telemetered() const override { return true; }

    std::size_t
    setUp() const override
    {
        // One GpuShard per engine shard, configured as LlmEngine::run
        // configures them.
        const LlmEngineConfig cfg = config();
        std::vector<std::unique_ptr<EventQueue>> queues;
        std::vector<std::unique_ptr<GpuShard>> shards;
        for (unsigned s = 0; s < kShards; ++s) {
            queues.push_back(std::make_unique<EventQueue>());
            shards.push_back(std::make_unique<GpuShard>(
                *queues.back(), shardConfig(s)));
        }
        // The Required-CUs envelope each shard profiled: every
        // prefill chunk position and decode (batch, context) bucket.
        const ModelZoo &zoo = shards.front()->zoo();
        const LlmParams &p = ModelZoo::llmInfo(cfg.model);
        const unsigned granule = ModelZoo::contextBucket(1);
        std::vector<const std::vector<KernelDescPtr> *> seqs;
        for (unsigned past = 0; past < p.maxContext; past += granule)
            seqs.push_back(&zoo.llmPrefillKernels(
                cfg.model, cfg.prefillChunkTokens, past));
        for (unsigned b = 1; b <= cfg.maxDecodeBatch; ++b)
            for (unsigned ctx = granule; ctx <= p.maxContext;
                 ctx += granule)
                seqs.push_back(&zoo.llmDecodeKernels(cfg.model, b, ctx));
        return distinctKernels(seqs) * kShards;
    }

    /**
     * kParts engine runs on seeds derived from this workload's seed,
     * their latency sets pooled: many short timed calls instead of one
     * long one, with the same p99 sample support.
     */
    RunRecord
    run(Telemetry telemetry) const override
    {
        RunRecord rec;
        SimOutcome &sim = rec.sim;
        Layers &l = rec.layers;
        PercentileTracker e2e, ttft, itl;
        double seconds = 0, good = 0, tokens = 0, recomputed = 0;
        double batch_steps = 0;
        bool timed_out = false;
        for (unsigned part = 0; part < kParts; ++part) {
            LlmEngineConfig cfg = config(part);
            // Metrics only: the latency sets are read from the
            // registry, since the result keeps percentiles alone.
            ObsContext obs;
            obs.trace.setEnabled(false);
            if (telemetry != Telemetry::Off)
                cfg.obs = &obs;

            const auto t0 = Clock::now();
            const LlmResult r = LlmEngine(cfg).run();
            rec.calls.push_back(Call{r.served, secondsSince(t0)});

            sim.served += r.served;
            sim.failed += r.dropped;
            sim.attempted += r.arrivals;
            if (r.servedRps > 0)
                seconds += static_cast<double>(r.served) / r.servedRps;
            good += static_cast<double>(r.good);
            tokens += static_cast<double>(r.tokens);
            recomputed += static_cast<double>(r.recomputedTokens);
            timed_out = timed_out || r.timedOut;
            if (r.kvLeakBytes != 0)
                sim.violations.push_back("KV cache bytes leaked");

            l["llm.decode_steps"] += static_cast<double>(r.decodeSteps);
            l["llm.prefill_chunks"] += static_cast<double>(r.prefillChunks);
            l["llm.preemptions"] += static_cast<double>(r.preemptions);
            l["llm.kv_peak_mb"] =
                std::max(l["llm.kv_peak_mb"],
                         static_cast<double>(r.kvPeakBytes) / (1024.0 * 1024.0));
            batch_steps += r.meanDecodeBatch *
                           static_cast<double>(r.decodeSteps);
            if (cfg.obs == nullptr)
                continue;
            MetricsRegistry &m = obs.metrics;
            // e2e covers every completion; TTFT and ITL the measured
            // requests.
            e2e.merge(m.percentiles("server.llm.e2e_ms"));
            ttft.merge(m.percentiles("server.llm.ttft_ms"));
            itl.merge(m.percentiles("server.llm.itl_ms"));
            readObs(obs, l);
        }
        requireServed(sim, timed_out);
        sim.throughputRps = static_cast<double>(sim.served) / seconds;
        sim.goodputRps = good / seconds;
        sim.tokensPerS = tokens / seconds;
        if (!e2e.empty()) {
            sim.p50Ms = Percentile{e2e.percentile(0.50), e2e.count(), 0.50};
            sim.p99Ms = Percentile{e2e.percentile(0.99), e2e.count(), 0.99};
            sim.ttftP99Ms =
                Percentile{ttft.percentile(0.99), ttft.count(), 0.99};
            sim.itlP99Ms = Percentile{itl.percentile(0.99), itl.count(), 0.99};
        }

        const double steps = l["llm.decode_steps"];
        l["llm.mean_decode_batch"] = steps > 0 ? batch_steps / steps : 0.0;
        l["llm.recomputed_frac"] =
            tokens + recomputed > 0 ? recomputed / (tokens + recomputed)
                                    : 0.0;
        l["server.mean_batch"] = l["llm.mean_decode_batch"];
        return rec;
    }

    void
    replay(const RunRecord &traced, SpanLog &spans, Layers &out,
           LayerPercentiles &pcts) const override
    {
        const LlmEngineConfig cfg = config();
        const unsigned batch = static_cast<unsigned>(std::clamp(
            std::round(traced.layers.at("llm.mean_decode_batch")), 1.0,
            static_cast<double>(cfg.maxDecodeBatch)));
        // A mid-envelope context: half of the longest request.
        const unsigned context =
            (cfg.promptMaxTokens + cfg.outputMaxTokens) / 2;
        const KernelMix decode = [model = cfg.model, batch,
                                  context](const ModelZoo &zoo) {
            return std::vector<const std::vector<KernelDescPtr> *>{
                &zoo.llmDecodeKernels(model, batch, context)};
        };
        {
            // LlmEngine keeps its shards' counters private, so the
            // runtime / HSA / host counts come from this replay.
            ScopedSpan span(spans, "replay.emulated_launch");
            const EmulatedReplay e =
                replayEmulatedLaunch(cfg.model, batch, context, 20000);
            out["hsa.ns_per_emulated_launch"] = e.nsPerLaunch;
            for (const auto &[k, v] : e.counters)
                out[k] = v;
        }
        {
            ScopedSpan span(spans, "replay.allocator");
            const AllocatorReplay a = replayAllocator(decode, 4000);
            pcts["core.allocate_ns.p50"] = a.p50Ns;
            pcts["core.allocate_ns.p99"] = a.p99Ns;
            out["core.short_grant_frac"] = a.shortGrantFrac;
        }
        {
            ScopedSpan span(spans, "replay.bare_streams");
            out["gpu.ns_per_kernel"] = replayBareStreams(decode, 20000);
        }
        // Kernels lowered per served request: every decode step and
        // prefill chunk of the run at the replayed step shape.
        const ModelZoo zoo(GpuConfig::mi50().arch);
        const double per_step = static_cast<double>(
            zoo.llmDecodeKernels(cfg.model, batch, context).size());
        const double per_chunk = static_cast<double>(
            zoo.llmPrefillKernels(cfg.model, cfg.prefillChunkTokens, 0)
                .size());
        out["models.kernels_per_req"] =
            (traced.layers.at("llm.decode_steps") * per_step +
             traced.layers.at("llm.prefill_chunks") * per_chunk) /
            static_cast<double>(traced.sim.served);
    }

  private:
    static constexpr unsigned kShards = 2;
    static constexpr unsigned kParts = 4;

    /** Engine configuration of run part @p part. */
    LlmEngineConfig
    config(unsigned part = 0) const
    {
        LlmEngineConfig cfg;
        cfg.model = "llm-small";
        cfg.numShards = kShards;
        cfg.scheduler = LlmScheduler::Continuous;
        cfg.policy = PartitionPolicy::KrispIsolated;
        cfg.enforcement = EnforcementMode::Emulated;
        cfg.reconfig = ReconfigPolicy::Always;
        cfg.arrivalRatePerSec = 96.0;
        cfg.warmupNs = ticksFromMs(20.0);
        // ~1,250 measured requests over the parts: enough for p99
        // with 10 samples beyond it.
        cfg.measureNs = ticksFromSec(3.25);
        cfg.seed = seed_ * kParts + part;
        return cfg;
    }

    GpuShardConfig
    shardConfig(unsigned index) const
    {
        const LlmEngineConfig cfg = config();
        GpuShardConfig sc;
        sc.index = index;
        sc.policy = cfg.policy;
        sc.enforcement = cfg.enforcement;
        sc.numWorkers = 1;
        sc.maxBatch = 1;
        sc.llmMaxDecodeBatch = cfg.maxDecodeBatch;
        sc.llmPrefillChunkTokens = cfg.prefillChunkTokens;
        sc.models = {cfg.model};
        sc.reconfig = cfg.reconfig;
        return sc;
    }

    std::uint64_t seed_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "closed_krisp_mix")
        return std::make_unique<ClosedKrispMix>(seed);
    if (name == "cluster16_mps")
        return std::make_unique<Cluster16Mps>(seed);
    if (name == "openloop_traced")
        return std::make_unique<OpenloopTraced>(seed);
    if (name == "llm_emulated")
        return std::make_unique<LlmEmulated>(seed);
    return nullptr;
}

} // namespace perfbench
