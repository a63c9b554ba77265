#include "server/load_generator.hh"

#include <cmath>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "models/model_zoo.hh"
#include "server/dynamic_batcher.hh"
#include "server/gpu_shard.hh"
#include "server/request_recorder.hh"
#include "sim/event_queue.hh"

namespace krisp
{

namespace
{

/** One in-flight batch plus its phase stamps. */
struct Batch
{
    std::vector<BatchRequest> reqs;
    ExecStamps exec;
};

struct OpenWorker
{
    WorkerId id = 0;
    bool busy = false;
    /** Abandonment guard: bumped when the watchdog fails a batch. */
    std::uint64_t generation = 0;
    /** Pending per-batch watchdog event. */
    EventId watchdogEv = invalidEventId;
};

struct OpenState
{
    OpenLoopConfig cfg;
    EventQueue eq;
    /** The device plane: one GPU with its serving stack. */
    std::unique_ptr<GpuShard> shard;
    Rng rng{1};

    /** Queue + partial-batch timer + deadline shedding (shared). */
    std::unique_ptr<DynamicBatcher> batcher;
    std::vector<OpenWorker> workers;
    std::uint64_t nextRequestId = 0;

    RequestRecorder recorder{nullptr, true};
    /** Registry instruments (null when no ObsContext is attached). */
    Counter *droppedMetric = nullptr;
    Counter *shedMetric = nullptr;

    bool measuring = false;
    bool stopped = false;
    Tick measureStart = 0;
    Tick measureEnd = 0;
    double energyStart = 0;
    double energyEnd = 0;

    std::uint64_t arrivals = 0;
    std::uint64_t served = 0;
    std::uint64_t dropped = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t failedBatches = 0;
    Accumulator batchSizes;
    Accumulator queueDelayMs;
    PercentileTracker latencyMs;

    /** Trace track for frontend-side drops (no worker owns them). */
    WorkerId
    frontendTid() const
    {
        return static_cast<WorkerId>(workers.size());
    }

    void
    arrive()
    {
        if (stopped)
            return;
        const Tick t = eq.now();
        if (t >= cfg.warmupNs && !measuring) {
            measuring = true;
            measureStart = t;
            energyStart = shard->device().power().energyJoules();
        }
        if (measuring && t >= cfg.warmupNs + cfg.measureNs) {
            stopped = true;
            measureEnd = t;
            energyEnd = shard->device().power().energyJoules();
            return; // stop injecting; in-flight work drains
        }
        const std::uint64_t rid = ++nextRequestId;
        if (batcher->add(BatchRequest{rid, t, 0})) {
            if (measuring)
                ++arrivals;
            recorder.enqueue(frontendTid(), cfg.model, rid);
        } else {
            if (measuring)
                ++dropped;
            if (droppedMetric != nullptr)
                droppedMetric->inc();
            recorder.drop(frontendTid(), cfg.model, rid, "backlog", t);
        }
        // Next Poisson arrival.
        const double gap_s =
            -std::log(1.0 - rng.uniform()) / cfg.arrivalRatePerSec;
        eq.scheduleIn(std::max<Tick>(ticksFromSec(gap_s), 1),
                      [this] { arrive(); });
    }

    OpenWorker *
    idleWorker()
    {
        for (auto &w : workers)
            if (!w.busy)
                return &w;
        return nullptr;
    }

    /** Deadline-shed accounting (the batcher drops lazily). */
    void
    onShed(const BatchRequest &r)
    {
        if (measuring && r.arrival >= measureStart)
            ++shedDeadline;
        if (shedMetric != nullptr)
            shedMetric->inc();
        recorder.drop(frontendTid(), cfg.model, r.id, "deadline",
                      eq.now());
    }

    /** Batcher dispatch hook: consume one idle worker synchronously. */
    void
    startBatch(std::vector<BatchRequest> &&reqs)
    {
        OpenWorker *wp = idleWorker();
        panic_if(wp == nullptr, "dispatch with no idle worker");
        OpenWorker &w = *wp;
        const auto size = static_cast<unsigned>(reqs.size());
        w.busy = true;
        const std::uint64_t gen = w.generation;
        auto batch = std::make_shared<Batch>();
        batch->reqs = std::move(reqs);
        if (measuring)
            batchSizes.add(static_cast<double>(size));

        Tick preprocess = cfg.preprocessNs;
        if (shard->fault() != nullptr)
            preprocess += shard->fault()->preprocessStall();
        const auto *seq_ptr = &shard->zoo().kernels(cfg.model, size);
        eq.scheduleIn(preprocess, [this, &w, gen, batch, seq_ptr] {
            if (gen != w.generation)
                return;
            batch->exec.launch(shard->workerStream(w.id), eq.now());
            const auto &seq = *seq_ptr;
            auto sig = HsaSignal::create(
                static_cast<std::int64_t>(seq.size()));
            sig->waitZero([this, &w, gen, batch] {
                if (gen != w.generation)
                    return;
                batch->exec.finish(shard->workerStream(w.id),
                                   eq.now());
                eq.scheduleIn(cfg.postprocessNs,
                              [this, &w, gen, batch] {
                    if (gen != w.generation)
                        return;
                    finishBatch(w, *batch);
                });
            });
            shard->launch(w.id, seq, sig);
        });
        if (cfg.batchWatchdogNs > 0) {
            w.watchdogEv = eq.scheduleIn(
                cfg.batchWatchdogNs,
                [this, &w, batch] { watchdogFire(w, batch->reqs); });
        }
    }

    void
    disarmWatchdog(OpenWorker &w)
    {
        if (w.watchdogEv != invalidEventId) {
            eq.deschedule(w.watchdogEv);
            w.watchdogEv = invalidEventId;
        }
    }

    /**
     * The batch overstayed its watchdog budget (hung kernel, lost
     * completion): fail it, neutralise its in-flight callbacks via
     * the generation bump, and free the worker. Its kernels still
     * queued on the stream drain — or are reclaimed by the GPU
     * watchdog — ahead of the next batch's.
     */
    void
    watchdogFire(OpenWorker &w, const std::vector<BatchRequest> &batch)
    {
        w.watchdogEv = invalidEventId;
        ++w.generation;
        ++failedBatches;
        warn("open-loop watchdog failed a batch of ", batch.size(),
             " on worker ", w.id, " after ", cfg.batchWatchdogNs,
             " ns");
        for (const BatchRequest &r : batch)
            recorder.drop(w.id, cfg.model, r.id, "timeout", eq.now());
        w.busy = false;
        batcher->pump();
    }

    void
    finishBatch(OpenWorker &w, const Batch &batch)
    {
        disarmWatchdog(w);
        const Tick t = eq.now();
        for (const BatchRequest &r : batch.reqs) {
            if (measuring && r.arrival >= measureStart) {
                ++served;
                latencyMs.add(ticksToMs(t - r.arrival));
                queueDelayMs.add(ticksToMs(r.dequeued - r.arrival));
            }
            recorder.complete(w.id, cfg.model, r.id, r.arrival,
                              r.dequeued, batch.exec, t);
        }
        w.busy = false;
        batcher->pump();
    }
};

} // namespace

OpenLoopServer::OpenLoopServer(OpenLoopConfig config)
    : config_(std::move(config))
{
    fatal_if(config_.numWorkers == 0, "need at least one worker");
    fatal_if(config_.arrivalRatePerSec <= 0, "arrival rate must be "
                                             "positive");
    fatal_if(config_.maxBatch == 0, "max batch must be non-zero");
    fatal_if(!ModelZoo::isModel(config_.model),
             "unknown model: ", config_.model);
}

OpenLoopResult
OpenLoopServer::run()
{
    OpenState st;
    st.cfg = config_;
    st.rng = Rng(config_.seed);
    ObsContext *obs = config_.obs;
    if (obs != nullptr) {
        obs->trace.setClock(&st.eq);
        st.droppedMetric = &obs->metrics.counter("server.dropped");
        st.shedMetric = &obs->metrics.counter("server.deadline_misses");
    }
    st.recorder = RequestRecorder(obs, true);

    // The device plane is one shard serving the one model: it
    // profiles every batch size the frontend can assemble and
    // right-sizes each worker for the largest.
    GpuShardConfig shard_cfg;
    shard_cfg.policy = config_.policy;
    shard_cfg.enforcement = config_.enforcement;
    shard_cfg.numWorkers = config_.numWorkers;
    shard_cfg.maxBatch = config_.maxBatch;
    shard_cfg.models = {config_.model};
    shard_cfg.faults = config_.faults;
    shard_cfg.reconfig = config_.reconfig;
    shard_cfg.obs = obs;
    st.shard = std::make_unique<GpuShard>(st.eq, std::move(shard_cfg));

    st.workers.resize(config_.numWorkers);
    for (unsigned i = 0; i < config_.numWorkers; ++i)
        st.workers[i].id = i;

    DynamicBatcherConfig bcfg;
    bcfg.maxBatch = config_.maxBatch;
    bcfg.queueCapacity = config_.queueCapacity;
    bcfg.batchTimeoutNs = config_.batchTimeoutNs;
    bcfg.requestDeadlineNs = config_.requestDeadlineNs;
    st.batcher = std::make_unique<DynamicBatcher>(
        st.eq, bcfg,
        [&st] { return st.idleWorker() != nullptr; },
        [&st](std::vector<BatchRequest> &&reqs) {
            st.startBatch(std::move(reqs));
        });
    st.batcher->setShedHook(
        [&st](const BatchRequest &r) { st.onShed(r); });

    st.arrive();
    st.eq.run(config_.maxSimNs);

    OpenLoopResult result;
    if (st.eq.pendingCount() > 0) {
        warn("open-loop run hit the maxSimNs cap (",
             ticksToSec(config_.maxSimNs),
             " s) with work still in flight; results cover a "
             "truncated window");
        result.timedOut = true;
    }

    fatal_if(!st.measuring, "no measurement window reached");
    if (st.measureEnd == 0) {
        st.measureEnd = st.eq.now();
        st.energyEnd = st.shard->device().power().energyJoules();
    }

    const double seconds =
        ticksToSec(st.measureEnd - st.measureStart);
    result.offeredRps = config_.arrivalRatePerSec;
    result.arrivals = st.arrivals;
    result.served = st.served;
    result.dropped = st.dropped;
    result.shedDeadline = st.shedDeadline;
    result.failedBatches = st.failedBatches;
    result.achievedRps =
        seconds > 0 ? static_cast<double>(st.served) / seconds : 0;
    result.dropRate =
        st.arrivals + st.dropped > 0
            ? static_cast<double>(st.dropped) /
                  static_cast<double>(st.arrivals + st.dropped)
            : 0;
    result.meanBatchSize = st.batchSizes.mean();
    const LatencySummary lat = LatencySummary::from(st.latencyMs);
    result.p50Ms = lat.p50Ms;
    result.p95Ms = lat.p95Ms;
    result.p99Ms = lat.p99Ms;
    result.meanQueueDelayMs = st.queueDelayMs.mean();
    if (st.queueDelayMs.count() > 0)
        result.maxQueueDelayMs = st.queueDelayMs.max();
    result.energyPerRequestJ =
        st.served > 0
            ? (st.energyEnd - st.energyStart) /
                  static_cast<double>(st.served)
            : 0;

    if (obs != nullptr) {
        MetricsRegistry &m = obs->metrics;
        st.shard->device().publishMetrics(m);
        snapshotEventQueue(st.eq, m);
        m.label("server.policy")
            .set(partitionPolicyName(config_.policy));
        m.gauge("server.workers")
            .set(static_cast<double>(config_.numWorkers));
        m.gauge("server.offered_rps").set(result.offeredRps);
        m.gauge("server.achieved_rps").set(result.achievedRps);
        m.gauge("server.drop_rate").set(result.dropRate);
        m.gauge("server.requests_served")
            .set(static_cast<double>(result.served));
        m.gauge("server.failed_batches")
            .set(static_cast<double>(result.failedBatches));
        m.gauge("sim.timed_out").set(result.timedOut ? 1.0 : 0.0);
        obs->timeline.finish(st.eq.now());
        publishObsHealth(*obs);
        // The sink outlives this run's queue: unbind its clock.
        obs->trace.setClock(nullptr);
    }
    return result;
}

} // namespace krisp
