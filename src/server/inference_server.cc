#include "server/inference_server.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "gpu/gpu_device.hh"
#include "models/model_zoo.hh"
#include "server/partition_setup.hh"
#include "server/request_recorder.hh"
#include "sim/event_queue.hh"

namespace krisp
{

namespace
{

/** Live state of one worker. */
struct Worker
{
    WorkerId id = 0;
    std::string model;
    Stream *stream = nullptr;
    const std::vector<KernelDescPtr> *seq = nullptr;

    std::uint64_t totalCompleted = 0;
    std::uint64_t measuredCompleted = 0;
    PercentileTracker latencyMs;
    Tick requestStart = 0;
    std::uint64_t requestId = 0;
    bool idle = false;

    /** Phase stamps for the in-flight request. */
    ExecStamps exec;

    /**
     * Abandonment guard: bumped when a new request starts. Callbacks
     * of an abandoned request (shed or failed) carry a stale value
     * and return without touching the worker.
     */
    std::uint64_t generation = 0;
    /** Pending deadline / watchdog events for the current request. */
    EventId deadlineEv = invalidEventId;
    EventId timeoutEv = invalidEventId;
    std::uint64_t deadlineMisses = 0;
    std::uint64_t measuredDeadlineMisses = 0;
    std::uint64_t failedRequests = 0;
    std::uint64_t measuredFailed = 0;

    /** Registry instruments (null when no ObsContext is attached). */
    Counter *requestsMetric = nullptr;
    PercentileTracker *latencyMetric = nullptr;
};

/** Whole-run mutable state threaded through the event callbacks. */
struct RunState
{
    ServerConfig cfg;
    EventQueue eq;
    std::unique_ptr<GpuDevice> device;
    std::unique_ptr<HipRuntime> hip;
    std::unique_ptr<ModelZoo> zoo;
    PartitionSetup policy;
    std::unique_ptr<FaultInjector> fault;
    std::vector<Worker> workers;

    RequestRecorder recorder{nullptr, false};
    std::uint64_t nextRequestId = 0;

    bool measuring = false;
    bool done = false;
    Tick measureStart = 0;
    Tick doneTick = 0;
    double energyAtStart = 0;
    double energyAtDone = 0;
};

void startRequest(RunState &st, Worker &w);

void
maybeTransition(RunState &st)
{
    if (!st.measuring) {
        const bool warm = std::all_of(
            st.workers.begin(), st.workers.end(), [&](const Worker &w) {
                return w.totalCompleted >= st.cfg.warmupRequests;
            });
        if (warm) {
            st.measuring = true;
            st.measureStart = st.eq.now();
            st.energyAtStart = st.device->power().energyJoules();
            for (auto &w : st.workers) {
                w.measuredCompleted = 0;
                w.latencyMs.reset();
            }
        }
        return;
    }
    if (!st.done) {
        const bool finished = std::all_of(
            st.workers.begin(), st.workers.end(), [&](const Worker &w) {
                return w.measuredCompleted >= st.cfg.measuredRequests;
            });
        if (finished) {
            st.done = true;
            st.doneTick = st.eq.now();
            st.energyAtDone = st.device->power().energyJoules();
        }
    }
}

void
disarmRequestTimers(RunState &st, Worker &w)
{
    if (w.deadlineEv != invalidEventId) {
        st.eq.deschedule(w.deadlineEv);
        w.deadlineEv = invalidEventId;
    }
    if (w.timeoutEv != invalidEventId) {
        st.eq.deschedule(w.timeoutEv);
        w.timeoutEv = invalidEventId;
    }
}

/**
 * Abandon the in-flight request (deadline shed or watchdog failure)
 * and move the worker on. In-flight callbacks of the old request are
 * neutralised by the generation bump in startRequest; any of its
 * kernels still queued simply drain (or are reclaimed by the GPU
 * watchdog if hung) ahead of the next request's.
 */
void
abandonRequest(RunState &st, Worker &w, const char *reason)
{
    disarmRequestTimers(st, w);
    st.recorder.drop(w.id, w.model, w.requestId, reason, st.eq.now());
    debug("worker ", w.id, " abandoned request ", w.requestId, " (",
          reason, ") after ", st.eq.now() - w.requestStart, " ns");
    startRequest(st, w);
}

void
completeRequest(RunState &st, Worker &w)
{
    disarmRequestTimers(st, w);
    const Tick now = st.eq.now();
    const double latency_ms = ticksToMs(now - w.requestStart);
    ++w.totalCompleted;
    if (st.measuring && !st.done) {
        ++w.measuredCompleted;
        w.latencyMs.add(latency_ms);
    }
    // The closed loop admits each request the instant the last one
    // finished: no frontend queue, so it leaves it the same tick.
    st.recorder.complete(w.id, w.model, w.requestId, w.requestStart,
                         w.requestStart, w.exec, now);
    if (w.requestsMetric != nullptr) {
        w.requestsMetric->inc();
        w.latencyMetric->add(latency_ms);
    }
    maybeTransition(st);
    startRequest(st, w);
}

void
launchInference(RunState &st, Worker &w)
{
    const std::uint64_t gen = w.generation;
    w.exec.launch(*w.stream, st.eq.now());
    auto completion = HsaSignal::create(
        static_cast<std::int64_t>(w.seq->size()));
    st.policy.launch(*w.stream, *w.seq, completion);
    completion->waitZero([&st, &w, gen] {
        if (gen != w.generation)
            return;
        w.exec.finish(*w.stream, st.eq.now());
        st.eq.scheduleIn(st.cfg.postprocessNs, [&st, &w, gen] {
            if (gen != w.generation)
                return;
            completeRequest(st, w);
        });
    });
}

void
deadlineFire(RunState &st, Worker &w)
{
    w.deadlineEv = invalidEventId;
    ++w.deadlineMisses;
    if (st.measuring && !st.done)
        ++w.measuredDeadlineMisses;
    abandonRequest(st, w, "deadline");
}

void
timeoutFire(RunState &st, Worker &w)
{
    w.timeoutEv = invalidEventId;
    ++w.failedRequests;
    if (st.measuring && !st.done)
        ++w.measuredFailed;
    warn("worker ", w.id, " request ", w.requestId,
         " failed by the server watchdog after ",
         st.eq.now() - w.requestStart, " ns");
    abandonRequest(st, w, "timeout");
}

void
startRequest(RunState &st, Worker &w)
{
    if (st.done) {
        w.idle = true;
        return;
    }
    w.requestStart = st.eq.now();
    w.requestId = ++st.nextRequestId;
    ++w.generation;
    const std::uint64_t gen = w.generation;
    st.recorder.enqueue(w.id, w.model, w.requestId);
    Tick preprocess = st.cfg.preprocessNs;
    if (st.fault)
        preprocess += st.fault->preprocessStall();
    st.eq.scheduleIn(preprocess, [&st, &w, gen] {
        if (gen == w.generation)
            launchInference(st, w);
    });
    if (st.cfg.requestDeadlineNs > 0) {
        w.deadlineEv = st.eq.scheduleIn(
            st.cfg.requestDeadlineNs, [&st, &w] { deadlineFire(st, w); });
    }
    if (st.cfg.requestTimeoutNs > 0) {
        w.timeoutEv = st.eq.scheduleIn(
            st.cfg.requestTimeoutNs, [&st, &w] { timeoutFire(st, w); });
    }
}

} // namespace

InferenceServer::InferenceServer(ServerConfig config)
    : config_(std::move(config))
{
    fatal_if(config_.workerModels.empty(),
             "server needs at least one worker");
    fatal_if(config_.batch == 0, "batch size must be non-zero");
    for (const auto &m : config_.workerModels)
        fatal_if(!ModelZoo::isModel(m), "unknown model: ", m);
}

ServerResult
InferenceServer::run()
{
    RunState st;
    st.cfg = config_;
    ObsContext *obs = config_.obs;
    st.device = std::make_unique<GpuDevice>(st.eq, GpuConfig::mi50());
    st.hip = std::make_unique<HipRuntime>(st.eq, *st.device);
    if (obs != nullptr) {
        obs->trace.setClock(&st.eq);
        st.hip->attachObs(obs);
    }
    st.recorder = RequestRecorder(obs, false);
    if (config_.faults.enabled()) {
        // Only instantiated for fault-injecting plans: a zero-fault
        // run carries no fault layer at all and stays bit-identical.
        st.fault = std::make_unique<FaultInjector>(config_.faults,
                                                   obs);
        st.hip->attachFault(st.fault.get());
    }
    st.zoo = std::make_unique<ModelZoo>(st.device->config().arch);

    const unsigned num_workers =
        static_cast<unsigned>(config_.workerModels.size());

    // Create workers and their streams.
    st.workers.resize(num_workers);
    for (unsigned i = 0; i < num_workers; ++i) {
        Worker &w = st.workers[i];
        w.id = i;
        w.model = config_.workerModels[i];
        w.stream = &st.hip->createStream();
        w.seq = &st.zoo->kernels(w.model, config_.batch);
        if (obs != nullptr) {
            const std::string prefix =
                "server.worker" + std::to_string(i) + ".";
            obs->metrics.label(prefix + "model").set(w.model);
            w.requestsMetric =
                &obs->metrics.counter(prefix + "requests");
            w.latencyMetric =
                &obs->metrics.percentiles(prefix + "latency_ms");
        }
    }

    // Policy setup (shared with the open-loop and cluster paths).
    KernelProfiler kprof(st.device->config());
    std::vector<PartitionWorker> policy_workers;
    std::vector<const std::vector<KernelDescPtr> *> profile_seqs;
    for (auto &w : st.workers) {
        policy_workers.push_back(PartitionWorker{w.stream, w.seq});
        profile_seqs.push_back(w.seq);
    }
    st.policy = setupPartitionPolicy(
        *st.hip, config_.policy, config_.enforcement, kprof,
        policy_workers, profile_seqs, config_.overlapLimitOverride,
        IoctlRetryPolicy{}, config_.reconfig, obs);

    // Closed-loop load: every worker always has a request waiting.
    for (auto &w : st.workers)
        startRequest(st, w);

    ServerResult result;
    while (st.eq.step()) {
        if (st.eq.now() > config_.maxSimNs) {
            warn("experiment hit the maxSimNs cap (",
                 ticksToSec(config_.maxSimNs),
                 " s) before completing; results cover a truncated "
                 "window");
            result.timedOut = true;
            if (!st.done) {
                st.done = true;
                st.doneTick = st.eq.now();
                st.energyAtDone = st.device->power().energyJoules();
            }
            break;
        }
    }

    // A run that drains its events without measuring is a config bug;
    // a run cut short by the maxSimNs cap reports timedOut instead
    // (faults can legitimately starve the warmup phase).
    const bool measured =
        st.measuring && st.doneTick > st.measureStart;
    fatal_if(!result.timedOut && !measured,
             "experiment ended before producing a measurement window");

    const double seconds =
        measured ? ticksToSec(st.doneTick - st.measureStart) : 0.0;
    result.measureSeconds = seconds;
    for (auto &w : st.workers) {
        WorkerResult wr;
        wr.model = w.model;
        wr.completed = w.measuredCompleted;
        wr.rps = seconds > 0
                     ? static_cast<double>(w.measuredCompleted) / seconds
                     : 0.0;
        const LatencySummary lat = LatencySummary::from(w.latencyMs);
        wr.meanLatencyMs = lat.meanMs;
        wr.p95LatencyMs = lat.p95Ms;
        result.maxP95Ms = std::max(result.maxP95Ms, wr.p95LatencyMs);
        result.totalRps += wr.rps;
        result.completed += wr.completed;
        result.deadlineMisses += w.measuredDeadlineMisses;
        result.failedRequests += w.measuredFailed;
        result.workers.push_back(std::move(wr));
    }
    const double energy = st.energyAtDone - st.energyAtStart;
    result.energyPerInferenceJ =
        result.completed > 0
            ? energy / static_cast<double>(result.completed)
            : 0.0;
    result.avgPowerW = seconds > 0 ? energy / seconds : 0.0;

    if (obs != nullptr) {
        // One metrics snapshot per run: component stats join the live
        // "server.*" / "krisp.*" instruments filled during the run.
        MetricsRegistry &m = obs->metrics;
        st.device->publishMetrics(m);
        snapshotEventQueue(st.eq, m);
        const IoctlService &ioctl = st.hip->ioctlService();
        m.gauge("host.ioctls_completed")
            .set(static_cast<double>(ioctl.completed()));
        m.gauge("host.ioctl_max_backlog")
            .set(static_cast<double>(ioctl.maxBacklog()));
        m.gauge("host.ioctl_queue_delay_ns.mean")
            .set(ioctl.queueDelayNs().mean());
        m.label("server.policy")
            .set(partitionPolicyName(st.cfg.policy));
        m.gauge("server.workers")
            .set(static_cast<double>(num_workers));
        m.gauge("server.batch").set(static_cast<double>(st.cfg.batch));
        m.gauge("server.total_rps").set(result.totalRps);
        m.gauge("server.max_p95_ms").set(result.maxP95Ms);
        m.gauge("server.measure_seconds").set(result.measureSeconds);
        m.gauge("server.requests_completed")
            .set(static_cast<double>(result.completed));
        m.gauge("server.energy_per_inference_j")
            .set(result.energyPerInferenceJ);
        m.gauge("server.avg_power_w").set(result.avgPowerW);
        m.gauge("sim.timed_out").set(result.timedOut ? 1.0 : 0.0);
        if (st.cfg.requestDeadlineNs > 0) {
            m.gauge("server.deadline_misses")
                .set(static_cast<double>(result.deadlineMisses));
        }
        if (st.cfg.requestTimeoutNs > 0) {
            m.gauge("server.failed_requests")
                .set(static_cast<double>(result.failedRequests));
        }
        obs->timeline.finish(st.eq.now());
        publishObsHealth(*obs);
        // The sink outlives this run's queue: unbind its clock.
        obs->trace.setClock(nullptr);
    }
    return result;
}

} // namespace krisp
