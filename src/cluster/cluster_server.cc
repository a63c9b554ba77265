#include "cluster/cluster_server.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <utility>

#include "common/fnv.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "server/request_recorder.hh"
#include "sim/event_queue.hh"

/*
 * Execution model (see DESIGN.md §14). The run is split into logical
 * processes executed by a ClusterFabric: LP 0 (the *control plane*)
 * owns arrivals, routing, frontend queues, batching, watchdogs,
 * hedging, resilience, failover and crash bookkeeping; LP 1+i (the
 * *device plane* of shard i) owns that shard's GPU stack — streams,
 * kernel timing, signals, fault draws, power integration. The two
 * planes interact only through fabric messages:
 *
 *   control -> shard : batch launch (preprocess done), grant-cap
 *                      updates, crash-restart stack rebuilds
 *   shard -> control : batch completion, postprocessNs after the
 *                      completion signal hits zero — the cluster's
 *                      minimum shard-to-control latency, i.e. the
 *                      conservative lookahead
 *
 * Everything downstream of this file is engine-agnostic: the same
 * message protocol executes on one thread (sequential fabric, the
 * oracle) or on per-shard queues advanced in conservative windows
 * (parallel fabric), and both must produce byte-identical metrics.
 *
 * Cross-plane determinism rules used below:
 *  - A worker generation is checked when the completion *message is
 *    delivered* on the control plane, never from the device plane.
 *  - A device-plane launch consults its LaunchGate: the control
 *    plane stamps the tick a batch was abandoned (watchdog, crash),
 *    and the launch aborts iff that stamp is strictly before the
 *    launch tick — an order-free rule both engines evaluate alike.
 *  - Health checks read the reconfig-fallback count snapshotted into
 *    the completion message at signal-zero time, not the live shard
 *    counter.
 *  - Energy is sampled by per-shard events at fixed ticks, not by
 *    control-plane reads at arrival ticks.
 */

namespace krisp
{

namespace
{

/**
 * Drain a shard once this many of its launches have degraded to the
 * static queue mask (ioctl-fallback storm) since its last admission.
 */
constexpr std::uint64_t fallbackStormThreshold = 16;

/**
 * Shared fate of one hedged request's copies. Primary and hedge carry
 * the same HedgeState; the first completion resolves it (winner), the
 * other copy is then a known loser: queued copies are lazily purged,
 * an executing copy retires normally (its grants release through the
 * ordinary path, keeping the allocator pristine) and is counted
 * hedgesLost. liveCopies tracks copies that can still complete, so a
 * request is only failed when its *last* copy is lost.
 */
struct HedgeState
{
    bool resolved = false;
    unsigned liveCopies = 1;
    int primaryShard = -1;
    EventId timerEv = invalidEventId;
};

struct Request
{
    std::uint64_t id = 0;
    Tick arrival = 0;
    Tick dequeued = 0;
    unsigned model = 0; ///< index into ClusterConfig::models
    PriorityClass cls = PriorityClass::Interactive;
    /** Dispatch attempts including the first (retry cap input). */
    unsigned attempts = 1;
    /** Absolute expiry; refreshed on retry so a re-routed request is
     *  not dead on arrival. 0 = no deadline. */
    Tick deadlineAt = 0;
    bool isHedge = false;
    std::shared_ptr<HedgeState> hedge;
};

/**
 * Control-plane abort stamp for one dispatched batch. The control
 * plane records WHEN it abandoned the batch; the device plane aborts
 * its launch iff that happened strictly before the launch tick. The
 * strict comparison makes the equal-tick case (abandon and launch on
 * the same tick) engine-independent: both engines let the launch
 * proceed, and the completion is discarded at delivery by the
 * generation check.
 */
struct LaunchGate
{
    Tick abortedAt = maxTick;
};

/** One in-flight batch plus its phase stamps. */
struct Batch
{
    std::vector<Request> reqs;
    ExecStamps exec;
    /** Shard reconfig-fallback counter snapshot at signal zero;
     *  carried to the control plane for health checks. */
    std::uint64_t fallbacksSeen = 0;
};

struct ClusterWorker
{
    WorkerId id = 0;
    bool busy = false;
    /** Abandonment guard: bumped when the watchdog fails a batch. */
    std::uint64_t generation = 0;
    EventId watchdogEv = invalidEventId;
    /** Abort stamp shared with the in-flight device-plane launch. */
    std::shared_ptr<LaunchGate> gate;
    /** The batch being served, so a crash can recover its requests. */
    std::shared_ptr<Batch> inFlight;
};

/** Per-shard serving state (frontend queue + workers + health). */
struct ShardState
{
    /** Position in ClusterState::shards; the shard's trace track. */
    unsigned index = 0;
    /** Context the device plane reports into; outlives the stack. */
    std::unique_ptr<ObsContext> obs;
    std::unique_ptr<GpuShard> shard;
    std::deque<Request> pending;
    std::vector<ClusterWorker> workers;
    EventId batchTimer = invalidEventId;

    // ---- health since the last re-admission ----------------------
    std::uint64_t hungBatches = 0;
    std::uint64_t fallbackBaseline = 0;
    /** Highest fallback count any completion message reported. */
    std::uint64_t lastFallbacksSeen = 0;
    bool draining = false;
    /** Crashed and awaiting warm restart. */
    bool down = false;
    /** Health monitor holds fire until this tick (post-readmit). */
    Tick graceUntil = 0;

    // ---- shard-crash schedule ------------------------------------
    /** Dedicated stream: crash gaps depend only on (plan seed, i). */
    Rng crashRng{1};
    EventId crashEv = invalidEventId;

    // ---- per-shard tallies (measurement window) ------------------
    std::uint64_t served = 0;
};

/** A crashed shard stack, kept for in-flight work and metrics. */
struct DeadShard
{
    unsigned index = 0;
    std::unique_ptr<ObsContext> obs;
    std::unique_ptr<GpuShard> shard;
};

struct ClusterState
{
    ClusterConfig cfg;
    /** Owns the LP event queues; declared first so every shard stack
     *  (which references its queue) is destroyed before it. */
    std::unique_ptr<ClusterFabric> fab;
    std::vector<std::unique_ptr<ShardState>> shards;
    std::unique_ptr<ClusterRouter> router;
    std::unique_ptr<ClusterResilience> resilience;
    Rng rng{1};
    /** Priority-class stream, independent of arrival/model draws. */
    Rng classRng{1};

    ObsContext *obs = nullptr;
    RequestRecorder recorder{nullptr, true};
    /** The cluster context's trace sink (null without one). */
    TraceSink *trace = nullptr;
    std::uint64_t nextRequestId = 0;

    bool measuring = false;
    bool stopped = false;
    Tick measureStart = 0;
    Tick measureEnd = 0;
    /** Per-shard energy readings taken by device-plane events at the
     *  fixed ticks warmupNs and warmupNs + measureNs. */
    std::vector<double> energyStartShard;
    std::vector<double> energyEndShard;
    std::vector<char> energyEndSampled;

    std::uint64_t arrivals = 0;
    std::uint64_t served = 0;
    std::uint64_t dropped = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t failedBatches = 0;
    std::uint64_t failovers = 0;
    std::uint64_t rerouted = 0;
    std::uint64_t readmits = 0;
    Accumulator batchSizes;
    PercentileTracker latencyMs;

    // ---- whole-run conservation accounting -----------------------
    // Every generated request ends in exactly one of res.{completed,
    // shed, dropped, failed} or is still live at end of run; `live`
    // is the running in-flight count that closes the invariant.
    ResilienceStats res;
    std::uint64_t live = 0;
    /** Shed hedging cost gate: resilience.enabled && hedging. */
    bool hedging = false;
    /** Brownout grant cap currently pushed into the shards. */
    unsigned currentGrantCap = 0;
    EventId brownoutEv = invalidEventId;

    /**
     * Cap shard @p s should run under right now: the tighter of its
     * static placement cap (cfg.shardGrantCapCus) and the cluster-
     * wide brownout cap, where 0 means uncapped on either side.
     */
    unsigned
    effectiveCap(unsigned s) const
    {
        const unsigned base = cfg.shardGrantCapCus.empty()
                                  ? 0
                                  : cfg.shardGrantCapCus[s];
        if (base == 0)
            return currentGrantCap;
        if (currentGrantCap == 0)
            return base;
        return std::min(base, currentGrantCap);
    }

    /** Crashed shard stacks, kept so in-flight simulated work (and
     *  end-of-run metric merging) stays valid after a warm restart
     *  replaced them. Only the control plane mutates this (crash
     *  ticks); device-plane energy samples may read it, which is
     *  safe because fabric phases never overlap. */
    std::vector<DeadShard> graveyard;
    /** Per-shard bring-up templates for warm restarts. */
    std::vector<GpuShardConfig> shardCfgs;

    /** canonicalModel[i]: first index in cfg.models with the same
     *  name as entry i — identity unless the list has duplicates. */
    std::vector<unsigned> canonicalModel;

    Counter *droppedMetric = nullptr;
    Counter *shedMetric = nullptr;

    /**
     * Fold one shard stack's context into the cluster's: device
     * gauges and obs health into its registry, its timeline onto the
     * cluster timeline, its registry under "cluster.shard<i>.".
     */
    void
    mergeShardObs(unsigned idx, ObsContext &sobs, GpuShard &stack,
                  Tick final_tick)
    {
        stack.device().publishMetrics(sobs.metrics);
        publishObsHealth(sobs);
        if (sobs.timeline.enabled()) {
            sobs.timeline.finish(final_tick);
            sobs.timeline.mergeInto(obs->timeline);
        }
        sobs.metrics.mergeInto(obs->metrics,
                               "cluster.shard" + std::to_string(idx) +
                                   ".");
    }

    /** Control-plane event queue (LP 0). */
    EventQueue &
    ctl()
    {
        return fab->lpQueue(0);
    }

    /** Device-plane event queue of shard @p i (LP 1 + i). */
    EventQueue &
    shardQueue(unsigned i)
    {
        return fab->lpQueue(1 + i);
    }

    /**
     * Delay between a crash-restart stack rebuild (device plane) and
     * the control plane re-admitting the shard. Must be at least the
     * fabric lookahead so the rebuild has executed before the first
     * re-admitted dispatch reads the new stack; never zero so the
     * rebuild message sorts strictly before the readmit.
     */
    Tick
    readmitLagNs() const
    {
        return std::max<Tick>(cfg.postprocessNs, 1);
    }

    /**
     * Energy attributable to shard @p i: its live stack plus any of
     * its crashed stacks in the graveyard. The sum is independent of
     * which container currently holds a stack, so control-plane
     * graveyard moves inside the sampling window cannot skew it.
     */
    double
    shardEnergy(unsigned i) const
    {
        double joules = 0;
        const ShardState &ss = *shards[i];
        if (ss.shard != nullptr)
            joules += ss.shard->device().power().energyJoules();
        for (const DeadShard &dead : graveyard)
            if (dead.index == i)
                joules += dead.shard->device().power().energyJoules();
        return joules;
    }

    /** End-of-run fallback when the fixed-tick end samples did not
     *  fire (maxSimNs truncation): single-threaded, every LP clock
     *  already settled at its final event. */
    double
    totalEnergy() const
    {
        double joules = 0;
        for (unsigned i = 0; i < shards.size(); ++i)
            joules += shardEnergy(i);
        return joules;
    }

    const std::string &
    modelName(unsigned idx) const
    {
        return cfg.models[idx];
    }

    std::size_t
    classIdx(PriorityClass cls) const
    {
        return static_cast<std::size_t>(cls);
    }

    // ---- terminal transitions (each logical request exactly once) -
    void
    terminalComplete(const Request &r)
    {
        panic_if(live == 0, "completion with no live requests");
        --live;
        ++res.completed;
        ++res.completedByClass[classIdx(r.cls)];
    }

    void
    terminalFail()
    {
        panic_if(live == 0, "failure with no live requests");
        --live;
        ++res.failed;
    }

    void
    terminalDrop()
    {
        panic_if(live == 0, "drop with no live requests");
        --live;
        ++res.dropped;
    }

    void
    cancelHedgeTimer(const Request &r)
    {
        if (r.hedge && r.hedge->timerEv != invalidEventId) {
            ctl().deschedule(r.hedge->timerEv);
            r.hedge->timerEv = invalidEventId;
        }
    }

    /**
     * One copy of @p r is gone before completing. Returns true when
     * that ended the logical request's life (caller already ran the
     * terminal/retry path); false when another copy is still racing
     * or the request already completed elsewhere.
     */
    bool
    copyLost(const Request &r)
    {
        if (!r.hedge)
            return true;
        if (r.hedge->resolved)
            return false; // completed elsewhere: silent purge
        if (--r.hedge->liveCopies > 0)
            return false; // the other copy can still win
        cancelHedgeTimer(r);
        return true;
    }

    void
    dropRequest(const ShardState *ss, const Request &r,
                const char *reason)
    {
        if (!copyLost(r))
            return;
        if (measuring && r.arrival >= measureStart)
            ++dropped;
        if (droppedMetric != nullptr)
            droppedMetric->inc();
        recorder.drop(ss != nullptr ? ss->index : cfg.numShards,
                      modelName(r.model), r.id, reason, ctl().now());
        terminalDrop();
    }

    /** Avoid set for retry/hedge routing: the failed/primary shard
     *  plus every shard with an open circuit breaker. */
    std::vector<bool>
    avoidFor(unsigned bad)
    {
        std::vector<bool> avoid(cfg.numShards, false);
        if (bad < avoid.size())
            avoid[bad] = true;
        for (unsigned s = 0; s < cfg.numShards; ++s)
            if (resilience->breakerOpen(s, ctl().now()))
                avoid[s] = true;
        return avoid;
    }

    /**
     * The last copy of @p r was lost on @p failed_shard. Re-route it
     * under the retry budget, or fail it permanently — never drop it
     * on the floor.
     */
    void
    handleLostRequest(Request r, unsigned failed_shard)
    {
        const ResilienceConfig &rc = resilience->config();
        if (rc.enabled) {
            if (r.attempts < rc.maxAttempts &&
                resilience->tryChargeRetry()) {
                ++res.retries;
                r.attempts += 1;
                r.hedge.reset();
                r.isHedge = false;
                r.deadlineAt =
                    cfg.requestDeadlineNs > 0
                        ? ctl().now() + cfg.requestDeadlineNs
                        : 0;
                const std::vector<bool> avoid =
                    avoidFor(failed_shard);
                const int target =
                    router->route(modelName(r.model), r.id, &avoid);
                if (target >= 0) {
                    KRISP_TRACE_EVENT(trace,
                                      recovery("request_retry",
                                               modelName(r.model),
                                               r.attempts));
                    if (enqueueOn(static_cast<unsigned>(target), r))
                        maybeDispatch(
                            *shards[static_cast<unsigned>(target)]);
                    return; // requeued (or terminally dropped: full)
                }
                // No routable shard right now (crash + drain
                // overlap): park the request and re-route after a
                // backoff. Each hop re-enters here, spending one
                // attempt, so parking is bounded by maxAttempts.
                const Request parked = r;
                ctl().scheduleIn(rc.rerouteBackoffNs, [this, parked] {
                    handleLostRequest(parked, cfg.numShards);
                });
                return;
            } else {
                ++res.retriesDenied;
            }
        }
        terminalFail();
    }

    /** A copy of @p r was lost (watchdog / crash / deadline). */
    void
    loseRequest(const Request &r, unsigned failed_shard)
    {
        if (!copyLost(r))
            return;
        handleLostRequest(r, failed_shard);
    }

    /** Queue @p r on shard @p target; false = dropped (full). */
    bool
    enqueueOn(unsigned target, const Request &r)
    {
        ShardState &ss = *shards[target];
        if (ss.pending.size() >= cfg.queueCapacity) {
            dropRequest(&ss, r, "backlog");
            return false;
        }
        ss.pending.push_back(r);
        router->addOutstanding(target, +1);
        recorder.enqueue(ss.index, modelName(r.model), r.id);
        // Flow arrow: router decision -> shard frontend (ends at
        // finishBatch on the same shard track).
        KRISP_TRACE_EVENT(trace, requestFlowStep(r.id, tracePidServer,
                                                 ss.index));
        return true;
    }

    /** Measurement is over: recurring timers must let the queue
     *  drain instead of ticking forever. */
    void
    haltPeriodicTimers()
    {
        if (brownoutEv != invalidEventId) {
            ctl().deschedule(brownoutEv);
            brownoutEv = invalidEventId;
        }
        for (auto &ss : shards) {
            if (ss->crashEv != invalidEventId) {
                ctl().deschedule(ss->crashEv);
                ss->crashEv = invalidEventId;
            }
        }
    }

    void
    arrive()
    {
        if (stopped)
            return;
        const Tick t = ctl().now();
        if (t >= cfg.warmupNs && !measuring) {
            measuring = true;
            measureStart = t;
        }
        if (measuring && t >= cfg.warmupNs + cfg.measureNs) {
            stopped = true;
            measureEnd = t;
            haltPeriodicTimers();
            return; // stop injecting; in-flight work drains
        }
        Request r;
        r.id = ++nextRequestId;
        r.arrival = t;
        // The draw spans the full (possibly duplicated) model list —
        // duplicate entries are how weighted mixes are expressed —
        // but the stored index is canonical, so same-name requests
        // batch together no matter which duplicate they drew.
        const unsigned draw =
            cfg.models.size() > 1
                ? static_cast<unsigned>(
                      rng.below(cfg.models.size()))
                : 0;
        r.model = canonicalModel[draw];
        r.cls = classRng.uniform() < cfg.interactiveFraction
                    ? PriorityClass::Interactive
                    : PriorityClass::Batch;
        if (cfg.requestDeadlineNs > 0)
            r.deadlineAt = t + cfg.requestDeadlineNs;
        ++res.injected;
        ++res.injectedByClass[classIdx(r.cls)];

        if (!resilience->admit(r.cls, t)) {
            ++res.shed;
            ++res.shedByClass[classIdx(r.cls)];
            recorder.drop(static_cast<WorkerId>(cfg.numShards),
                          modelName(r.model), r.id, "admission", t);
        } else {
            ++live;
            if (hedging && resilience->hedgeReady())
                r.hedge = std::make_shared<HedgeState>();
            const int target =
                router->route(modelName(r.model), r.id);
            if (target >= 0) {
                KRISP_TRACE_EVENT(trace,
                                  requestFlowBegin(r.id,
                                                   tracePidServer,
                                                   traceTidRouter));
            }
            if (target < 0) {
                if (resilience->config().enabled) {
                    // Nowhere to go (crash + drain overlap): the
                    // retry path parks and re-routes with backoff
                    // instead of bouncing the request.
                    loseRequest(r, cfg.numShards);
                } else {
                    dropRequest(nullptr, r, "unrouted");
                }
            } else if (enqueueOn(static_cast<unsigned>(target), r)) {
                if (measuring)
                    ++arrivals;
                if (r.hedge) {
                    r.hedge->primaryShard = target;
                    r.hedge->timerEv = ctl().scheduleIn(
                        resilience->hedgeDelayNs(),
                        [this, r] { hedgeFire(r); });
                }
                maybeDispatch(*shards[static_cast<unsigned>(target)]);
            }
        }
        // Next Poisson arrival (cluster-wide process).
        const double gap_s = -std::log(1.0 - rng.uniform()) /
                             cfg.arrivalRatePerSec;
        ctl().scheduleIn(std::max<Tick>(ticksFromSec(gap_s), 1),
                         [this] { arrive(); });
    }

    /**
     * The hedge timer fired: @p tmpl is still unresolved, so issue a
     * duplicate dispatch to a second shard (avoiding the primary and
     * open breakers), charged against the retry budget. Whichever
     * copy completes first wins.
     */
    void
    hedgeFire(const Request &tmpl)
    {
        const std::shared_ptr<HedgeState> hs = tmpl.hedge;
        hs->timerEv = invalidEventId;
        if (stopped || hs->resolved || hs->liveCopies == 0)
            return;
        const std::vector<bool> avoid = avoidFor(
            hs->primaryShard >= 0
                ? static_cast<unsigned>(hs->primaryShard)
                : cfg.numShards);
        const int target =
            router->route(modelName(tmpl.model), tmpl.id, &avoid);
        if (target < 0)
            return; // nowhere to hedge to
        if (!resilience->tryChargeRetry())
            return; // budget spent: the primary is on its own
        ++res.hedges;
        Request copy = tmpl;
        copy.isHedge = true;
        ++hs->liveCopies;
        KRISP_TRACE_EVENT(trace,
                          recovery("request_hedge",
                                   modelName(tmpl.model),
                                   static_cast<std::uint64_t>(target)));
        // A full queue silently reclaims the copy (copyLost path).
        if (enqueueOn(static_cast<unsigned>(target), copy))
            maybeDispatch(*shards[static_cast<unsigned>(target)]);
    }

    ClusterWorker *
    idleWorker(ShardState &ss)
    {
        for (auto &w : ss.workers)
            if (!w.busy)
                return &w;
        return nullptr;
    }

    /** Lazily cancel queued copies whose hedge already resolved. */
    void
    purgeResolved(ShardState &ss)
    {
        if (!hedging)
            return;
        for (auto it = ss.pending.begin(); it != ss.pending.end();) {
            if (it->hedge && it->hedge->resolved) {
                router->addOutstanding(ss.index, -1);
                it = ss.pending.erase(it);
            } else {
                ++it;
            }
        }
    }

    void
    shedExpired(ShardState &ss)
    {
        if (cfg.requestDeadlineNs == 0)
            return;
        while (!ss.pending.empty() &&
               ss.pending.front().deadlineAt != 0 &&
               ss.pending.front().deadlineAt <= ctl().now()) {
            const Request r = ss.pending.front();
            ss.pending.pop_front();
            const unsigned idx = ss.index;
            router->addOutstanding(idx, -1);
            if (measuring && r.arrival >= measureStart)
                ++shedDeadline;
            if (shedMetric != nullptr)
                shedMetric->inc();
            recorder.drop(idx, modelName(r.model), r.id, "deadline",
                          ctl().now());
            loseRequest(r, idx);
        }
    }

    /** Requests queued for the same model as the queue head. */
    unsigned
    matchingHead(const ShardState &ss) const
    {
        if (ss.pending.empty())
            return 0;
        const unsigned model = ss.pending.front().model;
        unsigned n = 0;
        for (const Request &r : ss.pending)
            if (r.model == model)
                ++n;
        return n;
    }

    void
    maybeDispatch(ShardState &ss)
    {
        if (ss.down)
            return;
        purgeResolved(ss);
        shedExpired(ss);
        ClusterWorker *w = idleWorker(ss);
        if (!w || ss.pending.empty())
            return;
        const unsigned ready = matchingHead(ss);
        if (ready >= cfg.maxBatch) {
            dispatchBatch(ss, *w, cfg.maxBatch);
            return;
        }
        const Tick oldest = ss.pending.front().arrival;
        const Tick deadline = oldest + cfg.batchTimeoutNs;
        if (ctl().now() >= deadline) {
            dispatchBatch(ss, *w, ready);
            return;
        }
        if (ss.batchTimer == invalidEventId) {
            ss.batchTimer = ctl().schedule(deadline, [this, &ss] {
                ss.batchTimer = invalidEventId;
                maybeDispatch(ss);
            });
        }
    }

    void
    dispatchBatch(ShardState &ss, ClusterWorker &w, unsigned size)
    {
        panic_if(size == 0, "dispatching an empty batch");
        w.busy = true;
        w.gate = std::make_shared<LaunchGate>();
        const std::uint64_t gen = w.generation;
        // Single-model batches: collect up to @p size requests for
        // the head's model, leaving other models queued in order.
        const unsigned model = ss.pending.front().model;
        auto batch = std::make_shared<Batch>();
        for (auto it = ss.pending.begin();
             it != ss.pending.end() && batch->reqs.size() < size;) {
            if (it->model == model) {
                Request r = *it;
                r.dequeued = ctl().now();
                batch->reqs.push_back(r);
                it = ss.pending.erase(it);
            } else {
                ++it;
            }
        }
        w.inFlight = batch;
        if (measuring)
            batchSizes.add(static_cast<double>(batch->reqs.size()));

        // Preprocess runs on the control plane: the stall draw comes
        // from the fault injector's dedicated stall stream, which
        // only this plane consumes, and the kernel-sequence lookup is
        // a pure cache hit (the shard pre-profiled every (model,
        // batch <= maxBatch) pair at bring-up).
        Tick preprocess = cfg.preprocessNs;
        if (ss.shard->fault() != nullptr)
            preprocess += ss.shard->fault()->preprocessStall();
        const auto *seq_ptr = &ss.shard->zoo().kernels(
            modelName(model),
            static_cast<unsigned>(batch->reqs.size()));
        const unsigned idx = ss.index;
        const unsigned wid = w.id;
        GpuShard *stack = ss.shard.get();
        std::shared_ptr<LaunchGate> gate = w.gate;
        const Tick post = cfg.postprocessNs;

        // Device plane: launch at preprocess-done, then post the
        // completion back postprocessNs after signal zero (the
        // fabric lookahead).
        fab->post(0, 1 + idx, ctl().now() + preprocess,
                  [this, idx, wid, gen, gate, batch, seq_ptr, stack,
                   post] {
            EventQueue &sq = shardQueue(idx);
            const Tick launch_tick = sq.now();
            if (gate->abortedAt < launch_tick)
                return; // abandoned before the kernels went out
            batch->exec.launch(stack->workerStream(wid), launch_tick);
            const auto &seq = *seq_ptr;
            auto sig = HsaSignal::create(
                static_cast<std::int64_t>(seq.size()));
            sig->waitZero([this, idx, wid, gen, gate, batch, stack,
                           post] {
                EventQueue &sq2 = shardQueue(idx);
                const Tick exec_done = sq2.now();
                if (gate->abortedAt < exec_done)
                    return; // abandoned mid-flight: no completion
                batch->exec.finish(stack->workerStream(wid),
                                   exec_done);
                batch->fallbacksSeen = stack->reconfigFallbacks();
                fab->post(1 + idx, 0, exec_done + post,
                          [this, idx, wid, gen, batch] {
                    completeBatch(idx, wid, gen, *batch);
                });
            });
            stack->launch(wid, seq, sig);
        });
        if (cfg.batchWatchdogNs > 0) {
            w.watchdogEv = ctl().scheduleIn(
                cfg.batchWatchdogNs,
                [this, &ss, &w, batch] {
                    watchdogFire(ss, w, batch->reqs);
                });
        }
    }

    void
    disarmWatchdog(ClusterWorker &w)
    {
        if (w.watchdogEv != invalidEventId) {
            ctl().deschedule(w.watchdogEv);
            w.watchdogEv = invalidEventId;
        }
    }

    /** Stamp the control-plane tick a batch was abandoned at. */
    void
    abandonBatch(ClusterWorker &w)
    {
        ++w.generation;
        if (w.gate && ctl().now() < w.gate->abortedAt)
            w.gate->abortedAt = ctl().now();
    }

    void
    watchdogFire(ShardState &ss, ClusterWorker &w,
                 const std::vector<Request> &batch)
    {
        const unsigned idx = ss.index;
        w.watchdogEv = invalidEventId;
        abandonBatch(w);
        ++failedBatches;
        ++ss.hungBatches;
        router->addOutstanding(
            idx, -static_cast<std::int64_t>(batch.size()));
        warn("cluster watchdog failed a batch of ", batch.size(),
             " on shard ", idx, " worker ", w.id);
        for (const Request &r : batch)
            recorder.drop(idx, modelName(r.model), r.id, "timeout",
                          ctl().now());
        w.busy = false;
        w.inFlight.reset();
        resilience->noteShardFailure(idx, ctl().now());
        for (const Request &r : batch)
            loseRequest(r, idx);
        checkHealth(ss);
        if (!ss.draining && !ss.down)
            maybeDispatch(ss);
    }

    /** Completion message delivered on the control plane. */
    void
    completeBatch(unsigned idx, unsigned wid, std::uint64_t gen,
                  const Batch &batch)
    {
        ShardState &ss = *shards[idx];
        ClusterWorker &w = ss.workers[wid];
        if (gen != w.generation)
            return; // watchdog or crash already reclaimed the batch
        ss.lastFallbacksSeen =
            std::max(ss.lastFallbacksSeen, batch.fallbacksSeen);
        finishBatch(ss, w, batch);
    }

    void
    finishBatch(ShardState &ss, ClusterWorker &w, const Batch &batch)
    {
        disarmWatchdog(w);
        const Tick t = ctl().now();
        const unsigned idx = ss.index;
        router->addOutstanding(
            idx, -static_cast<std::int64_t>(batch.reqs.size()));
        for (const Request &r : batch.reqs) {
            if (r.hedge && r.hedge->resolved) {
                // The other copy already won; this one retires
                // normally (grants released) but counts nothing.
                ++res.hedgesLost;
                continue;
            }
            if (r.hedge) {
                r.hedge->resolved = true;
                cancelHedgeTimer(r);
                if (r.isHedge)
                    ++res.hedgesWon;
            }
            const double latency_ms = ticksToMs(t - r.arrival);
            if (measuring && r.arrival >= measureStart) {
                ++served;
                ++ss.served;
                latencyMs.add(latency_ms);
            }
            terminalComplete(r);
            if (cfg.sloMs > 0 && latency_ms <= cfg.sloMs)
                ++res.sloOkByClass[classIdx(r.cls)];
            resilience->noteCompleted();
            resilience->noteLatencySample(t - r.arrival);
            resilience->noteShardSuccess(idx);
            recorder.complete(idx, modelName(r.model), r.id, r.arrival,
                              r.dequeued, batch.exec, t);
            KRISP_TRACE_EVENT(trace, requestFlowEnd(r.id, tracePidServer,
                                                    idx));
        }
        w.busy = false;
        w.inFlight.reset();
        checkHealth(ss);
        if (!ss.draining && !ss.down)
            maybeDispatch(ss);
    }

    /**
     * Drain the shard when its fault budget is spent. Fallback
     * counts come from the completion-message snapshots, never from
     * the live shard counter: the control plane would otherwise
     * observe device-plane progress mid-window and the two engines
     * would disagree.
     */
    void
    checkHealth(ShardState &ss)
    {
        if (ss.draining || ss.down)
            return;
        if (ctl().now() < ss.graceUntil)
            return; // post-readmit grace: let it warm up
        const std::uint64_t fallbacks =
            ss.lastFallbacksSeen - ss.fallbackBaseline;
        const bool hang_storm =
            cfg.failoverHangThreshold > 0 &&
            ss.hungBatches >= cfg.failoverHangThreshold;
        const bool fallback_storm =
            fallbacks >= fallbackStormThreshold;
        if (!hang_storm && !fallback_storm)
            return;
        drainShard(ss, hang_storm ? "hang-storm" : "fallback-storm");
    }

    void
    drainShard(ShardState &ss, const char *why)
    {
        const unsigned idx = ss.index;
        ss.draining = true;
        router->setHealthy(idx, false);
        ++failovers;
        warn("draining shard ", idx, " (", why, "): ",
             ss.pending.size(), " queued requests re-routed");
        KRISP_TRACE_EVENT(trace, recovery("shard_drain",
                                          "shard" + std::to_string(idx),
                                          ss.pending.size()));
        // Move the backlog to healthy shards (or drop it if none
        // can take it); in-flight batches keep running here.
        std::deque<Request> backlog;
        backlog.swap(ss.pending);
        if (ss.batchTimer != invalidEventId) {
            ctl().deschedule(ss.batchTimer);
            ss.batchTimer = invalidEventId;
        }
        for (const Request &r : backlog) {
            router->addOutstanding(idx, -1);
            if (r.hedge && r.hedge->resolved)
                continue; // lazily purged copy: nothing to move
            const int target =
                router->route(modelName(r.model), r.id);
            if (target < 0) {
                if (resilience->config().enabled)
                    loseRequest(r, idx);
                else
                    dropRequest(&ss, r, "unrouted");
                continue;
            }
            if (enqueueOn(static_cast<unsigned>(target), r)) {
                ++rerouted;
                maybeDispatch(*shards[static_cast<unsigned>(target)]);
            }
        }
        if (cfg.drainNs > 0)
            ctl().scheduleIn(cfg.drainNs,
                             [this, &ss] { readmit(ss); });
    }

    void
    readmit(ShardState &ss)
    {
        if (ss.down)
            return; // crash superseded the drain; restart re-admits
        ss.hungBatches = 0;
        ss.fallbackBaseline = ss.lastFallbacksSeen;
        ss.draining = false;
        ss.graceUntil = ctl().now() + cfg.readmitGraceNs;
        const unsigned idx = ss.index;
        router->setHealthy(idx, true);
        ++readmits;
        KRISP_TRACE_EVENT(trace, recovery("shard_readmit",
                                          "shard" + std::to_string(idx),
                                          readmits));
        maybeDispatch(ss);
    }

    // ---- shard crash / warm restart ------------------------------

    void
    scheduleNextCrash(unsigned idx)
    {
        const double rate = cfg.faults.shardCrashRatePerSec;
        if (rate <= 0 || stopped)
            return;
        ShardState &ss = *shards[idx];
        const double gap_s =
            -std::log(1.0 - ss.crashRng.uniform()) / rate;
        ss.crashEv = ctl().scheduleIn(
            std::max<Tick>(ticksFromSec(gap_s), 1), [this, idx] {
                ShardState &s = *shards[idx];
                s.crashEv = invalidEventId;
                if (stopped)
                    return;
                if (!s.down)
                    crashShard(s);
                scheduleNextCrash(idx);
            });
    }

    /**
     * Kill shard @p ss outright: its queue and in-flight batches are
     * lost (re-routed under the retry budget when resilience is on),
     * its CU masks and stream state are invalidated, and a timed warm
     * restart rebuilds the whole KRISP stack. The dead stack moves to
     * the graveyard so already-scheduled simulated work (kernel
     * retirements, signal callbacks) still lands on live objects;
     * batch gates are stamped so device-plane launches become no-ops.
     * The rebuild itself runs on the device plane (the new stack
     * belongs to the shard's queue); the control plane re-admits the
     * shard readmitLagNs after that, so no dispatch can read a stack
     * that does not exist yet.
     */
    void
    crashShard(ShardState &ss)
    {
        const unsigned idx = ss.index;
        ++res.crashes;
        warn("shard ", idx, " crashed: ", ss.pending.size(),
             " queued and in-flight work lost");
        KRISP_TRACE_EVENT(trace, faultInject("shard_crash",
                                             "shard" + std::to_string(idx),
                                             1.0));
        ss.down = true;
        ss.draining = false;
        router->setHealthy(idx, false);
        if (ss.batchTimer != invalidEventId) {
            ctl().deschedule(ss.batchTimer);
            ss.batchTimer = invalidEventId;
        }

        std::vector<Request> lost;
        std::deque<Request> backlog;
        backlog.swap(ss.pending);
        for (const Request &r : backlog) {
            router->addOutstanding(idx, -1);
            lost.push_back(r);
        }
        for (auto &w : ss.workers) {
            disarmWatchdog(w);
            abandonBatch(w); // device-plane callbacks become no-ops
            if (w.busy) {
                ++failedBatches;
                if (w.inFlight) {
                    router->addOutstanding(
                        idx, -static_cast<std::int64_t>(
                                 w.inFlight->reqs.size()));
                    for (const Request &r : w.inFlight->reqs)
                        lost.push_back(r);
                    w.inFlight.reset();
                }
                w.busy = false;
            }
        }
        res.crashLostRequests += lost.size();
        resilience->noteShardFailure(idx, ctl().now());

        graveyard.push_back(
            DeadShard{idx, std::move(ss.obs), std::move(ss.shard)});
        for (const Request &r : lost)
            loseRequest(r, idx);

        if (!stopped) {
            const Tick restart_at =
                ctl().now() + cfg.faults.shardRestartNs;
            fab->post(0, 1 + idx, restart_at,
                      [this, idx] { rebuildShardStack(idx); });
            ctl().schedule(restart_at + readmitLagNs(),
                           [this, idx] {
                               if (!stopped)
                                   restartShard(*shards[idx]);
                           });
        }
    }

    /** Device-plane half of a warm restart: rebuild the KRISP stack
     *  (setupPartitionPolicy inside the GpuShard constructor) against
     *  the shard's own queue. */
    void
    rebuildShardStack(unsigned idx)
    {
        ShardState &ss = *shards[idx];
        ss.obs = makeMergeChild(obs);
        GpuShardConfig shard_cfg = shardCfgs[idx];
        shard_cfg.obs = ss.obs.get();
        ss.shard = std::make_unique<GpuShard>(shardQueue(idx),
                                              std::move(shard_cfg));
    }

    /** Control-plane half of a warm restart: re-admit the shard. */
    void
    restartShard(ShardState &ss)
    {
        const unsigned idx = ss.index;
        panic_if(ss.shard == nullptr,
                 "re-admitting shard ", idx,
                 " before its stack rebuild");
        for (auto &w : ss.workers) {
            w.busy = false;
            w.inFlight.reset();
            w.gate.reset();
        }
        ss.hungBatches = 0;
        ss.lastFallbacksSeen = 0;
        ss.fallbackBaseline = 0;
        ss.down = false;
        ss.draining = false;
        ss.graceUntil = ctl().now() + cfg.readmitGraceNs;
        router->setHealthy(idx, true);
        ++res.recoveries;
        KRISP_TRACE_EVENT(trace, recovery("shard_restart",
                                          "shard" + std::to_string(idx),
                                          res.recoveries));
        // Brownout may have moved while the shard was down. The new
        // stack has no in-flight work, so the direct write is safe:
        // nothing on the device plane reads the cap before the first
        // re-admitted dispatch.
        ss.shard->setGrantCapCus(effectiveCap(idx));
        maybeDispatch(ss);
    }

    // ---- brownout control ----------------------------------------

    void
    brownoutTick()
    {
        brownoutEv = invalidEventId;
        if (stopped)
            return;
        std::size_t depth = 0;
        for (const auto &ss : shards)
            depth += ss->pending.size();
        const BrownoutLevel before = resilience->brownout();
        resilience->noteQueueDepth(depth);
        const BrownoutLevel after = resilience->brownout();
        const unsigned cap = resilience->grantCapCus();
        if (cap != currentGrantCap) {
            currentGrantCap = cap;
            // Deliver as same-tick device-plane messages so the cap
            // lands between shard events in tick order — a direct
            // write would expose control-plane progress mid-window.
            // Each shard composes the brownout cap with its own
            // static placement cap.
            const Tick t = ctl().now();
            for (unsigned s = 0; s < shards.size(); ++s) {
                if (shards[s]->down)
                    continue;
                GpuShard *stack = shards[s]->shard.get();
                const unsigned eff = effectiveCap(s);
                fab->post(0, 1 + s, t,
                          [stack, eff] { stack->setGrantCapCus(eff); });
            }
        }
        if (after != before) {
            KRISP_TRACE_EVENT(trace,
                              recovery("brownout",
                                       brownoutLevelName(after),
                                       static_cast<std::uint64_t>(after)));
        }
        brownoutEv =
            ctl().scheduleIn(resilience->config().brownoutCheckNs,
                             [this] { brownoutTick(); });
    }
};

} // namespace

ClusterServer::ClusterServer(ClusterConfig config)
    : config_(std::move(config))
{
    fatal_if(config_.numShards == 0, "need at least one shard");
    fatal_if(config_.workersPerShard == 0,
             "need at least one worker per shard");
    fatal_if(config_.models.empty(), "need at least one model");
    fatal_if(config_.arrivalRatePerSec <= 0,
             "arrival rate must be positive");
    fatal_if(config_.maxBatch == 0, "max batch must be non-zero");
    fatal_if(config_.interactiveFraction < 0 ||
                 config_.interactiveFraction > 1,
             "interactive fraction must be in [0, 1]: ",
             config_.interactiveFraction);
    fatal_if(config_.sloMs < 0, "negative SLO bound");
    for (const auto &m : config_.models)
        fatal_if(!ModelZoo::isModel(m), "unknown model: ", m);
    fatal_if(!config_.modelHomes.empty() &&
                 config_.modelHomes.size() != config_.models.size(),
             "modelHomes must be empty or one entry per model");
    for (const auto &homes : config_.modelHomes)
        for (const unsigned s : homes)
            fatal_if(s >= config_.numShards,
                     "home shard out of range: ", s);
    fatal_if(!config_.shardGrantCapCus.empty() &&
                 config_.shardGrantCapCus.size() != config_.numShards,
             "shardGrantCapCus must be empty or one entry per shard");
    for (const unsigned cap : config_.shardGrantCapCus)
        fatal_if(cap > ArchParams::mi50().totalCus(),
                 "shard grant cap exceeds device CUs: ", cap);
}

ClusterResult
ClusterServer::run()
{
    ClusterState st;
    st.cfg = config_;
    // The only shard-to-control channel is batch completion, posted
    // postprocessNs after signal zero: that is the lookahead.
    st.fab = makeClusterFabric(config_.engine, config_.numShards,
                               config_.postprocessNs);
    st.rng = Rng(config_.seed);
    // Dedicated stream so the class sequence is identical whether or
    // not resilience is enabled (fair on/off comparisons) and never
    // perturbs the legacy arrival/model draws.
    st.classRng = Rng(config_.seed ^ 0xC1A55ULL);
    st.obs = config_.obs;
    st.hedging = config_.resilience.enabled &&
                 config_.resilience.hedging;
    if (st.obs != nullptr) {
        st.obs->trace.setClock(&st.ctl());
        st.trace = &st.obs->trace;
        MetricsRegistry &m = st.obs->metrics;
        st.droppedMetric = &m.counter("cluster.dropped");
        st.shedMetric = &m.counter("cluster.deadline_misses");
    }
    st.recorder = RequestRecorder(st.obs, true);

    st.canonicalModel.resize(config_.models.size());
    for (unsigned i = 0; i < config_.models.size(); ++i) {
        unsigned canon = i;
        for (unsigned j = 0; j < i; ++j)
            if (config_.models[j] == config_.models[i]) {
                canon = j;
                break;
            }
        st.canonicalModel[i] = canon;
    }

    st.router = std::make_unique<ClusterRouter>(config_.routing,
                                                config_.numShards);
    st.resilience = std::make_unique<ClusterResilience>(
        config_.resilience, config_.numShards);
    // Model homes. With config_.modelHomes empty, model m lives on
    // every shard s with s % models == m, so homes stay balanced for
    // any shard count; an explicit modelHomes (placement search
    // output) overrides that scheme. Under affinity routing only the
    // home set is profiled/resident; otherwise every shard profiles
    // every model. A shard left with no homed model stays a
    // full-resident overflow target.
    const bool affinity =
        config_.routing == RoutingPolicy::ModelAffinity;
    std::vector<std::vector<std::string>> homed(config_.numShards);
    if (config_.modelHomes.empty()) {
        for (unsigned s = 0; s < config_.numShards; ++s)
            homed[s].push_back(
                config_.models[s % config_.models.size()]);
    } else {
        for (unsigned m = 0; m < config_.modelHomes.size(); ++m)
            for (const unsigned s : config_.modelHomes[m]) {
                // Duplicate model entries (traffic weighting) may
                // home the same name twice; keep one copy.
                if (std::find(homed[s].begin(), homed[s].end(),
                              config_.models[m]) == homed[s].end())
                    homed[s].push_back(config_.models[m]);
            }
    }
    for (unsigned s = 0; s < config_.numShards; ++s) {
        for (const std::string &model : homed[s])
            st.router->addHomeShard(model, s);

        GpuShardConfig shard_cfg;
        shard_cfg.index = s;
        shard_cfg.policy = config_.policy;
        shard_cfg.enforcement = config_.enforcement;
        shard_cfg.numWorkers = config_.workersPerShard;
        shard_cfg.maxBatch = config_.maxBatch;
        shard_cfg.models = affinity && !homed[s].empty()
                               ? homed[s]
                               : config_.models;
        shard_cfg.faults = config_.faults.forShard(s);
        shard_cfg.reconfig = config_.reconfig;
        st.shardCfgs.push_back(shard_cfg);

        auto ss = std::make_unique<ShardState>();
        ss->index = s;
        // Each shard stack lives on its own device-plane queue.
        ss->obs = makeMergeChild(st.obs);
        shard_cfg.obs = ss->obs.get();
        ss->shard = std::make_unique<GpuShard>(
            st.shardQueue(s), std::move(shard_cfg));
        // Static placement cap, installed before any event runs (no
        // in-flight work yet, so the direct write is safe).
        if (!config_.shardGrantCapCus.empty() &&
            config_.shardGrantCapCus[s] != 0)
            ss->shard->setGrantCapCus(config_.shardGrantCapCus[s]);
        // Crash gaps draw from the shard-derived fault seed: the
        // schedule depends only on (plan seed, shard index).
        ss->crashRng =
            Rng(st.shardCfgs.back().faults.seed ^ 0xC4A54ULL);
        ss->workers.resize(config_.workersPerShard);
        for (unsigned w = 0; w < config_.workersPerShard; ++w)
            ss->workers[w].id = w;
        st.shards.push_back(std::move(ss));
    }

    // Fixed-tick energy sampling on the device plane: each shard
    // reads its own integrator at warmupNs and warmupNs + measureNs,
    // so the reading never depends on how far another plane has run.
    st.energyStartShard.assign(config_.numShards, 0.0);
    st.energyEndShard.assign(config_.numShards, 0.0);
    st.energyEndSampled.assign(config_.numShards, 0);
    {
        ClusterState *stp = &st;
        for (unsigned s = 0; s < config_.numShards; ++s) {
            st.shardQueue(s).schedule(config_.warmupNs, [stp, s] {
                stp->energyStartShard[s] = stp->shardEnergy(s);
            });
            st.shardQueue(s).schedule(
                config_.warmupNs + config_.measureNs, [stp, s] {
                    stp->energyEndShard[s] = stp->shardEnergy(s);
                    stp->energyEndSampled[s] = 1;
                });
        }
    }

    st.arrive();
    if (config_.resilience.enabled)
        st.brownoutTick();
    if (config_.faults.shardCrashRatePerSec > 0)
        for (unsigned s = 0; s < config_.numShards; ++s)
            st.scheduleNextCrash(s);
    st.fab->run(config_.maxSimNs);

    ClusterResult result;
    result.engine = st.fab->stats();
    result.engine.eventsFired = st.fab->firedTotal();
    if (st.fab->pendingEvents() > 0) {
        warn("cluster run hit the maxSimNs cap (",
             ticksToSec(config_.maxSimNs),
             " s) with work still in flight; results cover a "
             "truncated window");
        result.timedOut = true;
    }
    fatal_if(!st.measuring, "no measurement window reached");
    const Tick final_tick = st.fab->finalTick();
    if (st.measureEnd == 0)
        st.measureEnd = final_tick;
    double energy_start = 0;
    for (const double j : st.energyStartShard)
        energy_start += j;
    bool end_sampled = true;
    for (const char s : st.energyEndSampled)
        end_sampled = end_sampled && s != 0;
    double energy_end = 0;
    if (end_sampled) {
        for (const double j : st.energyEndShard)
            energy_end += j;
    } else {
        // Truncated before the fixed end tick: read the integrators
        // now. Single-threaded, and every LP clock has settled at
        // its own final event in either engine.
        energy_end = st.totalEnergy();
    }

    const double seconds =
        ticksToSec(st.measureEnd - st.measureStart);
    result.offeredRps = config_.arrivalRatePerSec;
    result.arrivals = st.arrivals;
    result.served = st.served;
    result.dropped = st.dropped;
    result.shedDeadline = st.shedDeadline;
    result.failedBatches = st.failedBatches;
    result.failovers = st.failovers;
    result.rerouted = st.rerouted;
    result.readmits = st.readmits;
    result.routingDecisions = st.router->decisions();
    result.routingHash = st.router->decisionHash();
    result.achievedRps =
        seconds > 0 ? static_cast<double>(st.served) / seconds : 0;
    const std::uint64_t admitted_or_dropped =
        st.arrivals + st.dropped;
    result.dropRate =
        admitted_or_dropped > 0
            ? static_cast<double>(st.dropped) /
                  static_cast<double>(admitted_or_dropped)
            : 0;
    result.shedRate =
        st.arrivals > 0 ? static_cast<double>(st.shedDeadline) /
                              static_cast<double>(st.arrivals)
                        : 0;
    result.meanBatchSize = st.batchSizes.mean();
    const LatencySummary lat = LatencySummary::from(st.latencyMs);
    result.p50Ms = lat.p50Ms;
    result.p95Ms = lat.p95Ms;
    result.p99Ms = lat.p99Ms;
    result.energyPerRequestJ =
        st.served > 0 ? (energy_end - energy_start) /
                            static_cast<double>(st.served)
                      : 0;
    for (const auto &ss : st.shards)
        result.servedPerShard.push_back(ss->served);

    // ---- resilience accounting (whole run) ----------------------
    st.res.inFlight = st.live;
    st.res.brownoutEnters = st.resilience->brownoutEnters();
    st.res.breakerOpens = st.resilience->breakerOpens();
    for (const auto &ss : st.shards)
        if (ss->shard != nullptr && ss->shard->krisp() != nullptr)
            st.res.cappedGrants +=
                ss->shard->krisp()->stats().cappedGrants;
    for (const DeadShard &dead : st.graveyard)
        if (dead.shard->krisp() != nullptr)
            st.res.cappedGrants +=
                dead.shard->krisp()->stats().cappedGrants;
    result.resilience = st.res;
    const std::uint64_t avail_denom =
        st.res.completed + st.res.dropped + st.res.failed;
    result.availability =
        avail_denom > 0 ? static_cast<double>(st.res.completed) /
                              static_cast<double>(avail_denom)
                        : 1.0;
    for (std::size_t c = 0; c < numPriorityClasses; ++c)
        result.sloAttainment[c] =
            st.res.injectedByClass[c] > 0
                ? static_cast<double>(st.res.sloOkByClass[c]) /
                      static_cast<double>(st.res.injectedByClass[c])
                : 0;
    for (const auto &ss : st.shards)
        if (ss->shard != nullptr)
            result.allocatorsPristine =
                result.allocatorsPristine &&
                ss->shard->allocatorPristine();
    if (st.res.conservationDelta() != 0)
        warn("request conservation violated: delta = ",
             st.res.conservationDelta(), " (injected ",
             st.res.injected, ", completed ", st.res.completed,
             ", shed ", st.res.shed, ", dropped ", st.res.dropped,
             ", failed ", st.res.failed, ", in flight ",
             st.res.inFlight, ")");

    if (st.obs != nullptr) {
        MetricsRegistry &m = st.obs->metrics;
        // Graveyard first: zombie counters sum into the shard prefix
        // and the restarted shard's gauges/labels overwrite after.
        // Shard timelines carry the device-side signals (CU
        // occupancy, watts, protocol counts) and overlay the cluster
        // timeline, which holds the request feed.
        for (DeadShard &dead : st.graveyard)
            st.mergeShardObs(dead.index, *dead.obs, *dead.shard,
                             final_tick);
        for (unsigned s = 0; s < st.shards.size(); ++s) {
            ShardState &ss = *st.shards[s];
            if (ss.shard == nullptr)
                continue; // crashed and never restarted
            st.mergeShardObs(s, *ss.obs, *ss.shard, final_tick);
            m.gauge("cluster.shard" + std::to_string(s) + ".served")
                .set(static_cast<double>(ss.served));
        }
        st.obs->timeline.finish(final_tick);
        publishObsHealth(*st.obs);
        // Fabric-wide event accounting (the multi-queue analogue of
        // snapshotEventQueue): identical sums under either engine,
        // because both execute the same events and messages.
        m.gauge("sim.events_scheduled")
            .set(static_cast<double>(st.fab->scheduledTotal()));
        m.gauge("sim.events_fired")
            .set(static_cast<double>(st.fab->firedTotal()));
        m.gauge("sim.events_cancelled")
            .set(static_cast<double>(st.fab->cancelledTotal()));
        m.gauge("sim.final_tick_ns")
            .set(static_cast<double>(final_tick));
        m.label("cluster.routing")
            .set(routingPolicyName(config_.routing));
        m.label("cluster.policy")
            .set(partitionPolicyName(config_.policy));
        m.gauge("cluster.shards")
            .set(static_cast<double>(config_.numShards));
        m.gauge("cluster.offered_rps").set(result.offeredRps);
        m.gauge("cluster.achieved_rps").set(result.achievedRps);
        m.gauge("cluster.drop_rate").set(result.dropRate);
        m.gauge("cluster.requests_served")
            .set(static_cast<double>(result.served));
        m.gauge("cluster.failed_batches")
            .set(static_cast<double>(result.failedBatches));
        m.gauge("cluster.failovers")
            .set(static_cast<double>(result.failovers));
        m.gauge("cluster.rerouted")
            .set(static_cast<double>(result.rerouted));
        m.gauge("cluster.readmits")
            .set(static_cast<double>(result.readmits));
        m.gauge("cluster.routing_decisions")
            .set(static_cast<double>(result.routingDecisions));
        // 64-bit hash: a double gauge would round it, so publish the
        // exact value as a hex label.
        m.label("cluster.routing_hash")
            .set(fnvHex(result.routingHash));
        m.gauge("sim.timed_out").set(result.timedOut ? 1.0 : 0.0);

        // ---- cluster.resilience.* -------------------------------
        const ResilienceStats &r = st.res;
        auto rg = [&m](const char *name, std::uint64_t v) {
            m.gauge(std::string("cluster.resilience.") + name)
                .set(static_cast<double>(v));
        };
        m.gauge("cluster.resilience.enabled")
            .set(config_.resilience.enabled ? 1.0 : 0.0);
        rg("injected", r.injected);
        rg("completed", r.completed);
        rg("shed", r.shed);
        rg("dropped", r.dropped);
        rg("failed", r.failed);
        rg("in_flight", r.inFlight);
        m.gauge("cluster.resilience.conservation_delta")
            .set(static_cast<double>(r.conservationDelta()));
        rg("retries", r.retries);
        rg("retries_denied", r.retriesDenied);
        rg("hedges", r.hedges);
        rg("hedges_won", r.hedgesWon);
        rg("hedges_lost", r.hedgesLost);
        rg("crashes", r.crashes);
        rg("recoveries", r.recoveries);
        rg("crash_lost_requests", r.crashLostRequests);
        rg("breaker_opens", r.breakerOpens);
        rg("brownout_enters", r.brownoutEnters);
        rg("capped_grants", r.cappedGrants);
        rg("injected_interactive", r.injectedByClass[0]);
        rg("injected_batch", r.injectedByClass[1]);
        rg("completed_interactive", r.completedByClass[0]);
        rg("completed_batch", r.completedByClass[1]);
        rg("shed_interactive", r.shedByClass[0]);
        rg("shed_batch", r.shedByClass[1]);
        rg("slo_ok_interactive", r.sloOkByClass[0]);
        rg("slo_ok_batch", r.sloOkByClass[1]);
        m.gauge("cluster.resilience.availability")
            .set(result.availability);
        m.gauge("cluster.resilience.allocators_pristine")
            .set(result.allocatorsPristine ? 1.0 : 0.0);
        m.label("cluster.resilience.brownout")
            .set(brownoutLevelName(st.resilience->brownout()));
    }
    // The sink outlives this run's queues: unbind its clock.
    if (st.obs != nullptr)
        st.obs->trace.setClock(nullptr);
    return result;
}

} // namespace krisp
