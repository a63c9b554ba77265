#include "server/llm_engine.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "server/dynamic_batcher.hh"
#include "sim/event_queue.hh"

namespace krisp
{

const char *
llmSchedulerName(LlmScheduler s)
{
    switch (s) {
    case LlmScheduler::Static:
        return "static";
    case LlmScheduler::Continuous:
        return "continuous";
    }
    panic("bad scheduler");
}

namespace
{

/** Partial-batch timeout of the static scheduler. */
constexpr Tick staticBatchTimeoutNs = 2'000'000;

/** One in-flight request and the life of its KV cache. */
struct LlmReq
{
    std::uint64_t id = 0;
    Tick arrival = 0;
    unsigned promptLen = 0;
    unsigned outputLen = 0;
    /**
     * Tokens currently held in the KV cache. Grows by a chunk per
     * prefill step and by one per decode step; the invariant
     * kvTokens == promptLen + generated holds from the moment prefill
     * completes until the cache is freed or preempted away.
     */
    unsigned kvTokens = 0;
    /** Output tokens emitted so far (survives preemption). */
    unsigned generated = 0;
    Tick firstTokenAt = 0;
    Tick lastTokenAt = 0;
    /** Arrived inside the measurement window. */
    bool counted = false;

    /** Prefill rebuilds prompt AND already-emitted tokens. */
    unsigned
    prefillTarget() const
    {
        return promptLen + generated;
    }

    bool
    prefillDone() const
    {
        return kvTokens >= prefillTarget();
    }

    bool
    finished() const
    {
        return generated >= outputLen;
    }
};

using LlmReqPtr = std::shared_ptr<LlmReq>;

struct Shard
{
    std::unique_ptr<GpuShard> gpu;

    // Continuous scheduler: admission queue, the single chunked
    // prefill slot, and the running decode batch.
    std::deque<LlmReqPtr> waiting;
    LlmReqPtr prefill;
    std::vector<LlmReqPtr> running;

    // Static scheduler: the batcher groups arrivals; one batch at a
    // time prefills member-by-member, then decodes in lock-step.
    std::unique_ptr<DynamicBatcher> batcher;
    std::map<std::uint64_t, LlmReqPtr> staticPending;
    std::vector<LlmReqPtr> batch;
    std::size_t prefillIdx = 0;

    bool stepInFlight = false;

    // Exact KV ledger, fatal-checked on every transition.
    std::uint64_t kvActive = 0;
    std::uint64_t kvAllocCum = 0;
    std::uint64_t kvFreedCum = 0;
    std::uint64_t kvPeak = 0;

    std::size_t
    load() const
    {
        std::size_t n = waiting.size() + running.size() +
                        batch.size() + staticPending.size();
        if (prefill)
            ++n;
        return n;
    }
};

struct Engine
{
    LlmEngineConfig cfg;
    EventQueue eq;
    std::vector<std::unique_ptr<Shard>> shards;
    Rng arrivalRng{1};
    Rng lenRng{2};
    std::uint64_t kvPerToken = 0;
    std::uint64_t kvBudget = 0;
    std::uint64_t nextRequestId = 0;

    bool measuring = false;
    bool stopped = false;
    Tick measureStart = 0;
    Tick measureEnd = 0;

    std::uint64_t arrivals = 0;
    std::uint64_t served = 0;
    std::uint64_t dropped = 0;
    std::uint64_t good = 0;
    std::uint64_t tokens = 0;
    std::uint64_t decodeSteps = 0;
    std::uint64_t prefillChunks = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t recomputedTokens = 0;
    Accumulator decodeBatch;
    PercentileTracker ttftMs;
    PercentileTracker itlMs;
    PercentileTracker e2eMs;

    ObsContext *obs = nullptr;
    PercentileTracker *obsTtftMs = nullptr;
    PercentileTracker *obsItlMs = nullptr;
    PercentileTracker *obsE2eMs = nullptr;
    Counter *obsDropped = nullptr;
    Counter *obsPreemptions = nullptr;

    // ---- KV ledger ----------------------------------------------

    void
    kvCheck(const Shard &sh) const
    {
        fatal_if(sh.kvAllocCum != sh.kvActive + sh.kvFreedCum,
                 "KV conservation violated: allocated ",
                 sh.kvAllocCum, " != active ", sh.kvActive,
                 " + freed ", sh.kvFreedCum);
    }

    void
    kvAlloc(Shard &sh, std::uint64_t bytes)
    {
        sh.kvActive += bytes;
        sh.kvAllocCum += bytes;
        fatal_if(sh.kvActive > kvBudget, "KV budget exceeded: ",
                 sh.kvActive, " > ", kvBudget);
        sh.kvPeak = std::max(sh.kvPeak, sh.kvActive);
        kvCheck(sh);
    }

    void
    kvFree(Shard &sh, std::uint64_t bytes)
    {
        fatal_if(bytes > sh.kvActive, "KV double free: ", bytes,
                 " > active ", sh.kvActive);
        sh.kvActive -= bytes;
        sh.kvFreedCum += bytes;
        kvCheck(sh);
    }

    // ---- arrivals -----------------------------------------------

    Shard &
    pickShard()
    {
        // Deterministic least-loaded routing, ties to the lowest
        // index.
        Shard *best = shards.front().get();
        for (auto &sh : shards)
            if (sh->load() < best->load())
                best = sh.get();
        return *best;
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
        }
        if (measuring && t >= cfg.warmupNs + cfg.measureNs) {
            stopped = true;
            measureEnd = t;
            return; // stop injecting; in-flight work drains
        }
        auto req = std::make_shared<LlmReq>();
        req->id = ++nextRequestId;
        req->arrival = t;
        req->promptLen = static_cast<unsigned>(lenRng.between(
            cfg.promptMinTokens, cfg.promptMaxTokens));
        req->outputLen = static_cast<unsigned>(lenRng.between(
            cfg.outputMinTokens, cfg.outputMaxTokens));
        req->counted = measuring;
        if (measuring)
            ++arrivals;

        Shard &sh = pickShard();
        if (cfg.scheduler == LlmScheduler::Continuous) {
            if (sh.waiting.size() >= cfg.queueCapacity) {
                drop(*req);
            } else {
                sh.waiting.push_back(req);
                assemble(sh);
            }
        } else {
            if (sh.batcher->add(
                    BatchRequest{req->id, req->arrival, 0})) {
                sh.staticPending.emplace(req->id, req);
            } else {
                drop(*req);
            }
        }

        const double gap_s = -std::log(1.0 - arrivalRng.uniform()) /
                             cfg.arrivalRatePerSec;
        eq.scheduleIn(std::max<Tick>(ticksFromSec(gap_s), 1),
                      [this] { arrive(); });
    }

    void
    drop(const LlmReq &req)
    {
        if (req.counted)
            ++dropped;
        if (obsDropped != nullptr)
            obsDropped->inc();
        if (obs != nullptr)
            obs->timeline.recordDrop(eq.now());
    }

    // ---- shared launch + token bookkeeping ----------------------

    /** Launch @p seqs as one group; @p done runs at completion. */
    void
    launchStep(Shard &sh,
               const std::vector<const std::vector<KernelDescPtr> *>
                   &seqs,
               std::function<void()> done)
    {
        std::size_t total = 0;
        for (const auto *seq : seqs)
            total += seq->size();
        panic_if(total == 0, "empty engine step");
        sh.stepInFlight = true;
        auto sig =
            HsaSignal::create(static_cast<std::int64_t>(total));
        sig->waitZero(std::move(done));
        for (const auto *seq : seqs)
            sh.gpu->launch(0, *seq, sig);
    }

    /** One decode token landed for @p r at now. */
    void
    emitToken(LlmReq &r)
    {
        const Tick t = eq.now();
        ++r.generated;
        if (r.counted)
            ++tokens;
        if (r.firstTokenAt == 0) {
            r.firstTokenAt = t;
            if (r.counted) {
                const double ms = ticksToMs(t - r.arrival);
                ttftMs.add(ms);
                if (obsTtftMs != nullptr)
                    obsTtftMs->add(ms);
            }
        } else if (r.counted) {
            const double ms = ticksToMs(t - r.lastTokenAt);
            itlMs.add(ms);
            if (obsItlMs != nullptr)
                obsItlMs->add(ms);
        }
        r.lastTokenAt = t;
        if (r.finished())
            recordFinished(r);
    }

    /** Final token emitted (KV may outlive this in static mode). */
    void
    recordFinished(LlmReq &r)
    {
        const double ms = ticksToMs(eq.now() - r.arrival);
        if (r.counted) {
            ++served;
            e2eMs.add(ms);
            if (eq.now() - r.arrival <= cfg.e2eSloNs)
                ++good;
        }
        if (obsE2eMs != nullptr)
            obsE2eMs->add(ms);
        if (obs != nullptr)
            obs->timeline.recordRequest(eq.now(), ms);
    }

    // ---- continuous scheduler -----------------------------------

    void
    preemptNewest(Shard &sh)
    {
        panic_if(sh.running.empty(), "preempt with nothing running");
        LlmReqPtr victim = sh.running.back();
        sh.running.pop_back();
        kvFree(sh, std::uint64_t(victim->kvTokens) * kvPerToken);
        recomputedTokens += victim->kvTokens;
        victim->kvTokens = 0;
        ++preemptions;
        if (obsPreemptions != nullptr)
            obsPreemptions->inc();
        // Readmit at the head: the victim already consumed budget
        // and emitted tokens; starving it behind fresh arrivals
        // would livelock under sustained pressure.
        sh.waiting.push_front(victim);
    }

    void
    promoteIfReady(Shard &sh)
    {
        if (sh.prefill && sh.prefill->prefillDone() &&
            sh.running.size() < cfg.maxDecodeBatch) {
            sh.running.push_back(sh.prefill);
            sh.prefill = nullptr;
        }
    }

    void
    assemble(Shard &sh)
    {
        if (sh.stepInFlight)
            return;
        promoteIfReady(sh);
        if (!sh.prefill && sh.running.size() < cfg.maxDecodeBatch &&
            !sh.waiting.empty()) {
            // Admission control (vLLM-style): a waiting request
            // enters the prefill slot only if its first chunk fits
            // the budget that is free right now. Preempting runners
            // to admit fresh work instead would thrash under
            // pressure — admit, preempt, readmit — with every cycle
            // burning a recompute and nobody finishing. Preemption
            // below is reserved for the growth of requests that are
            // already in.
            const LlmReqPtr &cand = sh.waiting.front();
            const unsigned first =
                std::min(cfg.prefillChunkTokens,
                         cand->prefillTarget() - cand->kvTokens);
            if (sh.kvActive +
                    (std::uint64_t(first) + sh.running.size()) *
                        kvPerToken <=
                kvBudget) {
                sh.prefill = cand;
                sh.waiting.pop_front();
            }
        }
        unsigned chunk = 0;
        if (sh.prefill)
            chunk = std::min(cfg.prefillChunkTokens,
                             sh.prefill->prefillTarget() -
                                 sh.prefill->kvTokens);
        if (chunk == 0 && sh.running.empty())
            return; // idle; the next arrival or completion re-arms

        // Make the step's KV fit, shrinking the decode batch from
        // the newest member (recompute preemption) when it does not.
        auto need = [&] {
            return (std::uint64_t(chunk) + sh.running.size()) *
                   kvPerToken;
        };
        while (sh.kvActive + need() > kvBudget &&
               !sh.running.empty())
            preemptNewest(sh);
        fatal_if(sh.kvActive + need() > kvBudget,
                 "KV budget cannot hold one request's next step");
        kvAlloc(sh, need());

        std::vector<const std::vector<KernelDescPtr> *> seqs;
        if (chunk != 0) {
            seqs.push_back(&sh.gpu->zoo().llmPrefillKernels(
                cfg.model, chunk, sh.prefill->kvTokens));
            sh.prefill->kvTokens += chunk;
        }
        const auto decoded = sh.running; // membership at launch
        if (!decoded.empty()) {
            unsigned ctx = 0;
            for (const auto &r : decoded) {
                r->kvTokens += 1;
                ctx = std::max(ctx, r->kvTokens);
            }
            seqs.push_back(&sh.gpu->zoo().llmDecodeKernels(
                cfg.model, static_cast<unsigned>(decoded.size()),
                ctx));
        }

        launchStep(sh, seqs, [this, &sh, chunk, decoded] {
            sh.stepInFlight = false;
            if (chunk != 0)
                ++prefillChunks;
            if (!decoded.empty()) {
                ++decodeSteps;
                if (measuring)
                    decodeBatch.add(
                        static_cast<double>(decoded.size()));
                for (const auto &r : decoded)
                    emitToken(*r);
                // Retire finished members and release their caches.
                for (auto it = sh.running.begin();
                     it != sh.running.end();) {
                    if ((*it)->finished()) {
                        kvFree(sh, std::uint64_t((*it)->kvTokens) *
                                       kvPerToken);
                        it = sh.running.erase(it);
                    } else {
                        ++it;
                    }
                }
            }
            assemble(sh);
        });
    }

    // ---- static scheduler ---------------------------------------

    void
    startStaticBatch(Shard &sh, std::vector<BatchRequest> &&reqs)
    {
        panic_if(!sh.batch.empty() || sh.stepInFlight,
                 "static dispatch while a batch is in flight");
        sh.batch.reserve(reqs.size());
        for (const BatchRequest &br : reqs) {
            auto it = sh.staticPending.find(br.id);
            panic_if(it == sh.staticPending.end(),
                     "dispatched unknown request ", br.id);
            sh.batch.push_back(it->second);
            sh.staticPending.erase(it);
        }
        sh.prefillIdx = 0;
        staticStep(sh);
    }

    void
    staticStep(Shard &sh)
    {
        // Phase 1: prefill the members one chunk at a time.
        if (sh.prefillIdx < sh.batch.size()) {
            LlmReqPtr r = sh.batch[sh.prefillIdx];
            const unsigned chunk =
                std::min(cfg.prefillChunkTokens,
                         r->prefillTarget() - r->kvTokens);
            kvAlloc(sh, std::uint64_t(chunk) * kvPerToken);
            const auto *seq = &sh.gpu->zoo().llmPrefillKernels(
                cfg.model, chunk, r->kvTokens);
            r->kvTokens += chunk;
            launchStep(sh, {seq}, [this, &sh, r] {
                sh.stepInFlight = false;
                ++prefillChunks;
                if (r->prefillDone())
                    ++sh.prefillIdx;
                staticStep(sh);
            });
            return;
        }

        // Phase 2: decode in lock-step. Finished members pad the
        // batch (their slots are the waste continuous batching
        // reclaims) and hold their KV until the batch retires.
        std::vector<LlmReqPtr> active;
        for (const auto &r : sh.batch)
            if (!r->finished())
                active.push_back(r);
        if (active.empty()) {
            for (const auto &r : sh.batch)
                kvFree(sh,
                       std::uint64_t(r->kvTokens) * kvPerToken);
            sh.batch.clear();
            sh.batcher->pump();
            return;
        }
        kvAlloc(sh, std::uint64_t(active.size()) * kvPerToken);
        unsigned ctx = 0;
        for (const auto &r : active) {
            r->kvTokens += 1;
            ctx = std::max(ctx, r->kvTokens);
        }
        const auto *seq = &sh.gpu->zoo().llmDecodeKernels(
            cfg.model, static_cast<unsigned>(sh.batch.size()), ctx);
        launchStep(sh, {seq}, [this, &sh, active] {
            sh.stepInFlight = false;
            ++decodeSteps;
            if (measuring)
                decodeBatch.add(static_cast<double>(active.size()));
            for (const auto &r : active)
                emitToken(*r);
            staticStep(sh);
        });
    }
};

} // namespace

LlmEngine::LlmEngine(LlmEngineConfig config)
    : config_(std::move(config))
{
    fatal_if(!ModelZoo::isLlm(config_.model),
             "not an LLM model: ", config_.model);
    const LlmParams &p = ModelZoo::llmInfo(config_.model);
    fatal_if(config_.numShards == 0, "need at least one shard");
    fatal_if(config_.maxDecodeBatch == 0,
             "decode batch must be non-zero");
    fatal_if(config_.prefillChunkTokens == 0,
             "prefill chunk must be non-zero");
    fatal_if(config_.queueCapacity == 0,
             "queue capacity must be non-zero");
    fatal_if(config_.arrivalRatePerSec <= 0,
             "arrival rate must be positive");
    fatal_if(config_.measureNs == 0, "empty measurement window");
    fatal_if(config_.promptMinTokens == 0 ||
                 config_.promptMinTokens > config_.promptMaxTokens,
             "bad prompt length range");
    fatal_if(config_.outputMinTokens == 0 ||
                 config_.outputMinTokens > config_.outputMaxTokens,
             "bad output length range");
    const unsigned max_tokens =
        config_.promptMaxTokens + config_.outputMaxTokens;
    fatal_if(max_tokens > p.maxContext, "prompt ",
             config_.promptMaxTokens, " + output ",
             config_.outputMaxTokens, " exceeds ", p.name,
             " max context ", p.maxContext);
    const double per_req =
        static_cast<double>(max_tokens) * p.kvBytesPerToken();
    fatal_if(config_.kvBudgetBytes < per_req,
             "KV budget cannot hold one maximal request (needs ",
             per_req, " bytes)");
    // Static batching cannot shrink a batch under pressure, so the
    // worst-case whole batch must fit outright.
    fatal_if(config_.scheduler == LlmScheduler::Static &&
                 config_.kvBudgetBytes <
                     per_req * config_.maxDecodeBatch,
             "static scheduler KV budget cannot hold a full batch");
}

LlmResult
LlmEngine::run()
{
    Engine st;
    st.cfg = config_;
    Rng root(config_.seed);
    st.arrivalRng = root.fork();
    st.lenRng = root.fork();
    st.kvPerToken = static_cast<std::uint64_t>(
        ModelZoo::llmInfo(config_.model).kvBytesPerToken());
    st.kvBudget =
        static_cast<std::uint64_t>(config_.kvBudgetBytes);
    st.obs = config_.obs;
    if (st.obs != nullptr) {
        st.obs->trace.setClock(&st.eq);
        MetricsRegistry &m = st.obs->metrics;
        st.obsTtftMs = &m.percentiles("server.llm.ttft_ms");
        st.obsItlMs = &m.percentiles("server.llm.itl_ms");
        st.obsE2eMs = &m.percentiles("server.llm.e2e_ms");
        st.obsDropped = &m.counter("server.llm.dropped");
        st.obsPreemptions = &m.counter("server.llm.preemptions");
    }

    for (unsigned i = 0; i < config_.numShards; ++i) {
        auto sh = std::make_unique<Shard>();
        GpuShardConfig scfg;
        scfg.index = i;
        scfg.policy = config_.policy;
        scfg.enforcement = config_.enforcement;
        scfg.numWorkers = 1;
        scfg.maxBatch = 1; // CNN path unused by LLM residents
        scfg.llmMaxDecodeBatch = config_.maxDecodeBatch;
        scfg.llmPrefillChunkTokens = config_.prefillChunkTokens;
        scfg.models = {config_.model};
        scfg.reconfig = config_.reconfig;
        sh->gpu = std::make_unique<GpuShard>(st.eq, std::move(scfg));
        if (config_.scheduler == LlmScheduler::Static) {
            Shard *shp = sh.get();
            DynamicBatcherConfig bcfg;
            bcfg.maxBatch = config_.maxDecodeBatch;
            bcfg.queueCapacity = config_.queueCapacity;
            bcfg.batchTimeoutNs = staticBatchTimeoutNs;
            sh->batcher = std::make_unique<DynamicBatcher>(
                st.eq, bcfg,
                [shp] {
                    return shp->batch.empty() && !shp->stepInFlight;
                },
                [&st, shp](std::vector<BatchRequest> &&reqs) {
                    st.startStaticBatch(*shp, std::move(reqs));
                });
        }
        st.shards.push_back(std::move(sh));
    }

    st.arrive();
    st.eq.run(config_.maxSimNs);

    LlmResult result;
    if (st.eq.pendingCount() > 0) {
        warn("LLM run hit the maxSimNs cap (",
             ticksToSec(config_.maxSimNs),
             " s) with work still in flight; results cover a "
             "truncated window");
        result.timedOut = true;
    }
    fatal_if(!st.measuring, "no measurement window reached");
    if (st.measureEnd == 0)
        st.measureEnd = st.eq.now();

    for (const auto &sh : st.shards) {
        st.kvCheck(*sh);
        result.kvPeakBytes =
            std::max(result.kvPeakBytes, sh->kvPeak);
        result.kvAllocatedCum += sh->kvAllocCum;
        result.kvFreedCum += sh->kvFreedCum;
        result.kvLeakBytes += sh->kvActive;
    }
    fatal_if(!result.timedOut && result.kvLeakBytes != 0,
             "KV cache leaked ", result.kvLeakBytes,
             " bytes after a clean drain");

    const double seconds =
        ticksToSec(st.measureEnd - st.measureStart);
    result.offeredRps = config_.arrivalRatePerSec;
    result.arrivals = st.arrivals;
    result.served = st.served;
    result.dropped = st.dropped;
    result.good = st.good;
    result.tokens = st.tokens;
    result.servedRps =
        seconds > 0 ? static_cast<double>(st.served) / seconds : 0;
    result.goodputRps =
        seconds > 0 ? static_cast<double>(st.good) / seconds : 0;
    result.tokensPerSec =
        seconds > 0 ? static_cast<double>(st.tokens) / seconds : 0;
    if (st.ttftMs.count() > 0) {
        result.ttftP50Ms = st.ttftMs.percentile(0.50);
        result.ttftP99Ms = st.ttftMs.percentile(0.99);
    }
    if (st.itlMs.count() > 0) {
        result.itlP50Ms = st.itlMs.percentile(0.50);
        result.itlP99Ms = st.itlMs.percentile(0.99);
    }
    if (st.e2eMs.count() > 0) {
        result.e2eP50Ms = st.e2eMs.percentile(0.50);
        result.e2eP99Ms = st.e2eMs.percentile(0.99);
    }
    result.meanDecodeBatch = st.decodeBatch.mean();
    result.decodeSteps = st.decodeSteps;
    result.prefillChunks = st.prefillChunks;
    result.preemptions = st.preemptions;
    result.recomputedTokens = st.recomputedTokens;

    if (st.obs != nullptr) {
        MetricsRegistry &m = st.obs->metrics;
        m.label("server.llm.model").set(config_.model);
        m.label("server.llm.scheduler")
            .set(llmSchedulerName(config_.scheduler));
        m.gauge("server.llm.shards")
            .set(static_cast<double>(config_.numShards));
        m.gauge("server.llm.offered_rps").set(result.offeredRps);
        m.gauge("server.llm.served_rps").set(result.servedRps);
        m.gauge("server.llm.goodput_rps").set(result.goodputRps);
        m.gauge("server.llm.tokens_per_sec")
            .set(result.tokensPerSec);
        m.gauge("server.llm.mean_decode_batch")
            .set(result.meanDecodeBatch);
        m.gauge("server.llm.kv_peak_bytes")
            .set(static_cast<double>(result.kvPeakBytes));
        m.gauge("server.llm.decode_steps")
            .set(static_cast<double>(result.decodeSteps));
        m.gauge("server.llm.prefill_chunks")
            .set(static_cast<double>(result.prefillChunks));
        m.gauge("sim.timed_out").set(result.timedOut ? 1.0 : 0.0);
        st.obs->timeline.finish(st.eq.now());
        publishObsHealth(*st.obs);
        // The sink outlives this run's queue: unbind its clock.
        st.obs->trace.setClock(nullptr);
    }
    return result;
}

} // namespace krisp
