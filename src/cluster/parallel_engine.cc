#include "cluster/parallel_engine.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>

#include "common/logging.hh"

namespace krisp
{

const char *
clusterEngineName(ClusterEngine engine)
{
    switch (engine) {
      case ClusterEngine::Sequential: return "sequential";
      case ClusterEngine::Parallel: return "parallel";
    }
    return "?";
}

Tick
conservativeWindowNs(Tick lookaheadNs, Tick overrideNs)
{
    if (lookaheadNs == 0)
        return 0;
    if (overrideNs == 0)
        return lookaheadNs;
    return std::min(overrideNs, lookaheadNs);
}

Tick
ClusterFabric::finalTick() const
{
    Tick t = 0;
    for (const auto &q : queues_)
        t = std::max(t, q->now());
    return t;
}

std::size_t
ClusterFabric::pendingEvents() const
{
    std::size_t n = 0;
    for (const auto &q : queues_)
        n += q->pendingCount();
    return n;
}

std::uint64_t
ClusterFabric::scheduledTotal() const
{
    std::uint64_t n = 0;
    for (const auto &q : queues_)
        n += q->scheduledCount();
    return n;
}

std::uint64_t
ClusterFabric::firedTotal() const
{
    std::uint64_t n = 0;
    for (const auto &q : queues_)
        n += q->firedCount();
    return n;
}

std::uint64_t
ClusterFabric::cancelledTotal() const
{
    std::uint64_t n = 0;
    for (const auto &q : queues_)
        n += q->cancelledCount();
    return n;
}

namespace
{

/**
 * Sequential oracle: one thread executes all LP queues in global
 * (tick, LP index) order — within an LP the queue's own (band, seq)
 * order applies. This is a conventional multi-queue discrete-event
 * simulation of the message protocol, with none of the windowing
 * machinery, which is exactly what makes it a meaningful oracle for
 * the windowed fabric: agreement proves the window barriers are
 * unobservable.
 */
class SingleQueueFabric : public ClusterFabric
{
  public:
    explicit SingleQueueFabric(unsigned numShards)
    {
        queues_.reserve(numShards + 1);
        for (unsigned lp = 0; lp < numShards + 1; ++lp)
            queues_.push_back(std::make_unique<EventQueue>());
        stats_.engine = ClusterEngine::Sequential;
        stats_.workersUsed = 1;
    }

    void
    markFellBack(Tick lookaheadNs)
    {
        stats_.fellBackSequential = true;
        stats_.lookaheadNs = lookaheadNs;
    }

    void
    post(unsigned src, unsigned dst, Tick when,
         EventQueue::Callback cb) override
    {
        panic_if(src != 0 && dst != 0,
                 "shard->shard message (", src, " -> ", dst, ")");
        ++stats_.crossMessages;
        queues_[dst]->scheduleMessage(when, std::move(cb));
        dirty_.push_back(dst);
    }

    void
    run(Tick limit) override
    {
        // Min-heap of (next tick, lp) holding at most one live entry
        // per LP: key_[lp] is the tick of LP lp's live entry. A head
        // moves only when its LP steps or receives a post, so only
        // those LPs are re-read; an entry whose tick no longer
        // matches its key is stale and dropped on pop. Ties break
        // toward the lowest LP index, so the control plane always
        // executes first at a shared tick — mirroring the windowed
        // fabric, where the control phase leads every window.
        using Head = std::pair<Tick, unsigned>;
        std::priority_queue<Head, std::vector<Head>,
                            std::greater<Head>> heads;
        auto refresh = [&](unsigned lp) {
            const Tick t = queues_[lp]->nextEventTick();
            if (t == key_[lp])
                return;
            key_[lp] = t;
            if (t != maxTick)
                heads.push({t, lp});
        };
        key_.assign(numLps(), maxTick);
        for (unsigned lp = 0; lp < numLps(); ++lp)
            refresh(lp);
        dirty_.clear();
        while (!heads.empty()) {
            const auto [t, lp] = heads.top();
            if (t != key_[lp]) {
                heads.pop();
                continue;
            }
            if (t > limit)
                break;
            panic_if(queues_[lp]->nextEventTick() != t, "LP ", lp,
                     " head moved from ", t, " to ",
                     queues_[lp]->nextEventTick(),
                     " without a step or a post");
            heads.pop();
            key_[lp] = maxTick;
            queues_[lp]->step();
            refresh(lp);
            for (const unsigned d : dirty_)
                refresh(d);
            dirty_.clear();
        }
    }

  private:
    /** LPs that received a message during the current step. */
    std::vector<unsigned> dirty_;
    /** Tick of each LP's live heap entry; maxTick when it has none. */
    std::vector<Tick> key_;
};

/** One buffered shard-to-control message awaiting the barrier. */
struct PendingMsg
{
    Tick when;
    EventQueue::Callback cb;
};

/**
 * Conservative windowed fabric. Each window [T, T+W):
 *   phase A: the coordinator runs control-LP events < T+W; messages
 *            it posts land directly in shard queues (control leads,
 *            so same-window delivery is safe and deterministic);
 *   phase B: shard LPs run their events < T+W in parallel on a
 *            persistent worker pool; shard-to-control posts buffer
 *            in the posting LP's private outbox;
 *   barrier: outboxes drain into the control queue in (source LP,
 *            post order) — with EventBand::Message sorting, the
 *            delivery schedule is bit-equal to the sequential
 *            fabric's immediate scheduling.
 * Correctness needs every shard-to-control delivery to clear the
 * active window (when >= T+W), which the lookahead guarantees and a
 * panic enforces.
 */
class WindowedFabric : public ClusterFabric
{
  public:
    WindowedFabric(unsigned numShards, Tick windowNs, Tick lookaheadNs,
                   unsigned workers)
        : window_(windowNs)
    {
        panic_if(windowNs == 0, "windowed fabric needs lookahead");
        queues_.reserve(numShards + 1);
        for (unsigned lp = 0; lp < numShards + 1; ++lp)
            queues_.push_back(std::make_unique<EventQueue>());
        outbox_.resize(numShards + 1);
        workers_ = std::max(1u, std::min(workers, numShards));
        stats_.engine = ClusterEngine::Parallel;
        stats_.workersUsed = workers_;
        stats_.lookaheadNs = lookaheadNs;
        stats_.windowNs = window_;
        if (workers_ > 1)
            startPool();
    }

    ~WindowedFabric() override
    {
        if (!threads_.empty()) {
            {
                std::lock_guard<std::mutex> lock(m_);
                shutdown_ = true;
            }
            cv_.notify_all();
            for (auto &t : threads_)
                t.join();
        }
    }

    void
    post(unsigned src, unsigned dst, Tick when,
         EventQueue::Callback cb) override
    {
        if (src == 0) {
            // Control phase: single-threaded, shard queues idle.
            ++stats_.crossMessages;
            queues_[dst]->scheduleMessage(when, std::move(cb));
            return;
        }
        panic_if(dst != 0,
                 "shard->shard message (", src, " -> ", dst, ")");
        panic_if(when < horizon_.load(std::memory_order_relaxed),
                 "lookahead violation: shard ", src,
                 " posted a message at ", when,
                 " inside the window ending at ",
                 horizon_.load(std::memory_order_relaxed));
        outbox_[src].push_back(PendingMsg{when, std::move(cb)});
    }

    void
    run(Tick limit) override
    {
        const Tick bound = limit >= maxTick ? maxTick : limit + 1;
        drainOutboxes();
        while (true) {
            Tick next = maxTick;
            for (const auto &q : queues_)
                next = std::min(next, q->nextEventTick());
            if (next >= bound)
                break;
            const Tick end = window_ >= bound - next ? bound
                                                     : next + window_;
            horizon_.store(end, std::memory_order_relaxed);
            ++stats_.windows;
            queues_[0]->runBefore(end); // phase A: control leads
            runShardPhase(end);         // phase B: shards in parallel
            drainOutboxes();
        }
        horizon_.store(maxTick, std::memory_order_relaxed);
    }

    Tick
    horizon() const override
    {
        return horizon_.load(std::memory_order_relaxed);
    }

  private:
    void
    startPool()
    {
        errors_.resize(numLps());
        threads_.reserve(workers_);
        for (unsigned j = 0; j < workers_; ++j)
            threads_.emplace_back([this] { workerLoop(); });
    }

    void
    workerLoop()
    {
        std::uint64_t seen = 0;
        for (;;) {
            Tick end;
            {
                std::unique_lock<std::mutex> lock(m_);
                cv_.wait(lock, [&] {
                    return shutdown_ || phaseGen_ != seen;
                });
                if (shutdown_)
                    return;
                seen = phaseGen_;
                end = phaseEnd_;
            }
            // Claim shard LPs one at a time, so a worker whose LPs
            // are light this window takes more instead of idling at
            // the barrier. Each LP writes only its own outbox, so the
            // claim order cannot reach the drained schedule.
            for (unsigned lp = nextLp_.fetch_add(1); lp < numLps();
                 lp = nextLp_.fetch_add(1)) {
                try {
                    queues_[lp]->runBefore(end);
                } catch (...) {
                    errors_[lp] = std::current_exception();
                }
            }
            {
                std::lock_guard<std::mutex> lock(m_);
                if (--running_ == 0)
                    doneCv_.notify_one();
            }
        }
    }

    void
    runShardPhase(Tick end)
    {
        if (threads_.empty()) {
            for (unsigned lp = 1; lp < numLps(); ++lp)
                queues_[lp]->runBefore(end);
            return;
        }
        {
            std::lock_guard<std::mutex> lock(m_);
            phaseEnd_ = end;
            nextLp_.store(1);
            running_ = workers_;
            ++phaseGen_;
        }
        cv_.notify_all();
        {
            std::unique_lock<std::mutex> lock(m_);
            doneCv_.wait(lock, [&] { return running_ == 0; });
        }
        // The lowest failing LP wins, as on the inline path.
        for (auto &err : errors_) {
            if (err) {
                std::exception_ptr e = err;
                err = nullptr;
                std::rethrow_exception(e);
            }
        }
    }

    void
    drainOutboxes()
    {
        // Fixed order: ascending source LP, then post order within a
        // source. Message-band scheduling makes the resulting
        // control-queue order identical to the sequential fabric's.
        for (unsigned src = 1; src < numLps(); ++src) {
            for (auto &msg : outbox_[src]) {
                ++stats_.crossMessages;
                queues_[0]->scheduleMessage(msg.when,
                                            std::move(msg.cb));
            }
            outbox_[src].clear();
        }
    }

    const Tick window_;
    unsigned workers_ = 1;
    std::vector<std::vector<PendingMsg>> outbox_;
    std::atomic<Tick> horizon_{0};

    // ---- persistent phase-B pool ---------------------------------
    std::vector<std::thread> threads_;
    /** Per-LP phase-B failure, rethrown lowest LP first. */
    std::vector<std::exception_ptr> errors_;
    /** Next shard LP to claim in the current phase B. */
    std::atomic<unsigned> nextLp_{1};
    std::mutex m_;
    std::condition_variable cv_;
    std::condition_variable doneCv_;
    std::uint64_t phaseGen_ = 0;
    unsigned running_ = 0;
    Tick phaseEnd_ = 0;
    bool shutdown_ = false;
};

} // namespace

std::unique_ptr<ClusterFabric>
makeClusterFabric(const EngineConfig &config, unsigned numShards,
                  Tick lookaheadNs)
{
    fatal_if(numShards == 0, "fabric needs at least one shard LP");
    if (config.engine == ClusterEngine::Parallel) {
        const Tick window =
            conservativeWindowNs(lookaheadNs, config.windowNs);
        if (window == 0) {
            // Zero lookahead: no conservative window exists; run the
            // very same message protocol sequentially.
            auto fabric =
                std::make_unique<SingleQueueFabric>(numShards);
            fabric->markFellBack(lookaheadNs);
            return fabric;
        }
        const unsigned hw =
            std::max(1u, std::thread::hardware_concurrency());
        unsigned workers = config.workers != 0 ? config.workers : hw;
        // Oversubscribing the phase-B pool only adds context-switch
        // overhead inside a fixed conservative window, so clamp a
        // too-large request to the hardware instead of honouring it
        // silently.
        if (workers > hw) {
            warn("engine workers ", workers,
                 " exceed hardware concurrency ", hw,
                 "; clamping to ", hw);
            workers = hw;
        }
        return std::make_unique<WindowedFabric>(numShards, window,
                                                lookaheadNs, workers);
    }
    return std::make_unique<SingleQueueFabric>(numShards);
}

} // namespace krisp
