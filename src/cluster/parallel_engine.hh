/**
 * @file
 * Parallel intra-run cluster engine: per-shard event queues advanced
 * in conservative time windows (see DESIGN.md §14).
 *
 * A ClusterServer run is decomposed into logical processes (LPs):
 * LP 0 is the *control* plane (arrivals, routing, frontend queues,
 * batching, watchdogs, hedging, resilience, crash bookkeeping) and
 * LP 1+i is the device plane of shard i (GPU stack: streams, kernel
 * timing, signals, faults, power). LPs interact only through posted
 * messages; a ClusterFabric decides how the LP queues execute:
 *
 *  - SingleQueueFabric (engine "sequential", the default and the
 *    differential oracle): all queues execute on one thread in
 *    global (tick, LP index, band, seq) order — a faithful
 *    sequential discrete-event simulation of the very same message
 *    protocol.
 *  - WindowedFabric (engine "parallel"): time advances in
 *    conservative windows [T, T+W) with W bounded by the minimum
 *    shard-to-control latency (the postprocess delay). Each window
 *    runs the control LP first on the coordinator thread, then all
 *    shard LPs in parallel on a persistent worker pool; shard-to-
 *    control messages buffer in per-source mailboxes and drain at
 *    the window barrier in fixed (source LP, post order), so the
 *    schedule — and therefore every metric byte — is independent of
 *    thread count and timing.
 *
 * Lookahead derivation: control-to-shard messages need no latency at
 * all because the control phase leads each window (a message posted
 * at control tick t lands in a shard queue before that shard has
 * executed past T). Only shard-to-control messages constrain W; the
 * single such channel is batch completion, posted postprocessNs
 * after the completion signal hits zero, so W = postprocessNs. A
 * zero-lookahead config (postprocessNs == 0) cannot be windowed and
 * falls back to the sequential fabric (stats().fellBackSequential).
 */

#ifndef KRISP_CLUSTER_PARALLEL_ENGINE_HH
#define KRISP_CLUSTER_PARALLEL_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "sim/event_queue.hh"

namespace krisp
{

/** Which fabric executes a cluster run. */
enum class ClusterEngine
{
    Sequential,
    Parallel,
};

const char *clusterEngineName(ClusterEngine engine);

/** Engine selection knobs (a ClusterConfig embeds one). */
struct EngineConfig
{
    ClusterEngine engine = ClusterEngine::Sequential;
    /** Parallel phase workers; 0 = hardware concurrency. */
    unsigned workers = 0;
    /** Window override, clamped to [1, lookahead]; 0 = lookahead. */
    Tick windowNs = 0;
};

/**
 * Conservative window size: the requested override clamped into
 * [1, lookahead], or the full lookahead when no override is given.
 * A zero lookahead yields 0 — "cannot window, fall back".
 */
Tick conservativeWindowNs(Tick lookaheadNs, Tick overrideNs);

/** What the fabric did; reported through ClusterResult. */
struct EngineStats
{
    ClusterEngine engine = ClusterEngine::Sequential;
    /** Parallel was requested but lookahead was zero. */
    bool fellBackSequential = false;
    /** Phase-B worker threads (1 = inline, no threads spawned). */
    unsigned workersUsed = 1;
    Tick lookaheadNs = 0;
    Tick windowNs = 0;
    /** Conservative windows executed (0 for the sequential fabric). */
    std::uint64_t windows = 0;
    /** Cross-LP messages posted. */
    std::uint64_t crossMessages = 0;
    /** Events fired across every LP queue, whole run — identical for
     *  either engine (throughput denominators in benches). */
    std::uint64_t eventsFired = 0;
};

/**
 * Executes a set of LP event queues under one simulated clock
 * discipline. LP 0 is the control plane; LPs 1..numShards are shard
 * device planes. Queues are owned by the fabric so their lifetime
 * spans the run and the end-of-run metric merge.
 */
class ClusterFabric
{
  public:
    virtual ~ClusterFabric() = default;

    unsigned numLps() const { return static_cast<unsigned>(queues_.size()); }

    EventQueue &
    lpQueue(unsigned lp)
    {
        return *queues_[lp];
    }

    /**
     * Post a cross-LP message: run @p cb on LP @p dst at tick
     * @p when. Legal channels are control->shard (any latency; the
     * control phase leads) and shard->control (latency must be >= the
     * window size; enforced by a panic in the windowed fabric).
     * Shard->shard traffic is a protocol violation.
     */
    virtual void post(unsigned src, unsigned dst, Tick when,
                      EventQueue::Callback cb) = 0;

    /**
     * Run all LPs until every queue is drained or simulated time
     * passes @p limit (events at exactly @p limit still run, like
     * EventQueue::run). Each LP's clock is left at its own last
     * executed event — identical across fabrics.
     */
    virtual void run(Tick limit) = 0;

    /**
     * Exclusive upper bound on the tick any LP may currently execute:
     * the active window's end for the windowed fabric, maxTick for
     * the sequential one. For invariant tests.
     */
    virtual Tick horizon() const { return maxTick; }

    const EngineStats &stats() const { return stats_; }

    /** Max LP clock: the run's final tick, fabric-independent. */
    Tick finalTick() const;

    /** Pending events summed over every LP (timeout detection). */
    std::size_t pendingEvents() const;

    /** Lifetime event counters summed over every LP. */
    std::uint64_t scheduledTotal() const;
    std::uint64_t firedTotal() const;
    std::uint64_t cancelledTotal() const;

  protected:
    std::vector<std::unique_ptr<EventQueue>> queues_;
    EngineStats stats_;
};

/**
 * Build the fabric for @p numShards shards (numShards + 1 LPs).
 * @p lookaheadNs is the minimum shard-to-control message latency the
 * caller guarantees (postprocessNs for ClusterServer). A Parallel
 * request with zero lookahead returns the sequential fabric with
 * stats().fellBackSequential set.
 */
std::unique_ptr<ClusterFabric> makeClusterFabric(
    const EngineConfig &config, unsigned numShards, Tick lookaheadNs);

} // namespace krisp

#endif // KRISP_CLUSTER_PARALLEL_ENGINE_HH
