/**
 * @file
 * Differential test suite for the parallel cluster engine
 * (cluster/parallel_engine.hh). The sequential fabric is the oracle:
 * for every (seed, shard count, routing policy, fault plan) the
 * windowed parallel engine must produce byte-identical metrics JSON,
 * the same routing-decision hash and an intact request-conservation
 * invariant — regardless of worker count or window size. Plus unit
 * tests for the window computation, mailbox drain order, the
 * zero-lookahead fallback, and property tests for the conservative
 * horizon and exactly-once cross-LP delivery on random schedules.
 * The oracle's own execution order is pinned against a literal
 * (next tick, LP index) stepper, and a phase-B failure must surface
 * the lowest failing LP whichever worker ran it.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_server.hh"
#include "cluster/parallel_engine.hh"
#include "common/random.hh"

namespace krisp
{
namespace
{

// ---- window computation -------------------------------------------

TEST(ConservativeWindow, ClampsOverrideIntoLookahead)
{
    // No override: the full lookahead.
    EXPECT_EQ(conservativeWindowNs(500, 0), 500u);
    // Smaller override: honoured (more, smaller windows).
    EXPECT_EQ(conservativeWindowNs(500, 100), 100u);
    // Larger override: clamped — exceeding the lookahead would let a
    // shard outrun a message still in flight.
    EXPECT_EQ(conservativeWindowNs(500, 900), 500u);
    // Zero lookahead cannot be windowed at all.
    EXPECT_EQ(conservativeWindowNs(0, 0), 0u);
    EXPECT_EQ(conservativeWindowNs(0, 100), 0u);
}

// ---- standalone fabric behaviour ----------------------------------

EngineConfig
engineOf(ClusterEngine engine, unsigned workers, Tick windowNs = 0)
{
    EngineConfig cfg;
    cfg.engine = engine;
    cfg.workers = workers;
    cfg.windowNs = windowNs;
    return cfg;
}

TEST(ClusterFabric, ZeroLookaheadFallsBackToSequential)
{
    const auto fab = makeClusterFabric(
        engineOf(ClusterEngine::Parallel, 4), 2, /*lookaheadNs=*/0);
    EXPECT_TRUE(fab->stats().fellBackSequential);
    EXPECT_EQ(fab->stats().engine, ClusterEngine::Sequential);
    EXPECT_EQ(fab->horizon(), maxTick);
}

TEST(ClusterFabric, SequentialOracleReportsItself)
{
    const auto fab = makeClusterFabric(
        engineOf(ClusterEngine::Sequential, 4), 2, 500);
    EXPECT_FALSE(fab->stats().fellBackSequential);
    EXPECT_EQ(fab->stats().engine, ClusterEngine::Sequential);
    EXPECT_EQ(fab->numLps(), 3u);
}

/**
 * Same-tick shard-to-control messages must drain in ascending source
 * LP regardless of the order the shards posted them in — that is
 * what makes the windowed schedule thread-count independent. The
 * shards here post in descending LP order at the same simulated
 * tick; both fabrics must deliver ascending.
 */
TEST(ClusterFabric, MailboxesDrainInSourceOrder)
{
    constexpr Tick lookahead = 100;
    for (const ClusterEngine engine :
         {ClusterEngine::Sequential, ClusterEngine::Parallel}) {
        const auto fab = makeClusterFabric(engineOf(engine, 4), 4,
                                           lookahead);
        std::vector<unsigned> delivered;
        ClusterFabric *f = fab.get();
        for (unsigned s = 4; s >= 1; --s) {
            // A local shard event at tick 10 posts to control at
            // 10 + lookahead; scheduling order here is 4,3,2,1.
            fab->lpQueue(s).schedule(10, [f, s, &delivered] {
                f->post(s, 0, 10 + lookahead,
                        [s, &delivered] { delivered.push_back(s); });
            });
        }
        fab->run(maxTick);
        ASSERT_EQ(delivered.size(), 4u) << clusterEngineName(engine);
        EXPECT_EQ(delivered, (std::vector<unsigned>{1, 2, 3, 4}))
            << clusterEngineName(engine);
    }
}

/** Random cross-LP schedules: identical delivery order under both
 *  fabrics, every message exactly once, and no LP ever executes an
 *  event at or past the windowed fabric's current horizon. */
TEST(ClusterFabric, PropertyRandomSchedulesAgreeAndRespectHorizon)
{
    constexpr unsigned kShards = 5;
    constexpr Tick lookahead = 250;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        // Pre-generate the schedule so both fabrics see the same one:
        // per shard, local events that post tagged messages to
        // control with latency >= the lookahead.
        struct Msg
        {
            unsigned src;
            Tick at;        ///< local-event tick on the shard
            Tick extra;     ///< delivery = at + lookahead + extra
            unsigned tag;
        };
        std::vector<Msg> plan;
        Rng rng(seed);
        unsigned tag = 0;
        for (unsigned s = 1; s <= kShards; ++s) {
            Tick t = 1 + rng.below(50);
            for (unsigned i = 0; i < 64; ++i) {
                plan.push_back(Msg{s, t,
                                   static_cast<Tick>(rng.below(3)) *
                                       lookahead,
                                   tag++});
                t += 1 + rng.below(200);
            }
        }

        auto replay = [&plan](ClusterEngine engine, unsigned workers,
                              std::uint64_t *violations) {
            const auto fab = makeClusterFabric(
                engineOf(engine, workers), kShards, lookahead);
            ClusterFabric *f = fab.get();
            std::atomic<std::uint64_t> bad{0};
            std::vector<unsigned> order;
            std::vector<unsigned> count(plan.size(), 0);
            for (const Msg &m : plan) {
                fab->lpQueue(m.src).schedule(m.at, [f, m, &bad,
                                                    &order, &count] {
                    // The conservative invariant: an executing event
                    // lies strictly below the current horizon.
                    if (f->lpQueue(m.src).now() >= f->horizon())
                        bad.fetch_add(1);
                    f->post(m.src, 0,
                            m.at + 250 + m.extra, [m, &order,
                                                   &count] {
                        order.push_back(m.tag);
                        ++count[m.tag];
                    });
                });
            }
            fab->run(maxTick);
            // Exactly-once ledger: every posted message delivered
            // once, none duplicated, none lost.
            for (const unsigned c : count)
                EXPECT_EQ(c, 1u) << clusterEngineName(engine);
            *violations = bad.load();
            return order;
        };

        std::uint64_t seq_bad = 0, par_bad = 0, one_bad = 0;
        const std::vector<unsigned> seq_order =
            replay(ClusterEngine::Sequential, 1, &seq_bad);
        const std::vector<unsigned> par_order =
            replay(ClusterEngine::Parallel, 4, &par_bad);
        const std::vector<unsigned> par1_order =
            replay(ClusterEngine::Parallel, 1, &one_bad);
        EXPECT_EQ(seq_order.size(), plan.size());
        EXPECT_EQ(seq_order, par_order) << "seed " << seed;
        EXPECT_EQ(seq_order, par1_order) << "seed " << seed;
        EXPECT_EQ(seq_bad, 0u);
        EXPECT_EQ(par_bad, 0u) << "horizon violated, seed " << seed;
        EXPECT_EQ(one_bad, 0u);
    }
}

// ---- sequential oracle vs a literal reference ---------------------

/** (LP, event id) of one executed event. */
using Fired = std::pair<unsigned, std::uint64_t>;

/**
 * A random message-protocol workload. Every event logs (LP, id) and
 * then draws its actions from one Rng in execution order, so two
 * fabrics that execute it in the same order produce the same log and
 * any divergence shows in it. Control events post to shards at, or
 * before, the shard's current head (refilling drained shards); shard
 * events schedule local work, post to control, and cancel their own
 * events at their head, which moves the head later.
 */
class OrderWorkload
{
  public:
    OrderWorkload(ClusterFabric &fab, std::uint64_t seed,
                  unsigned budget)
        : fab_(fab), rng_(seed), budget_(budget),
          local_(fab.numLps())
    {
        // Seed events: every shard but one in four, plus control.
        for (unsigned lp = 0; lp < fab_.numLps(); ++lp) {
            if (lp != 0 && rng_.below(4) == 0)
                continue; // starts drained; a control post fills it
            for (unsigned i = 1 + rng_.below(3); i > 0; --i)
                local(lp, rng_.below(40));
        }
    }

    // Queued callbacks hold this object's address.
    OrderWorkload(const OrderWorkload &) = delete;
    OrderWorkload &operator=(const OrderWorkload &) = delete;

    std::vector<Fired> log;

  private:
    void
    local(unsigned lp, Tick when)
    {
        const std::uint64_t id = nextId_++;
        const EventId ev = fab_.lpQueue(lp).schedule(
            when, [this, lp, id] { fire(lp, id); });
        local_[lp].push_back({when, ev});
    }

    void
    post(unsigned src, unsigned dst, Tick when)
    {
        const std::uint64_t id = nextId_++;
        fab_.post(src, dst, when, [this, dst, id] { fire(dst, id); });
    }

    /** Spend one unit of the event budget; false when it is gone. */
    bool
    spend()
    {
        if (budget_ == 0)
            return false;
        --budget_;
        return true;
    }

    void
    fire(unsigned lp, std::uint64_t id)
    {
        log.emplace_back(lp, id);
        const Tick now = fab_.lpQueue(lp).now();
        if (lp == 0) {
            for (unsigned k = rng_.below(3); k > 0 && spend(); --k) {
                const unsigned s =
                    1 + static_cast<unsigned>(
                            rng_.below(fab_.numLps() - 1));
                const Tick head = fab_.lpQueue(s).nextEventTick();
                Tick when = now + rng_.below(40); // drained: refill
                if (head != maxTick) {
                    // Global order keeps every head at or after now.
                    when = rng_.below(2) == 0
                               ? head
                               : now + rng_.below(head - now + 1);
                }
                post(0, s, when);
            }
            if (rng_.below(4) != 0 && spend())
                local(0, now + rng_.below(60));
            return;
        }
        if (rng_.below(4) == 0)
            cancelHead(lp);
        if (rng_.below(2) == 0 && spend())
            local(lp, now + rng_.below(50));
        if (rng_.below(3) == 0 && spend())
            post(lp, 0, now + rng_.below(30));
    }

    /** Cancel this LP's own pending events at its head tick. */
    void
    cancelHead(unsigned lp)
    {
        EventQueue &q = fab_.lpQueue(lp);
        const Tick head = q.nextEventTick();
        for (const auto &[when, ev] : local_[lp])
            if (when == head)
                q.deschedule(ev);
        std::erase_if(local_[lp], [&q](const auto &e) {
            return !q.pending(e.second);
        });
    }

    ClusterFabric &fab_;
    Rng rng_;
    unsigned budget_;
    std::uint64_t nextId_ = 0;
    /** Per LP: (tick, handle) of the local events it scheduled. */
    std::vector<std::vector<std::pair<Tick, EventId>>> local_;
};

/**
 * The oracle's contract, stepped literally: execute the LP with the
 * smallest (next event tick, LP index) until every head lies past
 * @p limit.
 */
void
stepInReferenceOrder(ClusterFabric &fab, Tick limit)
{
    for (;;) {
        unsigned best = 0;
        Tick best_tick = maxTick;
        for (unsigned lp = 0; lp < fab.numLps(); ++lp) {
            const Tick t = fab.lpQueue(lp).nextEventTick();
            if (t < best_tick) {
                best_tick = t;
                best = lp;
            }
        }
        if (best_tick == maxTick || best_tick > limit)
            return;
        fab.lpQueue(best).step();
    }
}

std::vector<Tick>
lpClocks(ClusterFabric &fab)
{
    std::vector<Tick> clocks;
    for (unsigned lp = 0; lp < fab.numLps(); ++lp)
        clocks.push_back(fab.lpQueue(lp).now());
    return clocks;
}

TEST(SequentialOracle, ExecutesRandomSchedulesInReferenceOrder)
{
    for (const unsigned shards : {6u, 64u}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            const unsigned budget = 600 * (shards + 1);
            const auto oracle = makeClusterFabric(
                engineOf(ClusterEngine::Sequential, 1), shards, 100);
            OrderWorkload under_test(*oracle, seed, budget);
            oracle->run(maxTick);

            const auto reference = makeClusterFabric(
                engineOf(ClusterEngine::Sequential, 1), shards, 100);
            OrderWorkload expected(*reference, seed, budget);
            stepInReferenceOrder(*reference, maxTick);

            const std::string what = std::to_string(shards + 1) +
                                     " LPs, seed " +
                                     std::to_string(seed);
            EXPECT_GT(expected.log.size(), budget / 2) << what;
            EXPECT_EQ(under_test.log, expected.log) << what;
            EXPECT_EQ(lpClocks(*oracle), lpClocks(*reference)) << what;
            EXPECT_EQ(oracle->pendingEvents(), 0u) << what;
            EXPECT_GT(oracle->cancelledTotal(), 0u) << what;
        }
    }
}

TEST(SequentialOracle, RunLimitRunsEventsAtTheLimitAndKeepsLater)
{
    constexpr Tick limit = 500;
    // Hand-built: events exactly at the limit run, later ones wait.
    {
        const auto fab = makeClusterFabric(
            engineOf(ClusterEngine::Sequential, 1), 3, 100);
        std::vector<unsigned> ran;
        for (const auto &[lp, when] :
             std::vector<std::pair<unsigned, Tick>>{
                 {2, limit}, {1, limit + 1}, {0, limit}, {3, limit + 900}})
            fab->lpQueue(lp).schedule(when,
                                      [&ran, lp] { ran.push_back(lp); });
        fab->run(limit);
        EXPECT_EQ(ran, (std::vector<unsigned>{0, 2}));
        EXPECT_EQ(fab->pendingEvents(), 2u);
        EXPECT_EQ(fab->finalTick(), limit);
        fab->run(maxTick);
        EXPECT_EQ(ran, (std::vector<unsigned>{0, 2, 1, 3}));
        EXPECT_EQ(fab->pendingEvents(), 0u);
    }
    // Random: stop at the limit, then resume to the end; both halves
    // match the reference.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const auto oracle = makeClusterFabric(
            engineOf(ClusterEngine::Sequential, 1), 6, 100);
        OrderWorkload under_test(*oracle, seed, 4000);
        const auto reference = makeClusterFabric(
            engineOf(ClusterEngine::Sequential, 1), 6, 100);
        OrderWorkload expected(*reference, seed, 4000);

        oracle->run(limit);
        stepInReferenceOrder(*reference, limit);
        EXPECT_EQ(under_test.log, expected.log) << "seed " << seed;
        EXPECT_EQ(lpClocks(*oracle), lpClocks(*reference));
        EXPECT_GT(oracle->pendingEvents(), 0u) << "seed " << seed;
        EXPECT_EQ(oracle->pendingEvents(), reference->pendingEvents());
        EXPECT_LE(oracle->finalTick(), limit);

        oracle->run(maxTick);
        stepInReferenceOrder(*reference, maxTick);
        EXPECT_EQ(under_test.log, expected.log) << "seed " << seed;
        EXPECT_EQ(lpClocks(*oracle), lpClocks(*reference));
        EXPECT_EQ(oracle->pendingEvents(), 0u);
    }
}

// ---- phase-B failures ---------------------------------------------

TEST(WindowedFabric, ShardExceptionsSurfaceLowestLpFirst)
{
    // Shard LPs 2 and 5 fail in the same window; whichever worker
    // claims them, the run must report LP 2, as the inline path does.
    for (const unsigned workers : {1u, 2u, 4u}) {
        for (int attempt = 0; attempt < 20; ++attempt) {
            const auto fab = makeClusterFabric(
                engineOf(ClusterEngine::Parallel, workers), 6, 100);
            for (unsigned lp = 1; lp <= 6; ++lp) {
                fab->lpQueue(lp).schedule(10, [lp] {
                    if (lp == 2 || lp == 5)
                        throw std::runtime_error("lp " +
                                                 std::to_string(lp));
                });
            }
            std::string what;
            try {
                fab->run(maxTick);
            } catch (const std::runtime_error &e) {
                what = e.what();
            }
            EXPECT_EQ(what, "lp 2") << workers << " workers, attempt "
                                    << attempt;
        }
    }
}

// ---- sequential-vs-parallel differential sweep --------------------

enum class FaultMode
{
    None,
    Chaos,
    Crash,
};

ClusterConfig
sweepConfig(unsigned shards, RoutingPolicy routing, FaultMode faults,
            std::uint64_t seed)
{
    ClusterConfig cfg;
    cfg.numShards = shards;
    cfg.routing = routing;
    cfg.models = {"squeezenet", "shufflenet"};
    cfg.workersPerShard = 2;
    cfg.arrivalRatePerSec = 250.0 * shards;
    cfg.warmupNs = ticksFromMs(30);
    cfg.measureNs = ticksFromMs(150);
    cfg.seed = seed;
    cfg.interactiveFraction = 0.7;
    cfg.sloMs = 100.0;
    switch (faults) {
    case FaultMode::None:
        break;
    case FaultMode::Chaos:
        // Hang storms + deadlines + retries + hedging: exercises
        // watchdog abandonment, drain/readmit and hedge
        // cancellation across the plane boundary.
        cfg.faults.kernelHangProb = 0.002;
        cfg.faults.kernelSlowProb = 0.05;
        cfg.faults.watchdogTimeoutNs = ticksFromMs(20);
        cfg.batchWatchdogNs = ticksFromMs(30);
        cfg.failoverHangThreshold = 2;
        cfg.drainNs = ticksFromMs(40);
        cfg.requestDeadlineNs = ticksFromMs(250);
        cfg.resilience.enabled = true;
        cfg.resilience.retryBudgetRatio = 0.5;
        cfg.resilience.retryBudgetFloor = 64;
        cfg.resilience.maxAttempts = 4;
        cfg.resilience.hedging = true;
        cfg.resilience.hedgeMinSamples = 16;
        break;
    case FaultMode::Crash:
        // Whole-shard crashes with warm restart: exercises the
        // split control/device restart protocol and the graveyard.
        cfg.faults.shardCrashRatePerSec = 6.0;
        cfg.faults.shardRestartNs = ticksFromMs(25);
        cfg.batchWatchdogNs = ticksFromMs(60);
        cfg.resilience.enabled = true;
        cfg.resilience.retryBudgetRatio = 0.5;
        cfg.resilience.retryBudgetFloor = 64;
        cfg.resilience.maxAttempts = 6;
        cfg.resilience.rerouteBackoffNs = ticksFromMs(15);
        break;
    }
    return cfg;
}

struct RunBytes
{
    std::string metricsJson;
    std::uint64_t routingHash = 0;
    std::int64_t conservationDelta = 0;
    EngineStats engine;
};

RunBytes
runCluster(ClusterConfig cfg, const EngineConfig &engine)
{
    ObsContext obs;
    cfg.obs = &obs;
    cfg.engine = engine;
    const ClusterResult r = ClusterServer(cfg).run();
    RunBytes out;
    out.metricsJson = obs.metrics.toJson();
    out.routingHash = r.routingHash;
    out.conservationDelta = r.resilience.conservationDelta();
    out.engine = r.engine;
    return out;
}

void
expectEngineAgreement(const ClusterConfig &cfg, const char *what)
{
    const RunBytes seq =
        runCluster(cfg, engineOf(ClusterEngine::Sequential, 1));
    const RunBytes par4 =
        runCluster(cfg, engineOf(ClusterEngine::Parallel, 4));
    const RunBytes par1 =
        runCluster(cfg, engineOf(ClusterEngine::Parallel, 1));

    EXPECT_EQ(seq.conservationDelta, 0) << what;
    EXPECT_EQ(par4.conservationDelta, 0) << what;
    EXPECT_EQ(seq.routingHash, par4.routingHash) << what;
    EXPECT_EQ(seq.routingHash, par1.routingHash) << what;
    // The oracle gate: every metric byte identical.
    EXPECT_EQ(seq.metricsJson, par4.metricsJson) << what;
    EXPECT_EQ(seq.metricsJson, par1.metricsJson) << what;

    EXPECT_EQ(seq.engine.engine, ClusterEngine::Sequential);
    EXPECT_EQ(par4.engine.engine, ClusterEngine::Parallel);
    EXPECT_FALSE(par4.engine.fellBackSequential) << what;
    EXPECT_GT(par4.engine.windows, 0u) << what;
    EXPECT_GT(par4.engine.crossMessages, 0u) << what;
    EXPECT_EQ(par4.engine.lookaheadNs, cfg.postprocessNs) << what;
}

const RoutingPolicy kPolicies[] = {RoutingPolicy::RoundRobin,
                                   RoutingPolicy::LeastOutstanding,
                                   RoutingPolicy::ModelAffinity};

void
sweepFaultMode(FaultMode faults, const char *label)
{
    std::uint64_t seed = 11;
    for (const unsigned shards : {1u, 4u, 8u}) {
        for (const RoutingPolicy routing : kPolicies) {
            const std::string what =
                std::string(label) + " shards=" +
                std::to_string(shards) + " routing=" +
                routingPolicyName(routing);
            expectEngineAgreement(
                sweepConfig(shards, routing, faults, seed++),
                what.c_str());
        }
    }
}

// 27 configs x 3 engines: shard count x routing policy x fault plan.
TEST(EngineDifferential, NoFaultSweepIsByteIdentical)
{
    sweepFaultMode(FaultMode::None, "no-fault");
}

TEST(EngineDifferential, ChaosSweepIsByteIdentical)
{
    sweepFaultMode(FaultMode::Chaos, "chaos");
}

TEST(EngineDifferential, CrashSweepIsByteIdentical)
{
    sweepFaultMode(FaultMode::Crash, "crash");
}

TEST(EngineDifferential, SixtyFourShardsAgree)
{
    ClusterConfig cfg = sweepConfig(
        64, RoutingPolicy::LeastOutstanding, FaultMode::None, 97);
    cfg.arrivalRatePerSec = 60.0 * 64;
    cfg.measureNs = ticksFromMs(80);
    const RunBytes seq =
        runCluster(cfg, engineOf(ClusterEngine::Sequential, 1));
    const RunBytes par =
        runCluster(cfg, engineOf(ClusterEngine::Parallel, 4));
    EXPECT_EQ(seq.metricsJson, par.metricsJson);
    EXPECT_EQ(seq.routingHash, par.routingHash);
    // Requested workers, clamped to the host: oversubscribing a
    // conservative-window barrier only adds context switches.
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    EXPECT_EQ(par.engine.workersUsed, std::min(4u, hw));
}

TEST(EngineDifferential, WindowSizeCannotBeObserved)
{
    // Shrinking the conservative window changes how often the
    // fabric synchronises, never what it computes: 1 ns windows,
    // partial windows and the full lookahead all match the oracle.
    const ClusterConfig cfg = sweepConfig(
        4, RoutingPolicy::RoundRobin, FaultMode::Chaos, 41);
    const RunBytes seq =
        runCluster(cfg, engineOf(ClusterEngine::Sequential, 1));
    for (const Tick window :
         {Tick(1), Tick(50'000), Tick(0) /* = lookahead */}) {
        const RunBytes par = runCluster(
            cfg, engineOf(ClusterEngine::Parallel, 4, window));
        EXPECT_EQ(seq.metricsJson, par.metricsJson)
            << "window " << window;
        EXPECT_EQ(seq.routingHash, par.routingHash)
            << "window " << window;
        const Tick expect_window =
            window == 0 ? cfg.postprocessNs
                        : std::min<Tick>(window, cfg.postprocessNs);
        EXPECT_EQ(par.engine.windowNs, expect_window);
    }
}

TEST(EngineDifferential, ZeroLookaheadRunFallsBackSequential)
{
    // postprocessNs == 0 removes the only latency between the
    // planes: no conservative window exists and the parallel engine
    // must fall back to the oracle rather than race.
    ClusterConfig cfg = sweepConfig(
        2, RoutingPolicy::RoundRobin, FaultMode::None, 13);
    cfg.postprocessNs = 0;
    const RunBytes seq =
        runCluster(cfg, engineOf(ClusterEngine::Sequential, 1));
    const RunBytes par =
        runCluster(cfg, engineOf(ClusterEngine::Parallel, 4));
    EXPECT_TRUE(par.engine.fellBackSequential);
    EXPECT_EQ(par.engine.windows, 0u);
    EXPECT_EQ(seq.metricsJson, par.metricsJson);
    EXPECT_EQ(seq.routingHash, par.routingHash);
}

} // namespace
} // namespace krisp
