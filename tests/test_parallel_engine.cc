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
 */

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
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
