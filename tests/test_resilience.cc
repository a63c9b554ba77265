/**
 * @file
 * Tests for the cluster resilience layer: admission token buckets,
 * the brownout ladder, retry budgets, circuit breakers and the hedge
 * delay estimator as pure decision units; then shard crash / warm
 * restart, request conservation, hedging cancellation and the
 * availability gains end-to-end through ClusterServer.
 */

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_server.hh"
#include "harness/worker_pool.hh"

namespace krisp
{
namespace
{

ResilienceConfig
enabledConfig()
{
    ResilienceConfig cfg;
    cfg.enabled = true;
    return cfg;
}

// ---- admission ----------------------------------------------------

TEST(Resilience, DisabledLayerAdmitsEverythingAndNeverRetries)
{
    ResilienceConfig cfg; // enabled = false
    cfg.admission[0].ratePerSec = 1.0;
    cfg.admission[0].burst = 1.0;
    ClusterResilience res(cfg, 2);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(res.admit(PriorityClass::Interactive, 0));
    EXPECT_FALSE(res.tryChargeRetry());
    res.noteShardFailure(0, 0);
    EXPECT_FALSE(res.breakerOpen(0, 1));
}

TEST(Resilience, TokenBucketAdmitsBurstThenShedsThenRefills)
{
    ResilienceConfig cfg = enabledConfig();
    cfg.admission[0].ratePerSec = 10.0; // one token per 100 ms
    cfg.admission[0].burst = 4.0;
    ClusterResilience res(cfg, 1);
    // The bucket starts full: the leading burst is admitted.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(res.admit(PriorityClass::Interactive, 0)) << i;
    EXPECT_FALSE(res.admit(PriorityClass::Interactive, 0));
    // 100 ms later exactly one token has refilled.
    const Tick t1 = ticksFromMs(100.0);
    EXPECT_TRUE(res.admit(PriorityClass::Interactive, t1));
    EXPECT_FALSE(res.admit(PriorityClass::Interactive, t1));
    // Refill clamps at the burst size, not the elapsed time.
    const Tick t2 = ticksFromSec(100.0);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(res.admit(PriorityClass::Interactive, t2)) << i;
    EXPECT_FALSE(res.admit(PriorityClass::Interactive, t2));
}

TEST(Resilience, UnlimitedClassNeverSheds)
{
    ResilienceConfig cfg = enabledConfig();
    cfg.admission[1].ratePerSec = 0; // Batch unlimited
    ClusterResilience res(cfg, 1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(res.admit(PriorityClass::Batch, 0));
}

// ---- brownout -----------------------------------------------------

TEST(Resilience, BrownoutEscalatesWithHysteresisAndRelaxes)
{
    ResilienceConfig cfg = enabledConfig();
    cfg.brownoutHighWatermark = 10;
    cfg.brownoutLowWatermark = 2;
    cfg.brownoutSustain = 3;
    cfg.brownoutRelax = 2;
    cfg.degradedGrantCapCus = 8;
    ClusterResilience res(cfg, 1);

    // Two over-high checks are not sustained pressure yet.
    res.noteQueueDepth(50);
    res.noteQueueDepth(50);
    EXPECT_EQ(res.brownout(), BrownoutLevel::Normal);
    // A mid-band check resets the streak (hysteresis band).
    res.noteQueueDepth(5);
    res.noteQueueDepth(50);
    res.noteQueueDepth(50);
    EXPECT_EQ(res.brownout(), BrownoutLevel::Normal);
    res.noteQueueDepth(50);
    EXPECT_EQ(res.brownout(), BrownoutLevel::ShedBatch);
    EXPECT_EQ(res.grantCapCus(), 0u);
    // Batch is shed at the door; Interactive still admitted.
    EXPECT_FALSE(res.admit(PriorityClass::Batch, 0));
    EXPECT_TRUE(res.admit(PriorityClass::Interactive, 0));

    // Sustained pressure climbs the ladder one level at a time.
    for (int i = 0; i < 3; ++i)
        res.noteQueueDepth(50);
    EXPECT_EQ(res.brownout(), BrownoutLevel::DegradeGrants);
    EXPECT_EQ(res.grantCapCus(), 8u);
    for (int i = 0; i < 3; ++i)
        res.noteQueueDepth(50);
    EXPECT_EQ(res.brownout(), BrownoutLevel::ShedInteractive);
    EXPECT_FALSE(res.admit(PriorityClass::Interactive, 0));
    EXPECT_EQ(res.brownoutEnters(), 3u);

    // Relief de-escalates after brownoutRelax under-low checks.
    res.noteQueueDepth(0);
    res.noteQueueDepth(0);
    EXPECT_EQ(res.brownout(), BrownoutLevel::DegradeGrants);
    res.noteQueueDepth(0);
    res.noteQueueDepth(0);
    EXPECT_EQ(res.brownout(), BrownoutLevel::ShedBatch);
}

// ---- retry budget -------------------------------------------------

TEST(Resilience, RetryBudgetFloorsThenGrowsWithCompletions)
{
    ResilienceConfig cfg = enabledConfig();
    cfg.retryBudgetRatio = 0.5;
    cfg.retryBudgetFloor = 2;
    ClusterResilience res(cfg, 1);
    // Cold start: only the floor is available.
    EXPECT_TRUE(res.tryChargeRetry());
    EXPECT_TRUE(res.tryChargeRetry());
    EXPECT_FALSE(res.tryChargeRetry());
    // Four completions buy two more charges at ratio 0.5.
    for (int i = 0; i < 4; ++i)
        res.noteCompleted();
    EXPECT_TRUE(res.tryChargeRetry());
    EXPECT_TRUE(res.tryChargeRetry());
    EXPECT_FALSE(res.tryChargeRetry());
    EXPECT_EQ(res.retryCharges(), 4u);
}

// ---- circuit breakers ---------------------------------------------

TEST(Resilience, BreakerTripsAfterConsecutiveFailuresAndCoolsDown)
{
    ResilienceConfig cfg = enabledConfig();
    cfg.breakerFailureThreshold = 3;
    cfg.breakerCooldownNs = ticksFromMs(10.0);
    ClusterResilience res(cfg, 2);
    res.noteShardFailure(0, 0);
    res.noteShardFailure(0, 0);
    EXPECT_FALSE(res.breakerOpen(0, 0));
    // A success in between resets the consecutive count.
    res.noteShardSuccess(0);
    res.noteShardFailure(0, 0);
    res.noteShardFailure(0, 0);
    EXPECT_FALSE(res.breakerOpen(0, 0));
    res.noteShardFailure(0, 0);
    EXPECT_TRUE(res.breakerOpen(0, 1));
    EXPECT_FALSE(res.breakerOpen(1, 1)); // per-shard state
    EXPECT_EQ(res.breakerOpens(), 1u);
    // Open until the cooldown elapses, closed after.
    EXPECT_TRUE(res.breakerOpen(0, ticksFromMs(10.0) - 1));
    EXPECT_FALSE(res.breakerOpen(0, ticksFromMs(10.0)));
}

// ---- hedge delay estimator ----------------------------------------

TEST(Resilience, HedgeDelayTracksTheLatencyQuantile)
{
    ResilienceConfig cfg = enabledConfig();
    cfg.hedging = true;
    cfg.hedgeQuantile = 0.5;
    cfg.hedgeMinSamples = 32;
    cfg.hedgeMinDelayNs = 1;
    ClusterResilience res(cfg, 1);
    EXPECT_FALSE(res.hedgeReady());
    for (int i = 0; i < 32; ++i)
        res.noteLatencySample(ticksFromMs(i < 16 ? 1.0 : 9.0));
    EXPECT_TRUE(res.hedgeReady());
    // Median of a 1ms/9ms split lands on one of the two modes.
    const Tick d = res.hedgeDelayNs();
    EXPECT_GE(d, ticksFromMs(1.0));
    EXPECT_LE(d, ticksFromMs(9.0));
    // The floor guards a cold or degenerate estimator.
    ResilienceConfig floored = cfg;
    floored.hedgeMinDelayNs = ticksFromMs(50.0);
    ClusterResilience res2(floored, 1);
    for (int i = 0; i < 32; ++i)
        res2.noteLatencySample(ticksFromMs(1.0));
    EXPECT_EQ(res2.hedgeDelayNs(), ticksFromMs(50.0));
}

// ---- cluster integration ------------------------------------------

ClusterConfig
chaosCluster(unsigned shards)
{
    ClusterConfig cfg;
    cfg.numShards = shards;
    cfg.routing = RoutingPolicy::LeastOutstanding;
    cfg.models = {"squeezenet", "shufflenet"};
    cfg.workersPerShard = 2;
    cfg.arrivalRatePerSec = 400.0 * shards;
    cfg.warmupNs = ticksFromMs(50);
    cfg.measureNs = ticksFromMs(400);
    cfg.requestDeadlineNs = ticksFromMs(250.0);
    cfg.batchWatchdogNs = ticksFromMs(60.0);
    cfg.interactiveFraction = 0.7;
    cfg.sloMs = 100.0;
    return cfg;
}

ResilienceConfig
servingResilience()
{
    ResilienceConfig res;
    res.enabled = true;
    res.retryBudgetRatio = 0.5;
    res.retryBudgetFloor = 64;
    res.maxAttempts = 6;
    res.breakerCooldownNs = ticksFromMs(60.0);
    res.rerouteBackoffNs = ticksFromMs(15.0);
    return res;
}

TEST(ClusterResilienceRun, ShardCrashesAndWarmRestarts)
{
    ObsContext obs;
    ClusterConfig cfg = chaosCluster(2);
    cfg.obs = &obs;
    cfg.resilience = servingResilience();
    cfg.faults.shardCrashRatePerSec = 8.0;
    cfg.faults.shardRestartNs = ticksFromMs(20.0);
    const ClusterResult r = ClusterServer(cfg).run();
    EXPECT_GT(r.resilience.crashes, 0u);
    EXPECT_EQ(r.resilience.recoveries, r.resilience.crashes);
    EXPECT_GT(r.served, 0u);
    EXPECT_EQ(r.resilience.conservationDelta(), 0);
    EXPECT_TRUE(r.allocatorsPristine);
    // Crash and restart both land in the trace for post-mortems.
    bool saw_crash = false, saw_restart = false;
    for (const TraceRecord &rec : obs.trace.records()) {
        if (rec.kind == TraceEventKind::FaultInject &&
            obs.trace.name(rec) == "shard_crash")
            saw_crash = true;
        if (rec.kind == TraceEventKind::RecoveryAction &&
            obs.trace.name(rec) == "shard_restart")
            saw_restart = true;
    }
    EXPECT_TRUE(saw_crash);
    EXPECT_TRUE(saw_restart);
}

TEST(ClusterResilienceRun, ConservationHoldsAcrossConfigShapes)
{
    // Every shape of run — plain, resilient, crashing, faulting,
    // hedging — must account for every injected request exactly.
    std::vector<ClusterConfig> cfgs;
    cfgs.push_back(chaosCluster(2)); // resilience off
    {
        ClusterConfig cfg = chaosCluster(2);
        cfg.resilience = servingResilience();
        cfgs.push_back(cfg);
    }
    {
        ClusterConfig cfg = chaosCluster(2);
        cfg.resilience = servingResilience();
        cfg.resilience.hedging = true;
        cfg.resilience.hedgeMinSamples = 16;
        cfg.faults = FaultPlan::uniform(0.0005);
        cfg.faults.shardCrashRatePerSec = 4.0;
        cfg.readmitGraceNs = ticksFromMs(30.0);
        cfgs.push_back(cfg);
    }
    {
        ClusterConfig cfg = chaosCluster(1);
        cfg.faults = FaultPlan::uniform(0.001);
        cfg.faults.shardCrashRatePerSec = 2.0;
        cfgs.push_back(cfg);
    }
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const ClusterResult r = ClusterServer(cfgs[i]).run();
        const ResilienceStats &res = r.resilience;
        EXPECT_EQ(res.conservationDelta(), 0)
            << "config " << i << ": injected " << res.injected
            << " completed " << res.completed << " shed " << res.shed
            << " dropped " << res.dropped << " failed " << res.failed
            << " in flight " << res.inFlight;
        EXPECT_EQ(res.injected,
                  res.injectedByClass[0] + res.injectedByClass[1]);
    }
}

TEST(ClusterResilienceRun, RetriesLiftAvailabilityUnderChaos)
{
    ClusterConfig cfg = chaosCluster(2);
    cfg.faults = FaultPlan::uniform(0.0003);
    cfg.faults.shardCrashRatePerSec = 2.0;
    cfg.faults.shardRestartNs = ticksFromMs(40.0);
    const ClusterResult off = ClusterServer(cfg).run();

    cfg.resilience = servingResilience();
    const ClusterResult on = ClusterServer(cfg).run();

    // Same workload (class/arrival streams are independent of the
    // resilience switch): the on-run recovers lost requests.
    EXPECT_EQ(on.resilience.injected, off.resilience.injected);
    EXPECT_GT(off.resilience.failed, 0u);
    EXPECT_GT(on.resilience.retries, 0u);
    EXPECT_GT(on.availability, off.availability);
    EXPECT_LT(on.resilience.failed, off.resilience.failed);
}

TEST(ClusterResilienceRun, AdmissionShedsBatchBeforeInteractive)
{
    ClusterConfig cfg = chaosCluster(2);
    cfg.arrivalRatePerSec = 3000.0;
    cfg.resilience = servingResilience();
    // Interactive gets capacity headroom; Batch is throttled hard.
    cfg.resilience.admission[0].ratePerSec = 2500.0;
    cfg.resilience.admission[0].burst = 64;
    cfg.resilience.admission[1].ratePerSec = 100.0;
    cfg.resilience.admission[1].burst = 16;
    const ClusterResult r = ClusterServer(cfg).run();
    EXPECT_GT(r.resilience.shedByClass[1], 0u);
    // Batch is ~30% of arrivals yet carries nearly all the shed.
    EXPECT_GT(r.resilience.shedByClass[1],
              10 * r.resilience.shedByClass[0]);
    EXPECT_EQ(r.resilience.conservationDelta(), 0);
}

TEST(ClusterResilienceRun, BrownoutCapsGrantsUnderOverload)
{
    ClusterConfig cfg = chaosCluster(2);
    // Slow the shards down (kernel-slow faults) while overloading,
    // so queues build and the ladder reaches DegradeGrants.
    cfg.arrivalRatePerSec = 4000.0;
    cfg.faults.kernelSlowProb = 0.3;
    cfg.faults.kernelSlowFactor = 6.0;
    cfg.resilience = servingResilience();
    cfg.resilience.brownoutHighWatermark = 16;
    cfg.resilience.brownoutLowWatermark = 4;
    cfg.resilience.brownoutSustain = 2;
    cfg.resilience.brownoutCheckNs = ticksFromMs(5.0);
    cfg.resilience.degradedGrantCapCus = 8;
    const ClusterResult r = ClusterServer(cfg).run();
    EXPECT_GT(r.resilience.brownoutEnters, 1u);
    EXPECT_GT(r.resilience.cappedGrants, 0u);
    EXPECT_EQ(r.resilience.conservationDelta(), 0);
}

TEST(ClusterResilienceRun, HedgingDuplicatesAndCancelsCleanly)
{
    ClusterConfig cfg = chaosCluster(2);
    // A fat latency tail (slow kernels) makes hedges fire; both
    // copies run to completion often enough to exercise the win and
    // lose paths.
    cfg.faults.kernelSlowProb = 0.05;
    cfg.faults.kernelSlowFactor = 10.0;
    cfg.resilience = servingResilience();
    cfg.resilience.hedging = true;
    cfg.resilience.hedgeQuantile = 0.9;
    cfg.resilience.hedgeMinSamples = 16;
    cfg.resilience.hedgeMinDelayNs = ticksFromMs(2.0);
    const ClusterResult r = ClusterServer(cfg).run();
    EXPECT_GT(r.resilience.hedges, 0u);
    EXPECT_GT(r.resilience.hedgesWon + r.resilience.hedgesLost, 0u);
    EXPECT_LE(r.resilience.hedgesWon + r.resilience.hedgesLost,
              r.resilience.hedges);
    EXPECT_EQ(r.resilience.conservationDelta(), 0);
    // The pristine-release invariant: cancelled hedges released
    // every CU grant — no resident kernels, no busy CUs at the end.
    EXPECT_TRUE(r.allocatorsPristine);
}

/**
 * Shortest time from a shard's re-admission to its next drain, read
 * from the shard_readmit / shard_drain recovery records of @p trace
 * (maxTick when no shard is drained after a readmit).
 */
Tick
closestRedrainNs(const TraceSink &trace)
{
    std::map<std::string, Tick> last_readmit; // by target shard
    Tick closest = maxTick;
    for (const TraceRecord &rec : trace.records()) {
        if (rec.kind != TraceEventKind::RecoveryAction)
            continue;
        const auto args = trace.args(rec);
        if (args.empty() || args[0].first != "target")
            continue;
        const std::string &shard = args[0].second;
        if (trace.name(rec) == "shard_readmit") {
            last_readmit[shard] = rec.ts;
        } else if (trace.name(rec) == "shard_drain") {
            const auto it = last_readmit.find(shard);
            if (it != last_readmit.end())
                closest = std::min(closest, rec.ts - it->second);
        }
    }
    return closest;
}

TEST(ClusterResilienceRun, ReadmitGraceAvoidsRedrainFlapping)
{
    // Regression: a shard re-admitted into a still-active hang storm
    // used to be re-drained almost immediately (health check fired
    // on the first post-readmit batch), inflating failovers. The
    // grace window must absorb that: the contract is that no shard
    // is drained within the grace after its readmit, which the
    // hair-trigger run breaks.
    const Tick grace = ticksFromMs(80.0);
    ClusterConfig cfg = chaosCluster(2);
    cfg.faults.kernelHangProb = 0.004;
    cfg.faults.watchdogTimeoutNs = ticksFromMs(20.0);
    cfg.batchWatchdogNs = ticksFromMs(30.0);
    cfg.failoverHangThreshold = 2;
    cfg.drainNs = ticksFromMs(40.0);
    cfg.measureNs = ticksFromMs(600.0);

    ObsContext hair_obs;
    cfg.obs = &hair_obs;
    cfg.readmitGraceNs = 0;
    const ClusterResult hair_trigger = ClusterServer(cfg).run();
    ObsContext graced_obs;
    cfg.obs = &graced_obs;
    cfg.readmitGraceNs = grace;
    const ClusterResult graced = ClusterServer(cfg).run();

    ASSERT_GT(hair_trigger.failovers, 0u);
    EXPECT_LT(graced.failovers, hair_trigger.failovers);
    EXPECT_LT(closestRedrainNs(hair_obs.trace), grace);
    EXPECT_GE(closestRedrainNs(graced_obs.trace), grace);
    // Grace defers draining; it must not stop the cluster serving.
    EXPECT_GT(graced.served, 0u);
}

TEST(ClusterResilienceRun, MetricsBytesIdenticalAcrossJobsUnderChaos)
{
    // The full resilience machinery (admission, retries, hedging,
    // crashes, brownout) stays on the deterministic simulated clock:
    // a chaos sweep merges to byte-identical metrics JSON whether it
    // runs sequentially or on eight harness threads.
    auto sweep = [](unsigned jobs) {
        std::vector<std::string> json(4);
        harness::WorkerPool pool(jobs);
        pool.forEachIndex(json.size(), [&](std::size_t i) {
            ObsContext obs;
            ClusterConfig cfg = chaosCluster(2);
            cfg.seed = 11 + i;
            cfg.obs = &obs;
            cfg.resilience = servingResilience();
            cfg.resilience.hedging = i % 2 == 0;
            cfg.resilience.hedgeMinSamples = 16;
            cfg.faults = FaultPlan::uniform(0.0005);
            cfg.faults.shardCrashRatePerSec = 4.0;
            cfg.readmitGraceNs = ticksFromMs(30.0);
            ClusterServer(cfg).run();
            json[i] = obs.metrics.toJson();
        });
        std::string all;
        for (const std::string &j : json)
            all += j + "\n";
        return all;
    };
    const std::string sequential = sweep(1);
    const std::string threaded = sweep(8);
    EXPECT_EQ(sequential, threaded);
}

TEST(ClusterResilienceRun, PublishesResilienceMetrics)
{
    ObsContext obs;
    ClusterConfig cfg = chaosCluster(2);
    cfg.obs = &obs;
    cfg.resilience = servingResilience();
    cfg.faults.shardCrashRatePerSec = 4.0;
    const ClusterResult r = ClusterServer(cfg).run();
    MetricsRegistry &m = obs.metrics;
    EXPECT_DOUBLE_EQ(
        m.gauge("cluster.resilience.injected").value(),
        static_cast<double>(r.resilience.injected));
    EXPECT_DOUBLE_EQ(
        m.gauge("cluster.resilience.conservation_delta").value(), 0.0);
    EXPECT_DOUBLE_EQ(m.gauge("cluster.resilience.crashes").value(),
                     static_cast<double>(r.resilience.crashes));
    EXPECT_DOUBLE_EQ(
        m.gauge("cluster.resilience.availability").value(),
        r.availability);
    const std::string json = m.toJson();
    EXPECT_NE(json.find("cluster.resilience.brownout"),
              std::string::npos);
}

// ---- fault-plan seed derivation -----------------------------------

TEST(FaultPlanStreams, ForShardIsIndependentOfShardCount)
{
    // forShard(i) is a pure function of (plan seed, i): the stream
    // shard i draws never depends on how many shards exist.
    FaultPlan plan;
    plan.seed = 0xfeedULL;
    const std::uint64_t s3 = plan.forShard(3).seed;
    // Deriving other shards first (any "cluster size") changes
    // nothing.
    for (unsigned i = 0; i < 64; ++i)
        plan.forShard(i);
    EXPECT_EQ(plan.forShard(3).seed, s3);
    // And the per-shard streams are pairwise distinct.
    for (unsigned i = 0; i < 8; ++i)
        for (unsigned j = i + 1; j < 8; ++j)
            EXPECT_NE(plan.forShard(i).seed, plan.forShard(j).seed);
}

TEST(FaultPlanStreams, ShardZeroCrashScheduleSurvivesClusterGrowth)
{
    // End-to-end: shard 0's crash times in a 1-shard cluster match
    // its crash times in a 3-shard cluster with the same plan — the
    // crash schedule depends only on (plan seed, shard index), never
    // on traffic or the shard count.
    auto crashTimes = [](unsigned shards) {
        ObsContext obs;
        ClusterConfig cfg;
        cfg.numShards = shards;
        cfg.models = {"squeezenet"};
        cfg.workersPerShard = 2;
        cfg.arrivalRatePerSec = 300.0; // same total either way
        cfg.warmupNs = ticksFromMs(50);
        cfg.measureNs = ticksFromMs(400);
        cfg.obs = &obs;
        cfg.resilience.enabled = true;
        cfg.resilience.retryBudgetFloor = 128;
        cfg.faults.shardCrashRatePerSec = 6.0;
        cfg.faults.shardRestartNs = ticksFromMs(10.0);
        ClusterServer(cfg).run();
        std::vector<Tick> times;
        for (const TraceRecord &rec : obs.trace.records()) {
            if (rec.kind != TraceEventKind::FaultInject ||
                obs.trace.name(rec) != "shard_crash")
                continue;
            for (const auto &[key, value] : obs.trace.args(rec))
                if (key == "target" &&
                    value.find("shard0") != std::string::npos)
                    times.push_back(rec.ts);
        }
        return times;
    };
    const std::vector<Tick> alone = crashTimes(1);
    const std::vector<Tick> crowded = crashTimes(3);
    ASSERT_FALSE(alone.empty());
    EXPECT_EQ(alone, crowded);
}

TEST(FaultPlanStreams, CrashOnlyPlanDoesNotEnableTheInjector)
{
    // shardCrash is executed by the cluster layer; a crash-only plan
    // must not force FaultInjector construction (which would perturb
    // zero-fault byte-identity on every shard).
    FaultPlan plan;
    plan.shardCrashRatePerSec = 5.0;
    EXPECT_FALSE(plan.enabled());
    plan.kernelHangProb = 0.1;
    EXPECT_TRUE(plan.enabled());
}

} // namespace
} // namespace krisp
