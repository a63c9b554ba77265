/**
 * @file
 * Tests for the multi-GPU cluster: routing policies, shard bring-up,
 * fault-driven failover, and seed-replay determinism (the metrics
 * JSON and routing-decision hash must be byte-identical no matter
 * how many harness threads execute the sweep). Also pins that the
 * serving configs' defaults are constants no environment changes.
 */

#include <cstdint>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_server.hh"
#include "cluster/parallel_engine.hh"
#include "harness/worker_pool.hh"
#include "obs/obs.hh"
#include "server/gpu_shard.hh"
#include "server/inference_server.hh"
#include "server/llm_engine.hh"
#include "server/load_generator.hh"

namespace krisp
{
namespace
{

// ---- configs are values -------------------------------------------

TEST(ConfigDefaults, IgnoreEnvironment)
{
    // Variables that once set these defaults. A default-constructed
    // config must be the same value in any shell: the fingerprint
    // keys placement plans and the eval cache.
    const char *const vars[][2] = {
        {"KRISP_RECONFIG_POLICY", "group"},
        {"KRISP_ENGINE", "parallel"},
        {"KRISP_ENGINE_WORKERS", "3"},
        {"KRISP_ENGINE_WINDOW_NS", "1234"},
        {"KRISP_TIMELINE", "1"},
        {"KRISP_TIMELINE_WINDOW_MS", "5"},
        {"KRISP_TRACE_SAMPLE", "3"},
    };
    for (const auto &v : vars)
        ::unsetenv(v[0]);
    const std::uint64_t unsetFingerprint = ClusterConfig{}.fingerprint();
    for (const auto &v : vars)
        ::setenv(v[0], v[1], 1);

    EXPECT_EQ(ServerConfig{}.reconfig, ReconfigPolicy::Always);
    EXPECT_EQ(OpenLoopConfig{}.reconfig, ReconfigPolicy::Always);
    EXPECT_EQ(ClusterConfig{}.reconfig, ReconfigPolicy::Always);
    EXPECT_EQ(LlmEngineConfig{}.reconfig, ReconfigPolicy::Always);
    EXPECT_EQ(GpuShardConfig{}.reconfig, ReconfigPolicy::Always);
    const EngineConfig engine;
    EXPECT_EQ(engine.engine, ClusterEngine::Sequential);
    EXPECT_EQ(engine.workers, 0u);
    EXPECT_EQ(engine.windowNs, 0u);
    EXPECT_EQ(ClusterConfig{}.fingerprint(), unsetFingerprint);

    // Nor does a run turn the timeline or sampling on behind the
    // caller's back.
    ObsContext obs;
    EXPECT_EQ(obs.trace.sample(), 0u);
    ServerConfig run;
    run.workerModels = {"squeezenet"};
    run.batch = 1;
    run.warmupRequests = 1;
    run.measuredRequests = 1;
    run.obs = &obs;
    InferenceServer(run).run();
    EXPECT_FALSE(obs.timeline.enabled());
    EXPECT_EQ(obs.trace.sample(), 0u);

    for (const auto &v : vars)
        ::unsetenv(v[0]);
}

// ---- ClusterRouter ------------------------------------------------

TEST(ClusterRouter, RoundRobinCycles)
{
    ClusterRouter router(RoutingPolicy::RoundRobin, 3);
    EXPECT_EQ(router.route("m", 1), 0);
    EXPECT_EQ(router.route("m", 2), 1);
    EXPECT_EQ(router.route("m", 3), 2);
    EXPECT_EQ(router.route("m", 4), 0);
}

TEST(ClusterRouter, RoundRobinSkipsUnhealthy)
{
    ClusterRouter router(RoutingPolicy::RoundRobin, 3);
    router.setHealthy(1, false);
    EXPECT_EQ(router.route("m", 1), 0);
    EXPECT_EQ(router.route("m", 2), 2);
    EXPECT_EQ(router.route("m", 3), 0);
    router.setHealthy(1, true);
    EXPECT_EQ(router.route("m", 4), 1);
}

TEST(ClusterRouter, NoHealthyShardRoutesNowhere)
{
    ClusterRouter router(RoutingPolicy::LeastOutstanding, 2);
    router.setHealthy(0, false);
    router.setHealthy(1, false);
    EXPECT_EQ(router.route("m", 1), -1);
    // Unroutable decisions still advance the replay oracle.
    EXPECT_EQ(router.decisions(), 1u);
}

TEST(ClusterRouter, LeastOutstandingPicksMinLoad)
{
    ClusterRouter router(RoutingPolicy::LeastOutstanding, 3);
    router.addOutstanding(0, 5);
    router.addOutstanding(1, 2);
    router.addOutstanding(2, 2);
    // Tie between 1 and 2 breaks to the lowest index.
    EXPECT_EQ(router.route("m", 1), 1);
    router.addOutstanding(1, 3);
    EXPECT_EQ(router.route("m", 2), 2);
}

TEST(ClusterRouter, AffinityPrefersHomeThenFallsBack)
{
    ClusterRouter router(RoutingPolicy::ModelAffinity, 3);
    router.addHomeShard("a", 0);
    router.addHomeShard("b", 1);
    router.addHomeShard("b", 2);
    // Home shard wins even when another shard is idler.
    router.addOutstanding(0, 10);
    EXPECT_EQ(router.route("a", 1), 0);
    // Among b's homes, least outstanding wins.
    router.addOutstanding(1, 4);
    EXPECT_EQ(router.route("b", 2), 2);
    // With every home drained, any healthy shard serves the model.
    router.setHealthy(1, false);
    router.setHealthy(2, false);
    EXPECT_EQ(router.route("b", 3), 0);
}

TEST(ClusterRouter, DecisionHashTracksChoices)
{
    ClusterRouter a(RoutingPolicy::RoundRobin, 2);
    ClusterRouter b(RoutingPolicy::RoundRobin, 2);
    for (std::uint64_t id = 1; id <= 16; ++id) {
        a.route("m", id);
        b.route("m", id);
    }
    EXPECT_EQ(a.decisionHash(), b.decisionHash());
    // A diverging decision diverges the hash.
    b.setHealthy(0, false);
    a.route("m", 17);
    b.route("m", 17);
    EXPECT_NE(a.decisionHash(), b.decisionHash());
}

// ---- FaultPlan shard derivation -----------------------------------

TEST(FaultPlan, ForShardDerivesIndependentSeeds)
{
    const FaultPlan base = FaultPlan::uniform(0.1, 42);
    const FaultPlan s0 = base.forShard(0);
    const FaultPlan s1 = base.forShard(1);
    EXPECT_NE(s0.seed, s1.seed);
    EXPECT_NE(s0.seed, base.seed);
    // Pure function of (plan seed, shard index).
    EXPECT_EQ(s0.seed, base.forShard(0).seed);
    // The scenario itself is untouched.
    EXPECT_DOUBLE_EQ(s0.kernelHangProb, base.kernelHangProb);
}

// ---- GpuShard -----------------------------------------------------

TEST(GpuShard, BringsUpKrispStack)
{
    EventQueue eq;
    GpuShardConfig cfg;
    cfg.index = 3;
    cfg.models = {"resnet152"};
    cfg.policy = PartitionPolicy::KrispIsolated;
    GpuShard shard(eq, cfg);
    EXPECT_EQ(shard.device().name(), "shard3");
    EXPECT_NE(shard.krisp(), nullptr);
    EXPECT_TRUE(shard.isResident("resnet152"));
    EXPECT_FALSE(shard.isResident("vgg19"));
    EXPECT_EQ(shard.fault(), nullptr); // no faults configured
}

TEST(GpuShard, StaticPolicyHasNoKrispRuntime)
{
    EventQueue eq;
    GpuShardConfig cfg;
    cfg.models = {"resnet152"};
    cfg.policy = PartitionPolicy::StaticEqual;
    GpuShard shard(eq, cfg);
    EXPECT_EQ(shard.krisp(), nullptr);
    EXPECT_EQ(shard.reconfigFallbacks(), 0u);
}

// The cluster gives each shard stack a makeMergeChild context and
// merges only metrics and timelines out of it, so shard contexts must
// record those and nothing into their trace sinks.
TEST(GpuShard, MergeChildContextRecordsMetricsAndTimelineOnly)
{
    ObsContext cluster;
    cluster.timeline.enable(10'000'000);
    const std::unique_ptr<ObsContext> child = makeMergeChild(&cluster);
    EXPECT_FALSE(child->trace.enabled());
    EXPECT_EQ(child->timeline.windowNs(), cluster.timeline.windowNs());

    EventQueue eq;
    GpuShardConfig cfg;
    cfg.models = {"squeezenet"};
    cfg.numWorkers = 1;
    cfg.maxBatch = 2;
    cfg.enforcement = EnforcementMode::Emulated;
    cfg.reconfig = ReconfigPolicy::Always;
    cfg.obs = child.get();
    GpuShard shard(eq, cfg);
    const auto &seq = shard.zoo().kernels("squeezenet", 2);
    const auto done =
        HsaSignal::create(static_cast<std::int64_t>(seq.size()));
    shard.launch(0, seq, done);
    eq.run();
    child->timeline.finish(eq.now());

    EXPECT_EQ(child->trace.size(), 0u);
    EXPECT_EQ(child->metrics.counter("krisp.launches").value(),
              seq.size());
    std::uint64_t reconfigs = 0;
    for (const TimelineWindow &w : child->timeline.windows())
        reconfigs += w.reconfigs;
    EXPECT_GT(reconfigs, 0u);

    // Without a cluster timeline the child's stays off too; without a
    // cluster context there is no child.
    const ObsContext untimed;
    EXPECT_FALSE(makeMergeChild(&untimed)->timeline.enabled());
    EXPECT_EQ(makeMergeChild(nullptr), nullptr);
}

// ---- ClusterServer ------------------------------------------------

ClusterConfig
smallCluster(RoutingPolicy routing, unsigned shards)
{
    ClusterConfig cfg;
    cfg.numShards = shards;
    cfg.routing = routing;
    cfg.models = {"resnet152", "vgg19"};
    cfg.workersPerShard = 2;
    cfg.arrivalRatePerSec = 150.0 * shards;
    cfg.warmupNs = ticksFromMs(50);
    cfg.measureNs = ticksFromMs(300);
    return cfg;
}

TEST(ClusterServer, ServesAcrossShards)
{
    const ClusterResult r =
        ClusterServer(smallCluster(RoutingPolicy::RoundRobin, 2))
            .run();
    EXPECT_GT(r.served, 0u);
    EXPECT_EQ(r.servedPerShard.size(), 2u);
    // Round-robin over symmetric shards: both serve.
    EXPECT_GT(r.servedPerShard[0], 0u);
    EXPECT_GT(r.servedPerShard[1], 0u);
    EXPECT_EQ(r.servedPerShard[0] + r.servedPerShard[1], r.served);
    EXPECT_EQ(r.failovers, 0u);
}

TEST(ClusterServer, SeedReplayIsExact)
{
    const ClusterResult a =
        ClusterServer(smallCluster(RoutingPolicy::LeastOutstanding, 2))
            .run();
    const ClusterResult b =
        ClusterServer(smallCluster(RoutingPolicy::LeastOutstanding, 2))
            .run();
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.routingDecisions, b.routingDecisions);
    EXPECT_EQ(a.routingHash, b.routingHash);
    EXPECT_DOUBLE_EQ(a.p99Ms, b.p99Ms);
}

TEST(ClusterServer, DifferentSeedsDiverge)
{
    ClusterConfig cfg =
        smallCluster(RoutingPolicy::LeastOutstanding, 2);
    const ClusterResult a = ClusterServer(cfg).run();
    cfg.seed = 2;
    const ClusterResult b = ClusterServer(cfg).run();
    EXPECT_NE(a.routingHash, b.routingHash);
}

TEST(ClusterServer, MetricsJsonByteIdenticalAcrossJobs)
{
    // The same four-run sweep executed sequentially and on eight
    // harness threads must merge to byte-identical metrics JSON and
    // routing hashes (islands + spec-order merge).
    auto sweep = [](unsigned jobs) {
        std::vector<std::string> json(4);
        std::vector<std::uint64_t> hashes(4);
        harness::WorkerPool pool(jobs);
        pool.forEachIndex(json.size(), [&](std::size_t i) {
            ObsContext obs;
            ClusterConfig cfg = smallCluster(
                i % 2 == 0 ? RoutingPolicy::RoundRobin
                           : RoutingPolicy::ModelAffinity,
                i < 2 ? 1 : 2);
            cfg.seed = 7 + i;
            cfg.obs = &obs;
            const ClusterResult r = ClusterServer(cfg).run();
            json[i] = obs.metrics.toJson();
            hashes[i] = r.routingHash;
        });
        std::string all;
        for (std::size_t i = 0; i < json.size(); ++i)
            all += json[i] + "\n" + std::to_string(hashes[i]) + "\n";
        return all;
    };
    const std::string sequential = sweep(1);
    const std::string threaded = sweep(8);
    EXPECT_EQ(sequential, threaded);
}

TEST(ClusterServer, PublishesClusterMetrics)
{
    ObsContext obs;
    ClusterConfig cfg = smallCluster(RoutingPolicy::RoundRobin, 2);
    cfg.obs = &obs;
    const ClusterResult r = ClusterServer(cfg).run();
    const std::string json = obs.metrics.toJson();
    // Per-shard snapshots merge in under a stable prefix...
    EXPECT_NE(json.find("cluster.shard0.gpu.kernels_completed"),
              std::string::npos);
    EXPECT_NE(json.find("cluster.shard1.krisp.launches"),
              std::string::npos);
    // ...next to the cluster rollups.
    EXPECT_NE(json.find("cluster.routing_hash"), std::string::npos);
    EXPECT_DOUBLE_EQ(
        obs.metrics.gauge("cluster.requests_served").value(),
        static_cast<double>(r.served));
}

TEST(ClusterServer, HangStormDrainsAndRecovers)
{
    ClusterConfig cfg = smallCluster(RoutingPolicy::RoundRobin, 2);
    // Hangs everywhere + a tight batch watchdog: shards accumulate
    // failed batches and the failover monitor must drain (and later
    // re-admit) them rather than letting requests rot. The rate is
    // per *kernel* and a batch runs dozens, so even this small
    // probability fails a sizable share of batches.
    cfg.faults.kernelHangProb = 0.003;
    cfg.faults.watchdogTimeoutNs = ticksFromMs(20);
    cfg.batchWatchdogNs = ticksFromMs(30);
    cfg.failoverHangThreshold = 2;
    cfg.drainNs = ticksFromMs(40);
    cfg.measureNs = ticksFromMs(500);
    const ClusterResult r = ClusterServer(cfg).run();
    EXPECT_GT(r.failedBatches, 0u);
    EXPECT_GT(r.failovers, 0u);
    EXPECT_GT(r.readmits, 0u);
    // The cluster keeps serving through the storms.
    EXPECT_GT(r.served, 0u);
}

TEST(ClusterServer, FailoverReroutesBacklog)
{
    ObsContext obs;
    ClusterConfig cfg = smallCluster(RoutingPolicy::RoundRobin, 2);
    cfg.obs = &obs;
    cfg.faults.kernelHangProb = 0.08;
    cfg.faults.watchdogTimeoutNs = ticksFromMs(20);
    cfg.batchWatchdogNs = ticksFromMs(25);
    cfg.failoverHangThreshold = 1;
    cfg.drainNs = ticksFromMs(60);
    cfg.measureNs = ticksFromMs(500);
    const ClusterResult r = ClusterServer(cfg).run();
    EXPECT_GT(r.failovers, 0u);
    // Drain events land in the trace for post-mortems.
    bool saw_drain = false;
    for (const TraceRecord &rec : obs.trace.records())
        if (rec.kind == TraceEventKind::RecoveryAction &&
            obs.trace.name(rec) == "shard_drain")
            saw_drain = true;
    EXPECT_TRUE(saw_drain);
}

TEST(ClusterServer, FaultsAreShardLocal)
{
    // Identical configs except shard count: shard 0's fault stream
    // derives from forShard(0) either way, so adding a shard must
    // not change what shard 0 draws. We can't observe the stream
    // directly, but the single-shard run must replay exactly.
    ClusterConfig cfg = smallCluster(RoutingPolicy::RoundRobin, 1);
    cfg.faults.kernelSlowProb = 0.2;
    cfg.faults.watchdogTimeoutNs = 0;
    const ClusterResult a = ClusterServer(cfg).run();
    const ClusterResult b = ClusterServer(cfg).run();
    EXPECT_EQ(a.served, b.served);
    EXPECT_DOUBLE_EQ(a.p99Ms, b.p99Ms);
}

} // namespace
} // namespace krisp
