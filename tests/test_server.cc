/**
 * @file
 * Tests of the inference server and experiment harness. Server runs
 * here use small request counts to stay fast; the full-scale numbers
 * live in the bench binaries.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace krisp
{
namespace
{

ServerConfig
quickConfig()
{
    ServerConfig cfg;
    cfg.batch = 32;
    cfg.warmupRequests = 2;
    cfg.measuredRequests = 12;
    return cfg;
}

TEST(Policies, NamesAndList)
{
    EXPECT_EQ(allPartitionPolicies().size(), 5u);
    EXPECT_STREQ(partitionPolicyName(PartitionPolicy::MpsDefault),
                 "mps-default");
    EXPECT_STREQ(partitionPolicyName(PartitionPolicy::KrispIsolated),
                 "krisp-i");
    EXPECT_TRUE(isKrispPolicy(PartitionPolicy::KrispOversubscribed));
    EXPECT_FALSE(isKrispPolicy(PartitionPolicy::StaticEqual));
}

TEST(InferenceServer, SingleWorkerProducesSaneResults)
{
    ServerConfig cfg = quickConfig();
    cfg.workerModels = {"squeezenet"};
    InferenceServer server(cfg);
    const ServerResult r = server.run();
    ASSERT_EQ(r.workers.size(), 1u);
    EXPECT_EQ(r.workers[0].completed, cfg.measuredRequests);
    EXPECT_GT(r.totalRps, 0.0);
    EXPECT_GT(r.maxP95Ms, 0.0);
    EXPECT_GT(r.energyPerInferenceJ, 0.0);
    EXPECT_GT(r.avgPowerW, 0.0);
    EXPECT_GT(r.measureSeconds, 0.0);
    EXPECT_FALSE(r.timedOut);
    // Latency at least the isolated model latency + pre/post.
    EXPECT_GT(r.workers[0].meanLatencyMs,
              ticksToMs(cfg.preprocessNs + cfg.postprocessNs));
}

TEST(InferenceServer, DeterministicAcrossRuns)
{
    ServerConfig cfg = quickConfig();
    cfg.workerModels = {"alexnet", "alexnet"};
    cfg.policy = PartitionPolicy::KrispIsolated;
    const ServerResult a = InferenceServer(cfg).run();
    const ServerResult b = InferenceServer(cfg).run();
    EXPECT_DOUBLE_EQ(a.totalRps, b.totalRps);
    EXPECT_DOUBLE_EQ(a.maxP95Ms, b.maxP95Ms);
    EXPECT_DOUBLE_EQ(a.energyPerInferenceJ, b.energyPerInferenceJ);
}

TEST(InferenceServer, TwoWorkersCompleteRequestedCounts)
{
    ServerConfig cfg = quickConfig();
    cfg.workerModels = {"squeezenet", "squeezenet"};
    cfg.policy = PartitionPolicy::StaticEqual;
    const ServerResult r = InferenceServer(cfg).run();
    ASSERT_EQ(r.workers.size(), 2u);
    for (const auto &w : r.workers)
        EXPECT_GE(w.completed, cfg.measuredRequests);
}

TEST(InferenceServer, MixedModelsKeepTheirIdentities)
{
    ServerConfig cfg = quickConfig();
    cfg.workerModels = {"albert", "squeezenet"};
    const ServerResult r = InferenceServer(cfg).run();
    ASSERT_EQ(r.workers.size(), 2u);
    EXPECT_EQ(r.workers[0].model, "albert");
    EXPECT_EQ(r.workers[1].model, "squeezenet");
}

/** Every policy runs end to end on a 2-worker co-location. */
class PolicyRunTest
    : public ::testing::TestWithParam<PartitionPolicy>
{
};

TEST_P(PolicyRunTest, RunsToCompletion)
{
    ServerConfig cfg = quickConfig();
    cfg.measuredRequests = 8;
    cfg.workerModels = {"squeezenet", "squeezenet"};
    cfg.policy = GetParam();
    const ServerResult r = InferenceServer(cfg).run();
    EXPECT_EQ(r.completed, 16u);
    EXPECT_GT(r.totalRps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyRunTest,
    ::testing::ValuesIn(allPartitionPolicies()),
    [](const ::testing::TestParamInfo<PartitionPolicy> &info) {
        std::string name = partitionPolicyName(info.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(InferenceServer, KrispEmulatedSlowerThanNative)
{
    ServerConfig cfg = quickConfig();
    cfg.measuredRequests = 8;
    cfg.workerModels = {"alexnet"};
    cfg.policy = PartitionPolicy::KrispIsolated;
    cfg.enforcement = EnforcementMode::Native;
    const double native_p95 = InferenceServer(cfg).run().maxP95Ms;
    cfg.enforcement = EnforcementMode::Emulated;
    const double emu_p95 = InferenceServer(cfg).run().maxP95Ms;
    // The emulation overhead L_over is strictly positive.
    EXPECT_GT(emu_p95, native_p95);
}

TEST(ExperimentContext, IsolatedBaselineCached)
{
    ExperimentContext ctx(quickConfig());
    const ServerResult &a = ctx.isolated("squeezenet");
    const ServerResult &b = ctx.isolated("squeezenet");
    EXPECT_EQ(&a, &b);
}

TEST(ExperimentContext, EvaluateNormalisesAgainstIsolated)
{
    ExperimentContext ctx(quickConfig());
    const EvalPoint p =
        ctx.evaluate("squeezenet", PartitionPolicy::MpsDefault, 1);
    // One worker under MPS default *is* the isolated baseline.
    EXPECT_NEAR(p.normalizedRps, 1.0, 0.05);
    EXPECT_NEAR(p.energyRatio, 1.0, 0.05);
    EXPECT_FALSE(p.sloViolated);
    EXPECT_NEAR(p.sloMs, 2.0 * p.p95Ms, 0.1 * p.sloMs);
}

TEST(ExperimentContext, SloRuleIsTwiceIsolatedTail)
{
    ExperimentContext ctx(quickConfig());
    const ServerResult &iso = ctx.isolated("alexnet");
    const EvalPoint p =
        ctx.evaluate("alexnet", PartitionPolicy::StaticEqual, 2);
    EXPECT_DOUBLE_EQ(p.sloMs, 2.0 * iso.maxP95Ms);
    EXPECT_EQ(p.sloViolated, p.p95Ms > p.sloMs);
}

TEST(ExperimentContext, OverlapOverrideOnlyForKrisp)
{
    ExperimentContext ctx(quickConfig());
    EXPECT_EXIT(ctx.evaluateWithOverlap(
                    "squeezenet", PartitionPolicy::StaticEqual, 2, 8),
                ::testing::ExitedWithCode(1), "overlap");
    const EvalPoint p = ctx.evaluateWithOverlap(
        "squeezenet", PartitionPolicy::KrispIsolated, 2, 8);
    EXPECT_GT(p.normalizedRps, 0.0);
}

TEST(ExperimentContext, MixedPairAggregatesNormalisedRps)
{
    ExperimentContext ctx(quickConfig());
    const double agg = ctx.evaluateMixedPair(
        "albert", "squeezenet", PartitionPolicy::KrispIsolated);
    EXPECT_GT(agg, 0.5);
    EXPECT_LT(agg, 4.0);
}

TEST(InferenceServer, KrispBeatsMpsDefaultAtFourWorkers)
{
    // The headline claim, at reduced request counts: KRISP-I beats
    // unrestricted sharing for a contention-heavy model at 4 workers.
    ServerConfig cfg = quickConfig();
    cfg.measuredRequests = 15;
    ExperimentContext ctx(cfg);
    const EvalPoint mps =
        ctx.evaluate("resnet152", PartitionPolicy::MpsDefault, 4);
    const EvalPoint krisp =
        ctx.evaluate("resnet152", PartitionPolicy::KrispIsolated, 4);
    EXPECT_GT(krisp.normalizedRps, mps.normalizedRps);
    EXPECT_LT(krisp.energyPerInferenceJ, mps.energyPerInferenceJ);
}

TEST(InferenceServerDeath, InvalidConfigs)
{
    ServerConfig cfg = quickConfig();
    EXPECT_EXIT({ InferenceServer server(cfg); },
                ::testing::ExitedWithCode(1), "at least one worker");
    cfg.workerModels = {"not-a-model"};
    EXPECT_EXIT({ InferenceServer server(cfg); },
                ::testing::ExitedWithCode(1), "unknown model");
    cfg.workerModels = {"albert"};
    cfg.batch = 0;
    EXPECT_EXIT({ InferenceServer server(cfg); },
                ::testing::ExitedWithCode(1), "batch");
}

} // namespace
} // namespace krisp
