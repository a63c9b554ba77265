/**
 * @file
 * Tests for the parallel experiment harness: worker pool semantics
 * (ordering, exception propagation) and the determinism guarantee —
 * ExperimentContext results filled on the pool are identical to a
 * sequential run for any thread count — plus the benches'
 * environment edge (bench_util.hh), which resolves the job count and
 * checks every KRISP_* variable.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "harness/experiment.hh"
#include "harness/worker_pool.hh"

namespace krisp
{
namespace
{

TEST(WorkerPool, RunsEveryIndexExactlyOnce)
{
    for (const unsigned jobs : {1u, 2u, 3u, 8u}) {
        harness::WorkerPool pool(jobs);
        std::vector<std::atomic<int>> hits(17);
        pool.forEachIndex(hits.size(), [&](std::size_t i) {
            hits[i].fetch_add(1);
        });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(WorkerPool, ResultsLandInIndexOrderSlots)
{
    harness::WorkerPool pool(4);
    std::vector<int> out(50, -1);
    pool.forEachIndex(out.size(), [&](std::size_t i) {
        out[i] = static_cast<int>(i) * 3;
    });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(WorkerPool, ZeroTasksIsANoOp)
{
    harness::WorkerPool pool(4);
    bool called = false;
    pool.forEachIndex(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(WorkerPool, MoreJobsThanTasks)
{
    harness::WorkerPool pool(16);
    std::vector<std::atomic<int>> hits(3);
    pool.forEachIndex(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, SingleJobRunsInline)
{
    harness::WorkerPool pool(1);
    const auto caller = std::this_thread::get_id();
    pool.forEachIndex(4, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(WorkerPool, LowestIndexExceptionWinsAndAllTasksRun)
{
    for (const unsigned jobs : {1u, 4u}) {
        harness::WorkerPool pool(jobs);
        std::vector<std::atomic<int>> hits(10);
        try {
            pool.forEachIndex(hits.size(), [&](std::size_t i) {
                hits[i].fetch_add(1);
                if (i == 7 || i == 3)
                    throw std::runtime_error("task " +
                                             std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "task 3");
        }
        // A failure must not cancel the remaining tasks.
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

// ---- the bench edge: the only reader of the environment ----------

/** Sets a variable for one test and unsets it afterwards. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
};

TEST(BenchEdge, JobsFromCommandLine)
{
    const char *argv1[] = {"bench", "--jobs", "5"};
    EXPECT_EQ(bench::jobs(3, const_cast<char **>(argv1)), 5u);
    const char *argv2[] = {"bench", "--jobs=12"};
    EXPECT_EQ(bench::jobs(2, const_cast<char **>(argv2)), 12u);
    const char *argv3[] = {"bench", "--jobs", "0x10"};
    EXPECT_EQ(bench::jobs(3, const_cast<char **>(argv3)), 16u);
}

TEST(BenchEdge, JobsFlagBeatsEnvironment)
{
    const char *bare[] = {"bench"};
    {
        const ScopedEnv jobs("KRISP_JOBS", "3");
        // The command line wins over the environment.
        const char *argv[] = {"bench", "--jobs=2"};
        EXPECT_EQ(bench::jobs(2, const_cast<char **>(argv)), 2u);
        // Without a --jobs flag the environment decides.
        EXPECT_EQ(bench::jobs(1, const_cast<char **>(bare)), 3u);
    }
    // Without either, the hardware thread count.
    EXPECT_GE(bench::jobs(1, const_cast<char **>(bare)), 1u);
}

TEST(BenchEdge, EngineSelection)
{
    EXPECT_EQ(bench::engine().engine, ClusterEngine::Sequential);
    EXPECT_EQ(bench::engine().workers, 0u);

    const ScopedEnv engine("KRISP_ENGINE", "parallel");
    const ScopedEnv workers("KRISP_ENGINE_WORKERS", "3");
    EXPECT_EQ(bench::engine().engine, ClusterEngine::Parallel);
    EXPECT_EQ(bench::engine().workers, 3u);
    // The window stays the lookahead: no variable sets it.
    EXPECT_EQ(bench::engine().windowNs, 0u);
    ::setenv("KRISP_ENGINE", "sequential", 1);
    EXPECT_EQ(bench::engine().engine, ClusterEngine::Sequential);
}

TEST(BenchEdgeDeath, MalformedValuesExitNamingTheirOrigin)
{
    const char *flag[] = {"bench", "--jobs", "abc"};
    EXPECT_EXIT(bench::jobs(3, const_cast<char **>(flag)),
                ::testing::ExitedWithCode(1), "invalid --jobs value");
    const char *bare[] = {"bench"};
    {
        const ScopedEnv jobs("KRISP_JOBS", "4097");
        EXPECT_EXIT(bench::jobs(1, const_cast<char **>(bare)),
                    ::testing::ExitedWithCode(1),
                    "invalid KRISP_JOBS value '4097'");
    }
    {
        const ScopedEnv engine("KRISP_ENGINE", "sometimes");
        EXPECT_EXIT(bench::env::checkAll(), ::testing::ExitedWithCode(1),
                    "invalid KRISP_ENGINE value 'sometimes'");
    }
    {
        const ScopedEnv rate("KRISP_FAULT_RATE", "abc");
        EXPECT_EXIT(bench::env::checkAll(), ::testing::ExitedWithCode(1),
                    "invalid KRISP_FAULT_RATE value 'abc'");
    }
    {
        const ScopedEnv stale("KRISP_RECONFIG_POLICY", "group");
        EXPECT_EXIT(bench::env::checkAll(), ::testing::ExitedWithCode(1),
                    "unknown environment variable KRISP_RECONFIG_POLICY");
    }
}

// ---- ExperimentContext: one cache, filled on the pool -----------

ServerConfig
tinyBase()
{
    ServerConfig base;
    base.batch = 8;
    base.warmupRequests = 1;
    base.measuredRequests = 2;
    return base;
}

void
expectSamePoint(const EvalPoint &a, const EvalPoint &b)
{
    // Simulated-time results are exactly reproducible, so compare
    // bitwise, not approximately.
    EXPECT_EQ(a.totalRps, b.totalRps);
    EXPECT_EQ(a.normalizedRps, b.normalizedRps);
    EXPECT_EQ(a.p95Ms, b.p95Ms);
    EXPECT_EQ(a.sloMs, b.sloMs);
    EXPECT_EQ(a.energyPerInferenceJ, b.energyPerInferenceJ);
    EXPECT_EQ(a.avgPowerW, b.avgPowerW);
}

TEST(ExperimentContext, PrefetchMatchesSequentialEvaluate)
{
    // evaluate() after prefetch() replays cached pooled results; for
    // plain, overlap-limited and mixed-pair runs they must equal a
    // never-prefetched sequential context bitwise, at any job count.
    std::vector<EvalSpec> specs;
    for (const char *model : {"squeezenet", "alexnet"})
        for (const PartitionPolicy policy :
             {PartitionPolicy::MpsDefault,
              PartitionPolicy::KrispIsolated})
            for (const unsigned w : {1u, 2u})
                specs.push_back({model, policy, w, std::nullopt});
    specs.push_back(
        {"squeezenet", PartitionPolicy::KrispIsolated, 2, 8u});
    const std::vector<std::pair<std::string, std::string>> pairs = {
        {"squeezenet", "alexnet"}};
    const std::vector<PartitionPolicy> pairPolicies = {
        PartitionPolicy::MpsDefault, PartitionPolicy::KrispIsolated};

    ExperimentContext seq(tinyBase());
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        ExperimentContext par(tinyBase());
        par.prefetch(specs, jobs);
        par.prefetchMixedPairs(pairs, pairPolicies, jobs);

        for (const EvalSpec &spec : specs) {
            SCOPED_TRACE(spec.model + " x" +
                         std::to_string(spec.workers));
            if (spec.overlapLimit) {
                expectSamePoint(
                    seq.evaluateWithOverlap(spec.model, spec.policy,
                                            spec.workers,
                                            *spec.overlapLimit),
                    par.evaluateWithOverlap(spec.model, spec.policy,
                                            spec.workers,
                                            *spec.overlapLimit));
            } else {
                expectSamePoint(
                    seq.evaluate(spec.model, spec.policy,
                                 spec.workers),
                    par.evaluate(spec.model, spec.policy,
                                 spec.workers));
            }
        }
        for (const auto &[a, b] : pairs)
            for (const PartitionPolicy policy : pairPolicies)
                EXPECT_EQ(seq.evaluateMixedPair(a, b, policy),
                          par.evaluateMixedPair(a, b, policy));
    }
}

TEST(ExperimentContext, MpsDefaultOneWorkerIsTheIsolatedRun)
{
    // One worker under MPS default is the isolated baseline's config,
    // so evaluate() simulates it once for both: its trace holds the
    // records of one run, as a lone isolated() run does.
    ServerConfig base = tinyBase();
    ObsContext isolatedObs;
    base.obs = &isolatedObs;
    ExperimentContext baseline(base);
    const ServerResult &iso = baseline.isolated("squeezenet");
    ASSERT_GT(isolatedObs.trace.size(), 0u);

    ObsContext evalObs;
    base.obs = &evalObs;
    ExperimentContext ctx(base);
    const EvalPoint p =
        ctx.evaluate("squeezenet", PartitionPolicy::MpsDefault, 1);
    EXPECT_EQ(evalObs.trace.size(), isolatedObs.trace.size());
    EXPECT_EQ(p.totalRps, iso.totalRps);
    EXPECT_EQ(p.p95Ms, iso.maxP95Ms);
    EXPECT_EQ(p.energyPerInferenceJ, iso.energyPerInferenceJ);
    EXPECT_EQ(p.normalizedRps, 1.0);
    EXPECT_EQ(p.energyRatio, 1.0);
    EXPECT_EQ(p.sloMs, 2.0 * iso.maxP95Ms);
}

} // namespace
} // namespace krisp
