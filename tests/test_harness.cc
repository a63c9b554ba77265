/**
 * @file
 * Tests for the parallel experiment harness: worker pool semantics
 * (ordering, exception propagation) and the determinism guarantee —
 * merged results and per-run artifacts are identical for any thread
 * count — plus the benches' environment edge (bench_util.hh), which
 * resolves the job count and checks every KRISP_* variable.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "harness/parallel_runner.hh"
#include "harness/worker_pool.hh"
#include "server/experiment.hh"

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

// ---- determinism: thread-count invariance -----------------------

ServerConfig
tinyConfig(const std::string &model, PartitionPolicy policy,
           unsigned workers)
{
    ServerConfig cfg;
    cfg.workerModels.assign(workers, model);
    cfg.batch = 8;
    cfg.policy = policy;
    cfg.warmupRequests = 1;
    cfg.measuredRequests = 2;
    return cfg;
}

std::vector<harness::RunSpec>
tinySweep()
{
    std::vector<harness::RunSpec> specs;
    for (const char *model : {"squeezenet", "alexnet"}) {
        for (const PartitionPolicy policy :
             {PartitionPolicy::MpsDefault,
              PartitionPolicy::KrispIsolated}) {
            for (const unsigned w : {1u, 2u}) {
                specs.push_back(harness::RunSpec{
                    std::string(model) + "/" +
                        std::to_string(static_cast<int>(policy)) +
                        "/x" + std::to_string(w),
                    tinyConfig(model, policy, w),
                    /*collectMetrics=*/true, /*collectTrace=*/true,
                    {}});
            }
        }
    }
    return specs;
}

TEST(ParallelRunner, ThreadCountInvariance)
{
    // The reference: the whole sweep run strictly sequentially.
    std::vector<harness::RunOutcome> ref =
        harness::runAll(tinySweep(), 1);

    for (const unsigned jobs : {2u, 8u}) {
        std::vector<harness::RunOutcome> got =
            harness::runAll(tinySweep(), jobs);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs) + " spec " +
                         ref[i].tag);
            EXPECT_EQ(got[i].tag, ref[i].tag);
            // Simulated-time results are exactly reproducible, so
            // compare bitwise, not approximately.
            EXPECT_EQ(got[i].result.totalRps, ref[i].result.totalRps);
            EXPECT_EQ(got[i].result.maxP95Ms, ref[i].result.maxP95Ms);
            EXPECT_EQ(got[i].result.energyPerInferenceJ,
                      ref[i].result.energyPerInferenceJ);
            EXPECT_EQ(got[i].result.completed, ref[i].result.completed);
            ASSERT_TRUE(got[i].obs != nullptr);
            ASSERT_TRUE(ref[i].obs != nullptr);
            // Byte-identical artifacts: metrics snapshot and trace.
            EXPECT_EQ(got[i].obs->metrics.toJson(),
                      ref[i].obs->metrics.toJson());
            EXPECT_EQ(got[i].obs->trace.toChromeJson(),
                      ref[i].obs->trace.toChromeJson());
        }
    }
}

TEST(ParallelRunner, TraceFilesAreWrittenPerRun)
{
    const std::string dir = ::testing::TempDir();
    std::vector<harness::RunSpec> specs;
    specs.push_back(harness::RunSpec{
        "a", tinyConfig("squeezenet", PartitionPolicy::MpsDefault, 1),
        false, false, dir + "harness_a.trace.json"});
    specs.push_back(harness::RunSpec{
        "b", tinyConfig("squeezenet", PartitionPolicy::MpsDefault, 1),
        false, false, dir + "harness_b.trace.json"});
    std::vector<harness::RunOutcome> out =
        harness::runAll(std::move(specs), 2);
    ASSERT_EQ(out.size(), 2u);
    for (const auto &o : out) {
        ASSERT_TRUE(o.obs != nullptr);
        EXPECT_GT(o.obs->trace.size(), 0u);
    }
    // Identical configs -> identical serialised traces.
    EXPECT_EQ(out[0].obs->trace.toChromeJson(),
              out[1].obs->trace.toChromeJson());
}

TEST(ParallelRunner, MetricsOnlySpecDisablesTrace)
{
    std::vector<harness::RunSpec> specs;
    specs.push_back(harness::RunSpec{
        "m", tinyConfig("squeezenet", PartitionPolicy::MpsDefault, 1),
        /*collectMetrics=*/true, /*collectTrace=*/false, {}});
    std::vector<harness::RunOutcome> out =
        harness::runAll(std::move(specs), 1);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_TRUE(out[0].obs != nullptr);
    EXPECT_EQ(out[0].obs->trace.size(), 0u);
    EXPECT_GT(out[0].obs->metrics.gauge("sim.events_fired").value(),
              0.0);
}

TEST(ParallelRunner, PrefetchMatchesSequentialEvaluate)
{
    // evaluate() after prefetch() replays cached parallel results;
    // they must equal a never-prefetched sequential context bitwise.
    ServerConfig base;
    base.batch = 8;
    base.warmupRequests = 1;
    base.measuredRequests = 2;

    std::vector<EvalSpec> specs;
    for (const unsigned w : {1u, 2u})
        specs.push_back(
            {"squeezenet", PartitionPolicy::KrispIsolated, w, {}});

    ExperimentContext seq(base);
    ExperimentContext par(base);
    par.prefetch(specs, 4);

    for (const EvalSpec &spec : specs) {
        const EvalPoint a =
            seq.evaluate(spec.model, spec.policy, spec.workers);
        const EvalPoint b =
            par.evaluate(spec.model, spec.policy, spec.workers);
        EXPECT_EQ(a.totalRps, b.totalRps);
        EXPECT_EQ(a.normalizedRps, b.normalizedRps);
        EXPECT_EQ(a.p95Ms, b.p95Ms);
        EXPECT_EQ(a.sloMs, b.sloMs);
        EXPECT_EQ(a.energyPerInferenceJ, b.energyPerInferenceJ);
    }
}

} // namespace
} // namespace krisp
