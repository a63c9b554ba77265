/**
 * @file
 * Placement-search test suite (search/): shard-order invariance of
 * the canonical ClusterConfig fingerprint, candidate
 * canonicalisation, the two dedup layers of the eval cache
 * (cross-chain promise sharing + warm JSON snapshots, whose malformed
 * keys fail loudly), cold-vs-warm search equivalence, --jobs
 * byte-identity of the annealer, the engine worker clamp, and the
 * krisp-report placement section.
 *
 * Ground truth is injected (setSimFn) wherever the property under
 * test is about the search machinery, so the suite stays fast and
 * the expected values are exact.
 */

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_server.hh"
#include "cluster/parallel_engine.hh"
#include "obs/json_parse.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "search/annealer.hh"

namespace krisp
{
namespace
{

/** Two-model, three-shard problem used across the suite. */
PlacementProblem
smallProblem()
{
    PlacementProblem problem;
    problem.models = {"resnet152", "squeezenet"};
    problem.weights = {1, 2};
    problem.numShards = 3;
    problem.base.arrivalRatePerSec = 200.0;
    problem.base.warmupNs = ticksFromMs(20);
    problem.base.measureNs = ticksFromMs(100);
    problem.base.maxSimNs = ticksFromSec(10.0);
    problem.base.seed = 11;
    return problem;
}

/**
 * Deterministic stand-in for ClusterServer: a pure function of the
 * canonical fingerprint, so permutation-equal configs get equal
 * outcomes and distinct configs (almost surely) do not.
 */
SimOutcome
fakeSim(const ClusterConfig &config)
{
    const std::uint64_t fp = config.fingerprint();
    SimOutcome out;
    out.p50Ms = 1.0 + static_cast<double>(fp % 97) * 0.1;
    out.p95Ms = out.p50Ms * 2.0;
    out.p99Ms = out.p50Ms * 3.0;
    out.energyPerRequestJ =
        0.2 + static_cast<double>(fp % 13) * 0.01;
    return out;
}

// ---- fingerprint ---------------------------------------------------

TEST(Fingerprint, ShardOrderInvariant)
{
    PlacementProblem problem = smallProblem();

    // resnet on shards {0,2}, squeezenet on {1}; caps 16/0/32.
    ClusterConfig a = problem.base;
    a.numShards = 3;
    a.models = {"resnet152", "squeezenet"};
    a.modelHomes = {{0, 2}, {1}};
    a.shardGrantCapCus = {16, 0, 32};

    // Relabel shards by the cycle old->new: 0->1, 1->2, 2->0. The
    // same physical cluster, different indices.
    ClusterConfig b = a;
    b.modelHomes = {{1, 0}, {2}};
    b.shardGrantCapCus = {32, 16, 0};

    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    // Home-list order within one model is immaterial too.
    ClusterConfig c = a;
    c.modelHomes = {{2, 0}, {1}};
    EXPECT_EQ(a.fingerprint(), c.fingerprint());
}

TEST(Fingerprint, SensitiveToEveryKnob)
{
    // One row per member a caller can set: ClusterConfig's own
    // fields, every FaultPlan member and every ResilienceConfig
    // member (both admission buckets). A live field missing from the
    // hash would let the eval cache serve a stale outcome.
    using Edit = void (*)(ClusterConfig &);
    const std::vector<std::pair<const char *, Edit>> rows = {
        {"numShards",
         [](ClusterConfig &c) {
             c.numShards = 4;
             c.shardGrantCapCus.push_back(0); // one cap per shard
         }},
        {"routing",
         [](ClusterConfig &c) { c.routing = RoutingPolicy::RoundRobin; }},
        {"models",
         [](ClusterConfig &c) { c.models[1] = "shufflenet"; }},
        {"modelHomes",
         [](ClusterConfig &c) { c.modelHomes = {{0, 1}, {1}}; }},
        {"workersPerShard",
         [](ClusterConfig &c) { c.workersPerShard = 3; }},
        {"policy",
         [](ClusterConfig &c) { c.policy = PartitionPolicy::MpsDefault; }},
        {"enforcement",
         [](ClusterConfig &c) {
             c.enforcement = EnforcementMode::Emulated;
         }},
        {"arrivalRatePerSec",
         [](ClusterConfig &c) { c.arrivalRatePerSec += 1.0; }},
        {"maxBatch", [](ClusterConfig &c) { c.maxBatch = 9; }},
        {"batchTimeoutNs",
         [](ClusterConfig &c) { c.batchTimeoutNs += 1; }},
        {"queueCapacity",
         [](ClusterConfig &c) { c.queueCapacity += 1; }},
        {"warmupNs", [](ClusterConfig &c) { c.warmupNs += 1; }},
        {"measureNs", [](ClusterConfig &c) { c.measureNs += 1; }},
        {"maxSimNs", [](ClusterConfig &c) { c.maxSimNs += 1; }},
        {"seed", [](ClusterConfig &c) { c.seed += 1; }},
        {"preprocessNs", [](ClusterConfig &c) { c.preprocessNs += 1; }},
        {"postprocessNs",
         [](ClusterConfig &c) { c.postprocessNs += 1; }},
        {"requestDeadlineNs",
         [](ClusterConfig &c) { c.requestDeadlineNs = 1; }},
        {"batchWatchdogNs",
         [](ClusterConfig &c) { c.batchWatchdogNs = 1; }},
        {"reconfig",
         [](ClusterConfig &c) {
             c.reconfig = c.reconfig == ReconfigPolicy::Group
                              ? ReconfigPolicy::Always
                              : ReconfigPolicy::Group;
         }},
        {"shardGrantCapCus",
         [](ClusterConfig &c) { c.shardGrantCapCus = {16, 0, 40}; }},
        {"failoverHangThreshold",
         [](ClusterConfig &c) { c.failoverHangThreshold += 1; }},
        {"drainNs", [](ClusterConfig &c) { c.drainNs += 1; }},
        {"readmitGraceNs",
         [](ClusterConfig &c) { c.readmitGraceNs += 1; }},
        {"interactiveFraction",
         [](ClusterConfig &c) { c.interactiveFraction = 0.5; }},
        {"sloMs", [](ClusterConfig &c) { c.sloMs = 50.0; }},

        {"faults.seed", [](ClusterConfig &c) { c.faults.seed += 1; }},
        {"faults.kernelHangProb",
         [](ClusterConfig &c) { c.faults.kernelHangProb = 0.01; }},
        {"faults.kernelSlowProb",
         [](ClusterConfig &c) { c.faults.kernelSlowProb = 0.01; }},
        {"faults.kernelSlowFactor",
         [](ClusterConfig &c) { c.faults.kernelSlowFactor += 1; }},
        {"faults.ioctlFailProb",
         [](ClusterConfig &c) { c.faults.ioctlFailProb = 0.01; }},
        {"faults.ioctlFailBurst",
         [](ClusterConfig &c) { c.faults.ioctlFailBurst = 1; }},
        {"faults.ioctlDelayProb",
         [](ClusterConfig &c) { c.faults.ioctlDelayProb = 0.01; }},
        {"faults.ioctlDelayFactor",
         [](ClusterConfig &c) { c.faults.ioctlDelayFactor += 1; }},
        {"faults.signalLossProb",
         [](ClusterConfig &c) { c.faults.signalLossProb = 0.01; }},
        {"faults.stallProb",
         [](ClusterConfig &c) { c.faults.stallProb = 0.01; }},
        {"faults.stallNs", [](ClusterConfig &c) { c.faults.stallNs += 1; }},
        {"faults.shardCrashRatePerSec",
         [](ClusterConfig &c) { c.faults.shardCrashRatePerSec = 1.0; }},
        {"faults.shardRestartNs",
         [](ClusterConfig &c) { c.faults.shardRestartNs += 1; }},
        {"faults.watchdogTimeoutNs",
         [](ClusterConfig &c) { c.faults.watchdogTimeoutNs += 1; }},

        {"resilience.enabled",
         [](ClusterConfig &c) { c.resilience.enabled = true; }},
        {"resilience.admission[interactive].ratePerSec",
         [](ClusterConfig &c) {
             c.resilience.admission[0].ratePerSec = 100.0;
         }},
        {"resilience.admission[interactive].burst",
         [](ClusterConfig &c) { c.resilience.admission[0].burst += 1; }},
        {"resilience.admission[batch].ratePerSec",
         [](ClusterConfig &c) {
             c.resilience.admission[1].ratePerSec = 100.0;
         }},
        {"resilience.admission[batch].burst",
         [](ClusterConfig &c) { c.resilience.admission[1].burst += 1; }},
        {"resilience.brownoutHighWatermark",
         [](ClusterConfig &c) { c.resilience.brownoutHighWatermark += 1; }},
        {"resilience.brownoutLowWatermark",
         [](ClusterConfig &c) { c.resilience.brownoutLowWatermark += 1; }},
        {"resilience.brownoutSustain",
         [](ClusterConfig &c) { c.resilience.brownoutSustain += 1; }},
        {"resilience.brownoutRelax",
         [](ClusterConfig &c) { c.resilience.brownoutRelax += 1; }},
        {"resilience.brownoutCheckNs",
         [](ClusterConfig &c) { c.resilience.brownoutCheckNs += 1; }},
        {"resilience.degradedGrantCapCus",
         [](ClusterConfig &c) { c.resilience.degradedGrantCapCus += 1; }},
        {"resilience.retryBudgetRatio",
         [](ClusterConfig &c) { c.resilience.retryBudgetRatio += 0.1; }},
        {"resilience.retryBudgetFloor",
         [](ClusterConfig &c) { c.resilience.retryBudgetFloor += 1; }},
        {"resilience.maxAttempts",
         [](ClusterConfig &c) { c.resilience.maxAttempts += 1; }},
        {"resilience.breakerFailureThreshold",
         [](ClusterConfig &c) {
             c.resilience.breakerFailureThreshold += 1;
         }},
        {"resilience.breakerCooldownNs",
         [](ClusterConfig &c) { c.resilience.breakerCooldownNs += 1; }},
        {"resilience.rerouteBackoffNs",
         [](ClusterConfig &c) { c.resilience.rerouteBackoffNs += 1; }},
        {"resilience.hedging",
         [](ClusterConfig &c) { c.resilience.hedging = true; }},
        {"resilience.hedgeQuantile",
         [](ClusterConfig &c) { c.resilience.hedgeQuantile = 0.9; }},
        {"resilience.hedgeMinSamples",
         [](ClusterConfig &c) { c.resilience.hedgeMinSamples += 1; }},
        {"resilience.hedgeMinDelayNs",
         [](ClusterConfig &c) { c.resilience.hedgeMinDelayNs += 1; }},
    };
    static_assert(numPriorityClasses == 2 &&
                      PriorityClass::Interactive == PriorityClass{0} &&
                      PriorityClass::Batch == PriorityClass{1},
                  "one admission row pair per priority class");

    ClusterConfig base = smallProblem().base;
    base.numShards = 3;
    base.models = {"resnet152", "squeezenet"};
    base.modelHomes = {{0, 2}, {1}};
    base.shardGrantCapCus = {16, 0, 32};
    ASSERT_NE(base.routing, RoutingPolicy::RoundRobin);
    const std::uint64_t fp = base.fingerprint();
    for (const auto &[name, edit] : rows) {
        ClusterConfig edited = base;
        edit(edited);
        EXPECT_NE(fp, edited.fingerprint()) << name;
    }

    // Taps and execution strategy are not the experiment.
    ObsContext obs;
    ClusterConfig tapped = base;
    tapped.obs = &obs;
    tapped.engine.engine = ClusterEngine::Parallel;
    tapped.engine.workers = 3;
    EXPECT_EQ(fp, tapped.fingerprint());
}

TEST(Fingerprint, EngineSelectionIsExcluded)
{
    // The engine executes the run; it does not define the workload.
    // A parallel-engine replay must hit the cache entries written by
    // a sequential run.
    PlacementProblem problem = smallProblem();
    ClusterConfig a = problem.base;
    ClusterConfig b = a;
    b.engine.engine = ClusterEngine::Parallel;
    b.engine.workers = 7;
    b.engine.windowNs = 123;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

// ---- candidate canonicalisation ------------------------------------

TEST(Candidate, PermutedCandidatesCanonicaliseIdentically)
{
    PlacementProblem problem = smallProblem();

    PlacementCandidate a;
    a.homes = {0b101, 0b010}; // resnet {0,2}, squeeze {1}
    a.grantCapCus = {16, 0, 32};
    a.routing = RoutingPolicy::ModelAffinity;
    a.reconfig = ReconfigPolicy::Elide;

    // Same cluster under the relabeling 0->1, 1->2, 2->0.
    PlacementCandidate b = a;
    b.homes = {0b011, 0b100}; // resnet {1,0}, squeeze {2}
    b.grantCapCus = {32, 16, 0};

    const PlacementCandidate ca = a.canonical(problem);
    const PlacementCandidate cb = b.canonical(problem);
    EXPECT_EQ(ca.homes, cb.homes);
    EXPECT_EQ(ca.grantCapCus, cb.grantCapCus);
    EXPECT_EQ(a.fingerprint(problem), b.fingerprint(problem));

    // Identical canonical operands => bit-equal surrogate scores.
    SurrogateModel surrogate(problem);
    EXPECT_EQ(surrogate.score(a), surrogate.score(b));
}

// ---- eval cache ----------------------------------------------------

TEST(EvalCache, PermutationsShareOneComputation)
{
    PlacementProblem problem = smallProblem();

    PlacementCandidate a;
    a.homes = {0b101, 0b010};
    a.grantCapCus = {16, 0, 32};
    PlacementCandidate b = a;
    b.homes = {0b011, 0b100};
    b.grantCapCus = {32, 16, 0};

    EvalCache cache;
    std::atomic<int> computed{0};
    const auto compute = [&] {
        ++computed;
        return fakeSim(a.toClusterConfig(problem));
    };
    const SimOutcome oa =
        cache.getOrCompute(a.fingerprint(problem), compute);
    const SimOutcome ob =
        cache.getOrCompute(b.fingerprint(problem), compute);

    EXPECT_EQ(computed.load(), 1);
    EXPECT_EQ(oa.p99Ms, ob.p99Ms);
    EXPECT_EQ(oa.energyPerRequestJ, ob.energyPerRequestJ);
    const EvalCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.crossChainHits, 1u);
    EXPECT_EQ(stats.warmHits, 0u);
}

TEST(EvalCache, JsonRoundTripPreservesOutcomes)
{
    const std::string path =
        testing::TempDir() + "krisp_eval_cache_roundtrip.json";
    std::remove(path.c_str());

    EvalCache cold;
    SimOutcome out;
    out.p50Ms = 1.25;
    out.p95Ms = 7.5;
    out.p99Ms = 12.125;
    out.energyPerRequestJ = 0.4375;
    out.dropRate = 0.03125;
    out.availability = 0.96875;
    cold.getOrCompute(0xdeadbeefULL, [&] { return out; });
    cold.getOrCompute(0x42ULL, [&] { return SimOutcome{}; });
    cold.saveJson(path);

    EvalCache warm;
    ASSERT_TRUE(warm.loadJson(path));
    EXPECT_EQ(warm.size(), 2u);
    bool computed = false;
    const SimOutcome back =
        warm.getOrCompute(0xdeadbeefULL, [&] {
            computed = true;
            return SimOutcome{};
        });
    EXPECT_FALSE(computed);
    EXPECT_EQ(back.p50Ms, out.p50Ms);
    EXPECT_EQ(back.p95Ms, out.p95Ms);
    EXPECT_EQ(back.p99Ms, out.p99Ms);
    EXPECT_EQ(back.energyPerRequestJ, out.energyPerRequestJ);
    EXPECT_EQ(back.dropRate, out.dropRate);
    EXPECT_EQ(back.availability, out.availability);
    EXPECT_EQ(warm.stats().warmHits, 1u);
    std::remove(path.c_str());
}

/** Every outcome field of a well-formed cache entry. */
constexpr const char *kOutcome =
    "\"p50_ms\": 1, \"p95_ms\": 2, \"p99_ms\": 3, \"energy_j\": 0.5, "
    "\"drop_rate\": 0.25, \"availability\": 0.75";

TEST(EvalCache, OtherLayoutSnapshotLoadsNothingAndIsNotSavedBack)
{
    // A snapshot of another fingerprint layout, or of none, names no
    // config this build asks for: none of its entries may load or be
    // written back beside the entries this run computes.
    const std::string path =
        testing::TempDir() + "krisp_eval_cache_layout.json";
    for (const char *layout : {"\"fingerprint_layout\": 1, ", ""}) {
        const bool none = *layout == '\0';
        SCOPED_TRACE(none ? "no layout" : layout);
        {
            std::ofstream out(path);
            out << "{\"version\": 1, " << layout
                << "\"entries\": [\n"
                   "  {\"fp\": \"0x00000000deadbeef\", "
                << kOutcome << "}\n]}\n";
        }
        EvalCache stale;
        testing::internal::CaptureStderr();
        EXPECT_FALSE(stale.loadJson(path));
        const std::string warning = testing::internal::GetCapturedStderr();
        EXPECT_NE(warning.find(none ? "fingerprint layout none"
                                    : "fingerprint layout 1"),
                  std::string::npos)
            << warning;
        EXPECT_NE(warning.find("this build's is " +
                               std::to_string(fingerprintVersion)),
                  std::string::npos)
            << warning;
        EXPECT_EQ(stale.size(), 0u);
        stale.getOrCompute(0x42ULL, [] { return SimOutcome{}; });
        EXPECT_EQ(stale.stats().warmHits, 0u);
        stale.saveJson(path);

        EvalCache saved;
        ASSERT_TRUE(saved.loadJson(path));
        EXPECT_EQ(saved.size(), 1u);
        bool computed = false;
        saved.getOrCompute(0xdeadbeefULL, [&] {
            computed = true;
            return SimOutcome{};
        });
        EXPECT_TRUE(computed);
    }
    std::remove(path.c_str());
}

TEST(EvalCacheDeath, MalformedKeyNamesFileAndEntry)
{
    // A key that does not parse must not alias another config's
    // entry (strtoull read "zz" as key 0).
    const std::string path =
        testing::TempDir() + "krisp_eval_cache_bad_key.json";
    {
        std::ofstream out(path);
        out << "{\"version\": 1, \"fingerprint_layout\": "
            << fingerprintVersion << ", \"entries\": [\n"
               "  {\"fp\": \"0x00000000deadbeef\", " << kOutcome
            << "},\n"
               "  {\"fp\": \"zz\", " << kOutcome << "}\n"
               "]}\n";
    }
    EvalCache cache;
    EXPECT_EXIT(cache.loadJson(path), ::testing::ExitedWithCode(1),
                "krisp_eval_cache_bad_key\\.json entries\\[1\\]\\.fp "
                "value 'zz'");
    std::remove(path.c_str());
}

/**
 * Write a two-entry cache whose second entry carries @p outcome in
 * place of a well-formed one; @return the file's path.
 */
std::string
writeCacheWithOutcome(const std::string &name, const std::string &outcome)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream out(path);
    out << "{\"version\": 1, \"fingerprint_layout\": "
        << fingerprintVersion << ", \"entries\": [\n"
           "  {\"fp\": \"0x00000000deadbeef\", " << kOutcome << "},\n"
           "  {\"fp\": \"0x0000000000000042\", " << outcome << "}\n"
           "]}\n";
    return path;
}

TEST(EvalCacheDeath, StringOutcomeFieldNamesFileEntryAndField)
{
    // "abc" used to load as 0 ms and count as a warm, trusted hit.
    const std::string path = writeCacheWithOutcome(
        "krisp_eval_cache_string_field.json",
        "\"p50_ms\": 1, \"p95_ms\": 2, \"p99_ms\": \"abc\", "
        "\"energy_j\": 0.5, \"drop_rate\": 0, \"availability\": 1");
    EvalCache cache;
    EXPECT_EXIT(cache.loadJson(path), ::testing::ExitedWithCode(1),
                "krisp_eval_cache_string_field\\.json "
                "entries\\[1\\]\\.p99_ms is not a finite number");
    std::remove(path.c_str());
}

TEST(EvalCacheDeath, MissingOutcomeFieldNamesFileEntryAndField)
{
    const std::string path = writeCacheWithOutcome(
        "krisp_eval_cache_missing_field.json",
        "\"p50_ms\": 1, \"p95_ms\": 2, \"p99_ms\": 3, "
        "\"drop_rate\": 0, \"availability\": 1");
    EvalCache cache;
    EXPECT_EXIT(cache.loadJson(path), ::testing::ExitedWithCode(1),
                "krisp_eval_cache_missing_field\\.json "
                "entries\\[1\\]\\.energy_j is missing");
    std::remove(path.c_str());
}

TEST(EvalCacheDeath, AvailabilityAboveOneNamesFileEntryAndField)
{
    // Availability is completed / (completed + dropped + failed).
    const std::string path = writeCacheWithOutcome(
        "krisp_eval_cache_ratio_field.json",
        "\"p50_ms\": 1, \"p95_ms\": 2, \"p99_ms\": 3, "
        "\"energy_j\": 0.5, \"drop_rate\": 0, \"availability\": 1.5");
    EvalCache cache;
    EXPECT_EXIT(cache.loadJson(path), ::testing::ExitedWithCode(1),
                "krisp_eval_cache_ratio_field\\.json "
                "entries\\[1\\]\\.availability value 1\\.5 is a "
                "ratio above 1");
    std::remove(path.c_str());
}

// ---- annealer ------------------------------------------------------

SearchConfig
smallSearch(const std::string &cache_path = "")
{
    SearchConfig search;
    search.chains = 3;
    search.stepsPerChain = 10;
    search.seed = 5;
    search.cachePath = cache_path;
    return search;
}

TEST(Search, WarmRerunExecutesZeroSimsAndAgrees)
{
    PlacementProblem problem = smallProblem();
    const std::string path =
        testing::TempDir() + "krisp_search_warm.json";
    std::remove(path.c_str());

    PlacementSearch cold_search(problem, smallSearch(path));
    std::atomic<int> cold_sims{0};
    cold_search.setSimFn([&](const ClusterConfig &cfg) {
        ++cold_sims;
        return fakeSim(cfg);
    });
    const SearchResult cold = cold_search.run(2);
    EXPECT_GT(cold_sims.load(), 0);
    EXPECT_EQ(cold.cache.warmHits, 0u);
    EXPECT_EQ(static_cast<int>(cold.cache.executed),
              cold_sims.load());

    PlacementSearch warm_search(problem, smallSearch(path));
    std::atomic<int> warm_sims{0};
    warm_search.setSimFn([&](const ClusterConfig &cfg) {
        ++warm_sims;
        return fakeSim(cfg);
    });
    const SearchResult warm = warm_search.run(2);
    EXPECT_EQ(warm_sims.load(), 0);
    EXPECT_EQ(warm.cache.executed, 0u);
    EXPECT_GT(warm.cache.warmHits, 0u);
    EXPECT_EQ(warm.winnerFingerprint, cold.winnerFingerprint);
    EXPECT_EQ(warm.winnerCost, cold.winnerCost);
    EXPECT_EQ(warm.generated, cold.generated);
    EXPECT_EQ(warm.pruned, cold.pruned);
    std::remove(path.c_str());
}

TEST(Search, ResultIsJobsInvariant)
{
    PlacementProblem problem = smallProblem();

    SearchResult results[2];
    const unsigned jobs[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        PlacementSearch search(problem, smallSearch());
        search.setSimFn(fakeSim);
        results[i] = search.run(jobs[i]);
    }
    EXPECT_EQ(results[0].winnerFingerprint,
              results[1].winnerFingerprint);
    EXPECT_EQ(results[0].winnerCost, results[1].winnerCost);
    EXPECT_EQ(results[0].generated, results[1].generated);
    EXPECT_EQ(results[0].pruned, results[1].pruned);
    EXPECT_EQ(results[0].surrogateEvals, results[1].surrogateEvals);
    EXPECT_EQ(results[0].cache.requests, results[1].cache.requests);
    EXPECT_EQ(results[0].cache.executed, results[1].cache.executed);
    EXPECT_EQ(results[0].cache.crossChainHits,
              results[1].cache.crossChainHits);
    ASSERT_EQ(results[0].chains.size(), results[1].chains.size());
    for (std::size_t c = 0; c < results[0].chains.size(); ++c) {
        EXPECT_EQ(results[0].chains[c].bestCost,
                  results[1].chains[c].bestCost);
        EXPECT_EQ(results[0].chains[c].accepted,
                  results[1].chains[c].accepted);
        EXPECT_EQ(results[0].chains[c].pruned,
                  results[1].chains[c].pruned);
        EXPECT_EQ(results[0].chains[c].bestTrace,
                  results[1].chains[c].bestTrace);
    }
}

TEST(Search, GroundTruthPermutationCostsAgreeThroughCache)
{
    // The ISSUE-level property, end to end with the *real*
    // simulator: permuted placements share a fingerprint, so the
    // cache serves both from one sim and their costs are equal by
    // construction.
    PlacementProblem problem = smallProblem();
    PlacementCandidate a;
    a.homes = {0b101, 0b010};
    a.grantCapCus = {0, 0, 0};
    PlacementCandidate b = a;
    b.homes = {0b011, 0b100};

    EvalCache cache;
    int sims = 0;
    const auto eval = [&](const PlacementCandidate &cand) {
        return cache.getOrCompute(cand.fingerprint(problem), [&] {
            ++sims;
            return PlacementSearch::simulate(
                cand.toClusterConfig(problem));
        });
    };
    const double cost_a = placementCost(eval(a));
    const double cost_b = placementCost(eval(b));
    EXPECT_EQ(sims, 1);
    EXPECT_EQ(cost_a, cost_b);
    EXPECT_GT(cost_a, 0.0);
}

// ---- engine worker clamp -------------------------------------------

TEST(EngineWorkers, OversubscriptionClampsToHardware)
{
    EngineConfig config;
    config.engine = ClusterEngine::Parallel;
    config.workers = 4096;
    const auto fabric = makeClusterFabric(config, 2, 1000);
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    EXPECT_LE(fabric->stats().workersUsed, hw);
    EXPECT_GE(fabric->stats().workersUsed, 1u);
}

// ---- report --------------------------------------------------------

TEST(Report, RendersPlacementSection)
{
    PlacementProblem problem = smallProblem();
    PlacementSearch search(problem, smallSearch());
    search.setSimFn(fakeSim);
    const SearchResult result = search.run(2);

    MetricsRegistry metrics;
    publishPlacementMetrics(metrics, problem, result, 123.0);

    json::Value snapshot;
    std::string error;
    ASSERT_TRUE(json::parse(metrics.toJson(), snapshot, error))
        << error;
    const std::string report =
        generateReport(snapshot, nullptr, {}, ReportOptions{});
    EXPECT_NE(report.find("== placement search =="),
              std::string::npos);
    EXPECT_NE(report.find("best static baseline"),
              std::string::npos);
    EXPECT_NE(report.find("cross-chain hits"), std::string::npos);
    EXPECT_NE(report.find("chain 0"), std::string::npos);

    // A snapshot without placement gauges renders the placeholder.
    json::Value empty;
    ASSERT_TRUE(json::parse("{}", empty, error)) << error;
    const std::string bare =
        generateReport(empty, nullptr, {}, ReportOptions{});
    EXPECT_NE(bare.find("not a search snapshot"),
              std::string::npos);
}

} // namespace
} // namespace krisp
