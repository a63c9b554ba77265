/**
 * @file
 * krisp-placement: run the offline placement search and replay its
 * winners.
 *
 *   krisp_placement search [--shards N] [--models a,b,...]
 *                          [--weights 1,4,...] [--rate RPS]
 *                          [--chains N] [--steps N] [--seed S]
 *                          [--jobs N] [--cache FILE]
 *                          [--plan FILE] [--metrics FILE]
 *   krisp_placement replay --plan FILE
 *
 * `search` anneals over (placement, caps, routing, reconfig) and
 * writes the winning configuration as a JSON plan; `replay` loads a
 * plan, reruns it through ClusterServer and prints the measured
 * cost — the round trip proves a plan is self-contained. Replay
 * checks every plan field and the recorded fingerprint first: a
 * malformed, out-of-range or edited plan exits 1 naming the field.
 * Search checks its numeric flags the same way and names the flag.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/fnv.hh"
#include "common/parse.hh"
#include "obs/json.hh"
#include "obs/json_parse.hh"
#include "obs/metrics.hh"
#include "search/annealer.hh"

using namespace krisp;

namespace
{

/** Largest shard count: a model's homes are a 64-bit shard mask. */
constexpr std::uint64_t maxShards = 64;
/**
 * Largest traffic weight a plan may carry: each unit of weight is one
 * entry in the replayed config's model list.
 */
constexpr std::uint64_t maxPlanWeight = 1000;
/** Largest seed a JSON number (a double) holds exactly: 2^53. */
constexpr std::uint64_t maxPlanSeed = 1ULL << 53;
/** Search effort bounds: chains run at once, steps each. */
constexpr std::uint64_t maxChains = 256;
constexpr std::uint64_t maxSteps = 100000;
constexpr std::uint64_t maxJobs = 4096;

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s search [--shards N] [--models a,b,...]\n"
        "                 [--weights 1,4,...] [--rate RPS]\n"
        "                 [--chains N] [--steps N] [--seed S]\n"
        "                 [--jobs N] [--cache FILE] [--plan FILE]\n"
        "                 [--metrics FILE] [--emulated]\n"
        "       %s replay --plan FILE\n"
        "--shards 1-%llu, each weight 1-%llu, --rate > 0, --chains "
        "1-%llu,\n--steps 1-%llu, --jobs 1-%llu; a bad value exits 1\n",
        argv0, argv0, static_cast<unsigned long long>(maxShards),
        static_cast<unsigned long long>(maxPlanWeight),
        static_cast<unsigned long long>(maxChains),
        static_cast<unsigned long long>(maxSteps),
        static_cast<unsigned long long>(maxJobs));
}

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= arg.size()) {
        const std::size_t comma = arg.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(arg.substr(start));
            break;
        }
        out.push_back(arg.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

/** Short-horizon template the search and its plans share. */
ClusterConfig
searchBase(double rate)
{
    ClusterConfig base;
    base.arrivalRatePerSec = rate;
    base.warmupNs = ticksFromMs(100);
    base.measureNs = ticksFromMs(400);
    base.maxSimNs = ticksFromSec(30.0);
    return base;
}

void
writePlan(const std::string &path, const PlacementProblem &problem,
          const PlacementCandidate &winner, double cost,
          std::uint64_t fingerprint)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write plan: %s\n",
                     path.c_str());
        std::exit(1);
    }
    out << "{\n";
    out << "  \"num_shards\": " << problem.numShards << ",\n";
    // Shortest round-trip decimal: replay must decode the exact rate
    // the fingerprint covers.
    out << "  \"arrival_rate_per_sec\": "
        << json::number(problem.base.arrivalRatePerSec) << ",\n";
    out << "  \"seed\": " << problem.base.seed << ",\n";
    out << "  \"routing\": \""
        << routingPolicyName(winner.routing) << "\",\n";
    out << "  \"reconfig\": \""
        << reconfigPolicyName(winner.reconfig) << "\",\n";
    out << "  \"enforcement\": \""
        << enforcementModeName(problem.base.enforcement) << "\",\n";
    out << "  \"cost\": " << cost << ",\n";
    out << "  \"fingerprint\": \"" << fnvHex(fingerprint)
        << "\",\n";
    out << "  \"models\": [";
    for (unsigned m = 0; m < problem.models.size(); ++m) {
        out << (m != 0 ? ", " : "") << "{\"name\": \""
            << problem.models[m] << "\", \"weight\": "
            << problem.weights[m] << ", \"homes\": [";
        bool first = true;
        for (unsigned s = 0; s < problem.numShards; ++s)
            if (winner.homes[m] & (1ULL << s)) {
                out << (first ? "" : ", ") << s;
                first = false;
            }
        out << "]}";
    }
    out << "],\n";
    out << "  \"grant_cap_cus\": [";
    for (unsigned s = 0; s < problem.numShards; ++s)
        out << (s != 0 ? ", " : "") << winner.grantCapCus[s];
    out << "]\n}\n";
}

/** Exit 1 with a message naming the plan field that is wrong. */
[[noreturn]] void
rejectField(const std::string &field, const std::string &why)
{
    std::fprintf(stderr, "plan field %s: %s\n", field.c_str(),
                 why.c_str());
    std::exit(1);
}

/**
 * The number at @p v; a missing, non-number or non-finite (overflowed)
 * value is rejected.
 */
double
planNumber(const json::Value *v, const std::string &field)
{
    if (v == nullptr)
        rejectField(field, "missing");
    if (!v->isNumber() || !std::isfinite(v->num))
        rejectField(field, "not a finite number");
    return v->num;
}

/**
 * The integer at @p v, checked to lie in [@p lo, @p hi]: fractions,
 * negatives and out-of-range values are rejected, never truncated or
 * wrapped.
 */
std::uint64_t
planInt(const json::Value *v, const std::string &field,
        std::uint64_t lo, std::uint64_t hi)
{
    const double x = planNumber(v, field);
    if (!(x >= static_cast<double>(lo) &&
          x <= static_cast<double>(hi)) ||
        x != std::floor(x))
        rejectField(field, json::number(x) +
                               " is not an integer in [" +
                               std::to_string(lo) + ", " +
                               std::to_string(hi) + "]");
    return static_cast<std::uint64_t>(x);
}

/** The string at @p v; a missing or non-string value is rejected. */
const std::string &
planString(const json::Value *v, const std::string &field)
{
    if (v == nullptr)
        rejectField(field, "missing");
    if (!v->isString())
        rejectField(field, "not a string");
    return v->str;
}

/** The array at @p v; a missing or non-array value is rejected. */
const std::vector<json::Value> &
planArray(const json::Value *v, const std::string &field)
{
    if (v == nullptr)
        rejectField(field, "missing");
    if (!v->isArray())
        rejectField(field, "not an array");
    return v->arr;
}

/**
 * The value among @p all whose name (as @p nameOf prints it, and as
 * writePlan wrote it) is the string at @p v; others are rejected.
 */
template <typename Enum>
Enum
planEnum(const json::Value *v, const std::string &field,
         std::initializer_list<Enum> all, const char *(*nameOf)(Enum))
{
    const std::string &name = planString(v, field);
    for (const Enum e : all)
        if (name == nameOf(e))
            return e;
    rejectField(field, "unknown value: " + name);
}

int
runReplay(const std::string &plan_path)
{
    json::Value plan;
    std::string error;
    if (!json::parseFile(plan_path, plan, error)) {
        std::fprintf(stderr, "cannot read plan %s: %s\n",
                     plan_path.c_str(), error.c_str());
        return 1;
    }

    const double rate = planNumber(plan.find("arrival_rate_per_sec"),
                                   "arrival_rate_per_sec");
    if (!(rate > 0))
        rejectField("arrival_rate_per_sec", "must be positive");
    ClusterConfig cfg = searchBase(rate);
    cfg.numShards = static_cast<unsigned>(
        planInt(plan.find("num_shards"), "num_shards", 1, maxShards));
    cfg.seed = planInt(plan.find("seed"), "seed", 0, maxPlanSeed);
    cfg.routing = planEnum(plan.find("routing"), "routing",
                           {RoutingPolicy::RoundRobin,
                            RoutingPolicy::LeastOutstanding,
                            RoutingPolicy::ModelAffinity},
                           routingPolicyName);
    cfg.reconfig = planEnum(plan.find("reconfig"), "reconfig",
                            {ReconfigPolicy::Always,
                             ReconfigPolicy::Elide,
                             ReconfigPolicy::Group},
                            reconfigPolicyName);
    cfg.enforcement = planEnum(plan.find("enforcement"), "enforcement",
                               {EnforcementMode::Native,
                                EnforcementMode::Emulated},
                               enforcementModeName);

    const auto &models = planArray(plan.find("models"), "models");
    if (models.empty())
        rejectField("models", "empty");
    cfg.models.clear();
    for (std::size_t m = 0; m < models.size(); ++m) {
        const std::string field = "models[" + std::to_string(m) + "]";
        const std::string &name =
            planString(models[m].find("name"), field + ".name");
        if (!ModelZoo::isModel(name))
            rejectField(field + ".name", "unknown model: " + name);
        const std::uint64_t weight = planInt(
            models[m].find("weight"), field + ".weight", 1,
            maxPlanWeight);
        const auto &homes_v =
            planArray(models[m].find("homes"), field + ".homes");
        std::vector<unsigned> homes;
        for (std::size_t h = 0; h < homes_v.size(); ++h)
            homes.push_back(static_cast<unsigned>(planInt(
                &homes_v[h],
                field + ".homes[" + std::to_string(h) + "]", 0,
                cfg.numShards - 1)));
        for (std::uint64_t w = 0; w < weight; ++w) {
            cfg.models.push_back(name);
            cfg.modelHomes.push_back(homes);
        }
    }
    const auto &caps =
        planArray(plan.find("grant_cap_cus"), "grant_cap_cus");
    if (caps.size() != cfg.numShards)
        rejectField("grant_cap_cus",
                    "needs one entry per shard (" +
                        std::to_string(cfg.numShards) + "), has " +
                        std::to_string(caps.size()));
    for (std::size_t s = 0; s < caps.size(); ++s)
        cfg.shardGrantCapCus.push_back(static_cast<unsigned>(
            planInt(&caps[s],
                    "grant_cap_cus[" + std::to_string(s) + "]", 0,
                    ArchParams::mi50().totalCus())));

    // The recorded fingerprint pins the plan to the configuration
    // the search evaluated: a hand-edited plan, or one written under
    // another fingerprint layout, would replay something else.
    const std::string recorded =
        planString(plan.find("fingerprint"), "fingerprint");
    const std::string recomputed = fnvHex(cfg.fingerprint());
    if (recorded != recomputed)
        rejectField("fingerprint",
                    "recorded " + recorded + " but the plan decodes to " +
                        recomputed +
                        " (edited, or written under an older "
                        "fingerprint layout: rerun search)");

    const SimOutcome outcome = PlacementSearch::simulate(cfg);
    std::printf("plan:        %s\n", plan_path.c_str());
    std::printf("fingerprint: %s\n", recomputed.c_str());
    std::printf("p50/p95/p99: %.3f / %.3f / %.3f ms\n",
                outcome.p50Ms, outcome.p95Ms, outcome.p99Ms);
    std::printf("energy:      %.3f J/req\n",
                outcome.energyPerRequestJ);
    std::printf("drop rate:   %.4f\n", outcome.dropRate);
    std::printf("cost:        %.4f\n",
                placementCost(outcome));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(argv[0]);
        return 2;
    }
    const std::string mode = argv[1];

    std::vector<std::string> models = {"resnet152", "squeezenet"};
    std::vector<unsigned> weights;
    unsigned shards = 4;
    double rate = 400.0;
    unsigned jobs = 1;
    std::string cache_path;
    std::string plan_path = "placement_plan.json";
    std::string metrics_path;
    bool emulated = false;
    SearchConfig search;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        // A flag's value must parse whole and lie in its range, or
        // the run exits 1 naming the flag.
        auto count = [&](std::uint64_t lo, std::uint64_t hi) {
            return static_cast<unsigned>(
                parseUnsigned(next(), arg, lo, hi));
        };
        if (arg == "--shards") {
            shards = count(1, maxShards);
        } else if (arg == "--models") {
            models = splitList(next());
        } else if (arg == "--weights") {
            weights.clear();
            for (const std::string &w : splitList(next()))
                weights.push_back(static_cast<unsigned>(
                    parseUnsigned(w, arg, 1, maxPlanWeight)));
        } else if (arg == "--rate") {
            rate = parsePositiveReal(next(), arg);
        } else if (arg == "--chains") {
            search.chains = count(1, maxChains);
        } else if (arg == "--steps") {
            search.stepsPerChain = count(1, maxSteps);
        } else if (arg == "--seed") {
            search.seed = parseUnsigned(next(), arg, 0, UINT64_MAX);
        } else if (arg == "--jobs") {
            jobs = count(1, maxJobs);
        } else if (arg == "--cache") {
            cache_path = next();
        } else if (arg == "--plan") {
            plan_path = next();
        } else if (arg == "--metrics") {
            metrics_path = next();
        } else if (arg == "--emulated") {
            emulated = true;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    if (mode == "replay")
        return runReplay(plan_path);
    if (mode != "search") {
        usage(argv[0]);
        return 2;
    }

    if (weights.empty())
        weights.assign(models.size(), 1);
    PlacementProblem problem;
    problem.models = models;
    problem.weights = weights;
    problem.numShards = shards;
    problem.base = searchBase(rate);
    if (emulated)
        problem.base.enforcement = EnforcementMode::Emulated;
    search.cachePath = cache_path;

    PlacementSearch searcher(problem, search);
    const SearchResult result = searcher.run(jobs);

    std::printf("winner: %s\n",
                result.winner.describe(problem).c_str());
    std::printf("cost %.4f  (p99 %.3f ms, %.3f J/req)\n",
                result.winnerCost, result.winnerOutcome.p99Ms,
                result.winnerOutcome.energyPerRequestJ);
    std::printf(
        "evals: %llu generated, %llu pruned, %llu sims run "
        "(%llu warm, %llu shared)\n",
        static_cast<unsigned long long>(result.generated),
        static_cast<unsigned long long>(result.pruned),
        static_cast<unsigned long long>(result.cache.executed),
        static_cast<unsigned long long>(result.cache.warmHits),
        static_cast<unsigned long long>(
            result.cache.crossChainHits));

    writePlan(plan_path, problem, result.winner, result.winnerCost,
              result.winnerFingerprint);
    std::printf("plan written: %s\n", plan_path.c_str());

    if (!metrics_path.empty()) {
        MetricsRegistry metrics;
        publishPlacementMetrics(metrics, problem, result, -1.0);
        metrics.writeJsonFile(metrics_path);
        std::printf("metrics written: %s\n", metrics_path.c_str());
    }
    return 0;
}
