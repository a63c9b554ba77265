/**
 * @file
 * Shared helpers for the benchmark binaries: common experiment
 * configuration, the environment opt-ins, and the machine-readable
 * results summary every bench writes next to its stdout tables.
 *
 * The benches read the environment here and nowhere else; the
 * library reads none of it except KRISP_LOG_LEVEL (logging.cc).
 * BenchReport, which every bench constructs first, checks every
 * KRISP_* variable before the bench does anything: an unknown name,
 * or a known one with a malformed or out-of-range value, exits 1
 * naming the variable. Numbers are decimal; counts and seeds may
 * also be 0x hex. The variables and the values they take:
 *
 *   KRISP_LOG_LEVEL          debug | info | warn (read by logging.cc)
 *   KRISP_BENCH_QUICK        0 or 1; 1 shrinks request counts for
 *                            smoke runs
 *   KRISP_BENCH_OUT_DIR      directory for BENCH_*.json summaries and
 *                            *.trace.json trace files (default ".")
 *   KRISP_JOBS               sweep worker threads, [1, 4096]; a --jobs
 *                            flag wins (default: hardware threads)
 *   KRISP_ENGINE             sequential | parallel cluster engine
 *                            (ext_cluster_scaling, ext_chaos_sweep)
 *   KRISP_ENGINE_WORKERS     parallel-engine workers, [0, 4096];
 *                            0 = hardware threads
 *   KRISP_FAULT_RATE         ext_fault_resilience: the one fault rate
 *                            to run, [0, 1]
 *   KRISP_CHAOS_SEED         ext_chaos_sweep: seed, any 64-bit integer
 *   KRISP_CHAOS_OVERLOAD     ext_chaos_sweep: offered-load multiplier,
 *                            (0, 100]
 *   KRISP_CHAOS_FAULT_RATE   ext_chaos_sweep: fault-probability
 *                            multiplier, [0, 100]
 *   KRISP_CHAOS_CRASH_RATE   ext_chaos_sweep: crash-rate multiplier,
 *                            [0, 100]
 *   KRISP_LLM_MODEL          ext_llm_serving: a zoo LLM name
 *   KRISP_LLM_SEED           ext_llm_serving: seed, any 64-bit integer
 *   KRISP_LLM_KV_MB          ext_llm_serving: per-shard KV budget in
 *                            MiB, (0, 1048576]
 *   KRISP_LLM_SLO_MS         ext_llm_serving: goodput SLO in ms,
 *                            (0, 1e6]
 *   KRISP_LLM_RATE_SCALE     ext_llm_serving: arrival-rate multiplier,
 *                            (0, 100]
 */

#ifndef KRISP_BENCH_BENCH_UTIL_HH
#define KRISP_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "cluster/parallel_engine.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "obs/metrics.hh"
#include "harness/experiment.hh"

extern char **environ;

namespace krisp
{
namespace bench
{

namespace env
{

/** How a variable's value is checked. */
enum class Kind
{
    Text,     ///< non-empty; one of `choices` when they are given
    Count,    ///< an integer in [lo, hi]
    Seed,     ///< any 64-bit integer
    Real,     ///< a finite real in [lo, hi]
    Positive, ///< a finite real in (0, hi]
};

struct Variable
{
    const char *name;
    Kind kind;
    double lo = 0;
    double hi = 0;
    /** Text: the accepted words, '|'-separated; null accepts any. */
    const char *choices = nullptr;
};

constexpr double kMaxJobs = 4096;

/** Every variable the file comment lists, with its check. */
inline constexpr Variable kVariables[] = {
    {"KRISP_LOG_LEVEL", Kind::Text},
    {"KRISP_BENCH_QUICK", Kind::Count, 0, 1},
    {"KRISP_BENCH_OUT_DIR", Kind::Text},
    {"KRISP_JOBS", Kind::Count, 1, kMaxJobs},
    {.name = "KRISP_ENGINE", .kind = Kind::Text,
     .choices = "sequential|parallel"},
    {"KRISP_ENGINE_WORKERS", Kind::Count, 0, kMaxJobs},
    {"KRISP_FAULT_RATE", Kind::Real, 0, 1},
    {"KRISP_CHAOS_SEED", Kind::Seed},
    {"KRISP_CHAOS_OVERLOAD", Kind::Positive, 0, 100},
    {"KRISP_CHAOS_FAULT_RATE", Kind::Real, 0, 100},
    {"KRISP_CHAOS_CRASH_RATE", Kind::Real, 0, 100},
    {"KRISP_LLM_MODEL", Kind::Text},
    {"KRISP_LLM_SEED", Kind::Seed},
    {"KRISP_LLM_KV_MB", Kind::Positive, 0, 1048576},
    {"KRISP_LLM_SLO_MS", Kind::Positive, 0, 1e6},
    {"KRISP_LLM_RATE_SCALE", Kind::Positive, 0, 100},
};

/** The table row of @p name; null for a name the benches do not read. */
inline const Variable *
find(std::string_view name)
{
    for (const Variable &v : kVariables)
        if (name == v.name)
            return &v;
    return nullptr;
}

/** Whether @p word is one of the '|'-separated @p choices. */
inline bool
oneOf(std::string_view word, std::string_view choices)
{
    for (std::size_t at = 0; at <= choices.size();) {
        const std::size_t bar = std::min(choices.find('|', at),
                                         choices.size());
        if (choices.substr(at, bar - at) == word)
            return true;
        at = bar + 1;
    }
    return false;
}

/**
 * The text of @p name: null when unset or empty; exits 1 when it is
 * not one of the variable's choices.
 */
inline const char *
text(const char *name)
{
    const Variable *v = find(name);
    panic_if(v == nullptr, "unlisted variable ", name);
    const char *value = std::getenv(name);
    if (value == nullptr || value[0] == '\0')
        return nullptr;
    if (v->choices != nullptr && !oneOf(value, v->choices))
        fatal("invalid ", name, " value '", value, "' (expected ",
              v->choices, ")");
    return value;
}

/** @p value of the Count or Seed variable @p v; exits 1 if invalid. */
inline std::uint64_t
parseCount(const Variable &v, const char *value)
{
    return parseUnsigned(value, v.name, static_cast<std::uint64_t>(v.lo),
                         v.kind == Kind::Seed
                             ? UINT64_MAX
                             : static_cast<std::uint64_t>(v.hi));
}

/** @p value of the Real or Positive variable @p v; exits 1 if invalid. */
inline double
parseNumber(const Variable &v, const char *value)
{
    return v.kind == Kind::Real ? parseReal(value, v.name, v.lo, v.hi)
                                : parsePositiveReal(value, v.name, v.hi);
}

/** @p name, a Count or Seed variable; empty when unset. */
inline std::optional<std::uint64_t>
count(const char *name)
{
    const char *value = text(name);
    if (value == nullptr)
        return std::nullopt;
    return parseCount(*find(name), value);
}

/** @p name, a Real or Positive variable; empty when unset. */
inline std::optional<double>
real(const char *name)
{
    const char *value = text(name);
    if (value == nullptr)
        return std::nullopt;
    return parseNumber(*find(name), value);
}

/**
 * Exit 1 naming the first KRISP_* variable that is not in the table,
 * or whose value the table rejects.
 */
inline void
checkAll()
{
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string_view entry(*e);
        if (entry.substr(0, 6) != "KRISP_")
            continue;
        const std::string_view name = entry.substr(0, entry.find('='));
        const Variable *v = find(name);
        if (v == nullptr)
            fatal("unknown environment variable ", name,
                  " (bench/bench_util.hh lists the KRISP_* variables "
                  "the benches read)");
        const char *value = text(v->name);
        if (value == nullptr || v->kind == Kind::Text)
            continue;
        if (v->kind == Kind::Count || v->kind == Kind::Seed)
            parseCount(*v, value);
        else
            parseNumber(*v, value);
    }
}

} // namespace env

/** KRISP_BENCH_QUICK=1: shrink request counts for smoke runs. */
inline bool
quickMode()
{
    static const bool quick =
        env::count("KRISP_BENCH_QUICK").value_or(0) == 1;
    return quick;
}

/** Directory receiving BENCH_*.json and *.trace.json artifacts. */
inline std::string
outDir()
{
    const char *dir = env::text("KRISP_BENCH_OUT_DIR");
    return dir != nullptr ? dir : ".";
}

/**
 * Sweep worker threads: "--jobs N" or "--jobs=N" in @p argv, else
 * KRISP_JOBS, else the hardware thread count. Other arguments are
 * ignored.
 */
inline unsigned
jobs(int argc, char **argv)
{
    const auto max = static_cast<std::uint64_t>(env::kMaxJobs);
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg == "--jobs") {
            if (i + 1 >= argc)
                fatal("--jobs needs a value");
            return static_cast<unsigned>(
                parseUnsigned(argv[i + 1], "--jobs", 1, max));
        }
        if (arg.substr(0, 7) == "--jobs=")
            return static_cast<unsigned>(
                parseUnsigned(arg.substr(7), "--jobs", 1, max));
    }
    if (const auto n = env::count("KRISP_JOBS"))
        return static_cast<unsigned>(*n);
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Cluster engine selection from KRISP_ENGINE / KRISP_ENGINE_WORKERS. */
inline EngineConfig
engine()
{
    EngineConfig cfg;
    if (const char *name = env::text("KRISP_ENGINE"))
        cfg.engine = std::strcmp(name, "parallel") == 0
                         ? ClusterEngine::Parallel
                         : ClusterEngine::Sequential;
    cfg.workers = static_cast<unsigned>(
        env::count("KRISP_ENGINE_WORKERS").value_or(0));
    return cfg;
}

/** Standard experiment configuration for the paper reproductions. */
inline ServerConfig
paperConfig(unsigned batch = 32)
{
    ServerConfig cfg;
    cfg.batch = batch;
    cfg.warmupRequests = 3;
    cfg.measuredRequests = quickMode() ? 10 : 30;
    return cfg;
}

inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("\n################################################\n"
                "# %s\n# reproduces: %s\n"
                "################################################\n",
                title.c_str(), paper_ref.c_str());
    std::fflush(stdout);
}

/**
 * Machine-readable results summary for one bench run.
 *
 * Construct it at the top of main(): it checks the environment
 * (env::checkAll) and prints the banner. Record the headline numbers
 * with set()/label()/metrics(), and call write() at the end: the
 * summary lands in
 * <outDir()>/BENCH_<name>.json so the perf trajectory can be diffed
 * across revisions instead of scraping the stdout tables.
 */
class BenchReport
{
  public:
    BenchReport(std::string name, std::string paper_ref)
        : name_(std::move(name))
    {
        env::checkAll();
        banner(name_, paper_ref);
        metrics_.label("bench.name").set(name_);
        metrics_.label("bench.reproduces").set(paper_ref);
        metrics_.gauge("bench.quick_mode")
            .set(quickMode() ? 1.0 : 0.0);
    }

    /** Full registry access for accumulators/percentiles etc. */
    MetricsRegistry &metrics() { return metrics_; }

    /** Record one numeric result. */
    void
    set(const std::string &key, double value)
    {
        metrics_.gauge(key).set(value);
    }

    /** Record one string-valued result. */
    void
    label(const std::string &key, const std::string &value)
    {
        metrics_.label(key).set(value);
    }

    /** Record the standard aggregate numbers of one server run. */
    void
    addServerResult(const std::string &prefix, const ServerResult &r)
    {
        set(prefix + ".total_rps", r.totalRps);
        set(prefix + ".max_p95_ms", r.maxP95Ms);
        set(prefix + ".energy_per_inference_j", r.energyPerInferenceJ);
        set(prefix + ".completed",
            static_cast<double>(r.completed));
        set(prefix + ".measure_seconds", r.measureSeconds);
        set(prefix + ".timed_out", r.timedOut ? 1.0 : 0.0);
    }

    /** Where this bench's summary JSON goes. */
    std::string
    jsonPath() const
    {
        return outDir() + "/BENCH_" + name_ + ".json";
    }

    /** Where a trace file with the given tag goes. */
    std::string
    tracePath(const std::string &tag) const
    {
        return outDir() + "/" + name_ + "." + tag + ".trace.json";
    }

    /** Write the summary JSON (call once at the end of main). */
    void
    write()
    {
        const std::string path = jsonPath();
        if (metrics_.writeJsonFile(path))
            std::printf("\nresults summary: %s\n", path.c_str());
        std::fflush(stdout);
    }

  private:
    std::string name_;
    MetricsRegistry metrics_;
};

} // namespace bench
} // namespace krisp

#endif // KRISP_BENCH_BENCH_UTIL_HH
