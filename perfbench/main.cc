/**
 * @file
 * Repository benchmark driver: one workload, one seed, one process.
 *
 *   krisp_perfbench --workload <name> --seed <n> --seconds <s>
 *                   --trace <0|1> [--spans <path>]
 *
 * --trace 0 measures the end-to-end metrics: the workload's run()
 * repeatedly for --seconds seconds, cycling over input sets derived
 * from the seed, with a burst of set-ups before each run. --trace 1
 * measures the per-layer metrics on the first input set: one run with
 * a metrics registry attached, one with telemetry off, and the layer
 * replays. Either way the last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}; the exit code is 0
 * only when every output check held.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.hh"

extern char **environ;

using namespace perfbench;

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
    /** Predicted end-to-end mover (per-layer metrics only). */
    const char *moves;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s", ""},
    {"sim_req_per_wall_s", "req/s", ""},
    {"peak_rss_mb", "MB", ""},
    {"throughput_rps", "req/s", ""},
    {"goodput_rps", "req/s", ""},
    {"p50_ms", "ms", ""},
    {"p99_ms", "ms", ""},
};

const MetricDef kPerLayer[] = {
    // sim
    {"sim.events_fired", "count", "sim_req_per_wall_s, all (most cluster16_mps)"},
    {"sim.events_per_req", "count", "sim_req_per_wall_s, all"},
    {"sim.cancelled_frac", "ratio", "sim_req_per_wall_s, all"},
    {"sim.events_per_wall_s", "1/s", "sim_req_per_wall_s, all"},
    // cluster
    {"cluster.fabric_msgs", "count", "sim_req_per_wall_s, cluster16_mps"},
    {"cluster.fabric_ns_per_event", "ns", "sim_req_per_wall_s, cluster16_mps"},
    {"cluster.routing_decisions", "count", "sim_req_per_wall_s, cluster16_mps"},
    {"cluster.served_imbalance", "ratio", "p99_ms, cluster16_mps"},
    // server
    {"server.queue_wait_ms.p99", "ms", "p99_ms, cluster16_mps openloop_traced"},
    {"server.batch_wait_ms.p99", "ms", "p99_ms, cluster16_mps openloop_traced"},
    {"server.execute_ms.p50", "ms", "throughput_rps p99_ms, closed_krisp_mix"},
    {"server.execute_ms.p99", "ms", "throughput_rps p99_ms, closed_krisp_mix"},
    {"server.mean_batch", "count", "throughput_rps, all"},
    {"server.fail_frac", "ratio", "goodput_rps, all"},
    // server: llm_engine
    {"llm.ttft_p99_ms", "ms", "goodput_rps, llm_emulated"},
    {"llm.itl_p99_ms", "ms", "p99_ms, llm_emulated"},
    {"llm.tokens_per_s", "1/s", "throughput_rps, llm_emulated"},
    {"llm.decode_steps", "count", "llm.tokens_per_s llm.itl_p99_ms, llm_emulated"},
    {"llm.prefill_chunks", "count", "llm.tokens_per_s llm.itl_p99_ms, llm_emulated"},
    {"llm.mean_decode_batch", "count", "llm.tokens_per_s llm.itl_p99_ms, llm_emulated"},
    {"llm.preemptions", "count", "llm.ttft_p99_ms goodput_rps, llm_emulated"},
    {"llm.recomputed_frac", "ratio", "llm.ttft_p99_ms goodput_rps, llm_emulated"},
    {"llm.kv_peak_mb", "MB", "llm.ttft_p99_ms goodput_rps, llm_emulated"},
    // core
    {"krisp.launches", "count", "llm.ttft_p99_ms, llm_emulated"},
    {"krisp.reconfig_launches", "count", "llm.ttft_p99_ms, llm_emulated"},
    {"krisp.reconfig_elisions", "count", "llm.ttft_p99_ms, llm_emulated"},
    {"krisp.grouped_launches", "count", "llm.ttft_p99_ms, llm_emulated"},
    {"krisp.reconfig_fallbacks", "count", "server.fail_frac, all"},
    {"krisp.reconfig_retries", "count", "server.fail_frac, all"},
    {"krisp.requested_cus.mean", "CUs", "gpu.energy_j_per_req, all"},
    {"core.allocate_ns.p50", "ns", "sim_req_per_wall_s, closed_krisp_mix"},
    {"core.allocate_ns.p99", "ns", "sim_req_per_wall_s, closed_krisp_mix"},
    {"core.short_grant_frac", "ratio", "throughput_rps, closed_krisp_mix"},
    // gpu
    {"gpu.kernels_dispatched", "count", "sim_req_per_wall_s, all"},
    {"gpu.krisp_allocations", "count", "sim_req_per_wall_s, closed_krisp_mix"},
    {"gpu.concurrency_at_dispatch.mean", "count", "throughput_rps, all"},
    {"gpu.kernel_latency_ns.mean", "ns", "p99_ms, all"},
    {"gpu.ns_per_kernel", "ns", "sim_req_per_wall_s, cluster16_mps closed_krisp_mix"},
    {"gpu.energy_j_per_req", "J", "(power model), all but llm_emulated"},
    // hsa / hip
    {"gpu.barriers_processed", "count", "llm.ttft_p99_ms sim_req_per_wall_s, llm_emulated"},
    {"gpu.queue_mask_reconfigs", "count", "llm.ttft_p99_ms sim_req_per_wall_s, llm_emulated"},
    {"host.ioctls_completed", "count", "llm.ttft_p99_ms sim_req_per_wall_s, llm_emulated"},
    {"host.ioctl_queue_delay_ns.mean", "ns", "llm.ttft_p99_ms, llm_emulated"},
    {"hsa.ns_per_emulated_launch", "ns", "sim_req_per_wall_s, llm_emulated"},
    // models / profile
    {"profile.kernels_profiled", "count", "setup_s, all"},
    {"profile.shard_setup_s", "s", "setup_s, all"},
    {"models.kernels_per_req", "count", "sim_req_per_wall_s, all"},
    // obs
    {"obs.trace_records", "count", "sim_req_per_wall_s peak_rss_mb, openloop_traced"},
    {"obs.records_per_sampled_req", "count", "sim_req_per_wall_s peak_rss_mb, openloop_traced"},
    {"obs.trace_dropped", "count", "peak_rss_mb, openloop_traced"},
    {"obs.overhead_frac", "ratio", "sim_req_per_wall_s, openloop_traced"},
};

/** Fewest samples a published percentile must have beyond it. */
constexpr std::size_t kMinBeyond = 10;
/**
 * Wall seconds of referenceSeconds() on the reference host (a shared
 * 4-vCPU Xeon in a fast stretch): the speed wall-clock end-to-end
 * metrics are scaled to.
 */
constexpr double kReferenceS = 0.035;
/** Wall time of the set-up burst before each timed run. */
constexpr double kSetupBurstS = 0.1;
/**
 * Input sets per end-to-end measurement: the simulated metrics are
 * their mean, which halves the spread between seeds at no extra
 * cost, since the window repeats runs anyway.
 */
constexpr std::uint64_t kInputSets = 4;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string spans;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
            have_seed = end != val && *end == '\0';
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
            if (end == val || *end != '\0')
                a.seconds = 0;
        } else if (key == "--trace") {
            a.trace = std::strcmp(val, "0") == 0   ? 0
                      : std::strcmp(val, "1") == 0 ? 1
                                                   : -1;
        } else if (key == "--spans") {
            a.spans = val;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && have_seed &&
           a.seconds > 0 && a.trace >= 0;
}

/**
 * KRISP_* variables change configuration defaults as configs are
 * constructed (reconfig policy, cluster engine, trace sampling...);
 * a benchmark run under one would silently measure another program.
 */
std::vector<std::string>
krispEnvironment()
{
    std::vector<std::string> set;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "KRISP_", 6) == 0)
            set.emplace_back(*e, std::strcspn(*e, "="));
    return set;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
wallS(const RunRecord &r)
{
    double s = 0;
    for (const Call &c : r.calls)
        s += c.wallS;
    return s;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Results accumulated for printing. */
struct Output
{
    Layers values;
    std::vector<std::string> problems;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /**
     * Print @p p with its sample support; a percentile with too few
     * samples beyond it is refused (unless it is absent and optional).
     */
    void
    disclose(const std::string &name, const Percentile &p, bool required)
    {
        std::printf("%-28s %12.6g  (q=%.2f, samples=%zu, beyond=%zu)\n",
                    name.c_str(), p.value, p.q, p.samples, p.beyond());
        if (p.samples == 0 && !required)
            return; // the layer did not run on this workload
        if (p.beyond() < kMinBeyond)
            problems.push_back(name + " rests on " +
                               std::to_string(p.beyond()) +
                               " samples beyond it (need " +
                               std::to_string(kMinBeyond) + ")");
    }
};

void
checkSame(const SimOutcome &a, const SimOutcome &b, const char *what,
          Output &out)
{
    if (a.fingerprint() != b.fingerprint())
        out.problems.push_back(std::string("simulated outputs differ ") +
                               what + ": " + a.fingerprint() + " vs " +
                               b.fingerprint());
}

void
checkCorrect(const SimOutcome &sim, Output &out)
{
    for (const std::string &v : sim.violations)
        out.problems.push_back(v);
}

/**
 * --trace 0: set-up and serving runs as a user would time them. The
 * runs cycle over @p sets (one workload per input set) until the
 * window is spent and every set ran at least twice.
 *
 * A shared host's speed changes in stretches of seconds, so wall times
 * are scaled to the reference host speed: the reference work is timed
 * before every set-up burst and after every run, and each time is
 * multiplied by kReferenceS over the reference time next to it.
 */
void
endToEnd(const std::vector<std::unique_ptr<Workload>> &sets,
         const Args &args, SpanLog &spans, Output &out)
{
    const std::size_t k = sets.size();
    // Set-up takes milliseconds: a burst of set-ups precedes every
    // run, so both sample the whole window.
    std::vector<double> setup_s, raw_setup_s;
    std::vector<double> rates, raw_rates, reference_s;
    std::vector<RunRecord> runs;
    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&t0] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    referenceSeconds(); // warm-up
    double before = referenceSeconds();
    while (runs.size() < 2 * k || elapsed() < args.seconds) {
        const Workload &w = *sets[runs.size() % k];
        double burst = 0;
        for (int i = 0; i < 5 || burst < kSetupBurstS; ++i) {
            ScopedSpan span(spans, "setup");
            w.setUp();
            raw_setup_s.push_back(span.close());
            setup_s.push_back(raw_setup_s.back() * kReferenceS / before);
            burst += raw_setup_s.back();
        }
        {
            ScopedSpan span(spans, "run");
            runs.push_back(w.run(Telemetry::Configured));
        }
        const double after = referenceSeconds();
        const double host = 0.5 * (before + after);
        reference_s.push_back(after);
        for (const Call &c : runs.back().calls) {
            raw_rates.push_back(static_cast<double>(c.served) / c.wallS);
            rates.push_back(raw_rates.back() * host / kReferenceS);
        }
        before = after;
    }

    for (std::size_t i = 0; i < runs.size(); ++i) {
        const SimOutcome &sim = runs[i].sim;
        checkCorrect(sim, out);
        checkSame(runs[i % k].sim, sim, "between repeated runs", out);
        out.attempted += sim.attempted;
        out.failed += sim.failed;
    }
    std::printf("runs=%zu calls=%zu setups=%zu input_sets=%zu\n",
                runs.size(), rates.size(), setup_s.size(), k);
    std::printf("host: reference work median %.4f s (reference host "
                "%.4f s); unscaled medians: setup %.6g s, %.6g req/s\n",
                median(reference_s), kReferenceS, median(raw_setup_s),
                median(raw_rates));
    out.values["setup_s"] = median(setup_s);
    out.values["sim_req_per_wall_s"] = median(rates);
    // Simulated metrics: the mean over the input sets, each
    // percentile disclosed with its own sample support.
    Layers &v = out.values;
    for (std::size_t i = 0; i < k; ++i) {
        const SimOutcome &sim = runs[i].sim;
        const std::string set = "[set " + std::to_string(i) + "] ";
        out.disclose(set + "p50_ms", sim.p50Ms, true);
        out.disclose(set + "p99_ms", sim.p99Ms, true);
        v["throughput_rps"] += sim.throughputRps / k;
        v["goodput_rps"] += sim.goodputRps / k;
        v["p50_ms"] += sim.p50Ms.value / k;
        v["p99_ms"] += sim.p99Ms.value / k;
    }
    v["peak_rss_mb"] = peakRssMb();
}

/** --trace 1: counters, telemetry overhead and layer replays. */
void
perLayer(const Workload &w, SpanLog &spans, Output &out)
{
    std::size_t profiled = 0;
    double setup_s = 0;
    {
        ScopedSpan span(spans, "setup");
        profiled = w.setUp();
        setup_s = span.close();
    }
    RunRecord traced, off;
    {
        ScopedSpan span(spans, "run.counters");
        traced = w.run(Telemetry::Counters);
    }
    {
        ScopedSpan span(spans, "run.off");
        off = w.run(Telemetry::Off);
    }
    checkCorrect(traced.sim, out);
    checkCorrect(off.sim, out);
    // Telemetry must never change what is simulated. Fields read from
    // the metrics registry, which the off run lacks, are left out.
    SimOutcome seen = traced.sim;
    if (off.sim.p50Ms.samples == 0)
        seen.p50Ms = seen.p99Ms = Percentile{};
    if (off.sim.goodputRps == 0)
        seen.goodputRps = 0;
    if (off.sim.ttftP99Ms.samples == 0)
        seen.ttftP99Ms = seen.itlP99Ms = Percentile{};
    checkSame(seen, off.sim, "with telemetry on and off", out);
    out.attempted = traced.sim.attempted + off.sim.attempted;
    out.failed = traced.sim.failed + off.sim.failed;

    Layers &v = out.values;
    LayerPercentiles pcts = traced.pcts;
    v = traced.layers;
    w.replay(traced, spans, v, pcts);

    const SimOutcome &sim = traced.sim;
    // The run that matches how end-to-end runs are timed.
    const RunRecord &as_timed = w.telemetered() ? traced : off;
    v["sim.events_per_wall_s"] = v["sim.events_fired"] / wallS(as_timed);
    v["obs.overhead_frac"] =
        w.telemetered() ? wallS(traced) / wallS(off) - 1.0 : 0.0;
    v["server.fail_frac"] =
        sim.attempted > 0 ? static_cast<double>(sim.failed) /
                                static_cast<double>(sim.attempted)
                          : 0.0;
    v["gpu.energy_j_per_req"] = sim.energyJPerReq;
    v["llm.tokens_per_s"] = sim.tokensPerS;
    v["profile.kernels_profiled"] = static_cast<double>(profiled);
    v["profile.shard_setup_s"] = setup_s / w.shards();

    pcts["llm.ttft_p99_ms"] = sim.ttftP99Ms;
    pcts["llm.itl_p99_ms"] = sim.itlP99Ms;
    for (const auto &[name, p] : pcts) {
        out.disclose(name, p, false);
        v[name] = p.value;
    }

    // Bypass predictions: which layers this workload never reaches.
    const std::string n = w.name();
    struct Prediction
    {
        const char *metric;
        bool zero;
    };
    const Prediction predictions[] = {
        {"krisp.launches", n == "cluster16_mps"},
        {"obs.trace_records", n != "openloop_traced"},
        {"host.ioctls_completed", n != "llm_emulated"},
    };
    for (const Prediction &p : predictions)
        if (p.zero)
            std::printf("bypass: %s == 0 on %s: %s\n", p.metric, n.c_str(),
                        v[p.metric] == 0 ? "holds" : "DOES NOT HOLD");
}

void
printJson(const Output &out, bool trace)
{
    std::string m;
    char buf[256];
    const std::span<const MetricDef> defs =
        trace ? std::span<const MetricDef>(kPerLayer)
              : std::span<const MetricDef>(kEndToEnd);
    for (const MetricDef &d : defs) {
        const auto it = out.values.find(d.name);
        const double value = it != out.values.end() ? it->second : 0.0;
        if (trace)
            std::printf("%-34s %14.6g %-6s moves %s\n", d.name, value,
                        d.unit, d.moves);
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      m.empty() ? "" : ", ", d.name, value, d.unit);
        m += buf;
    }
    for (const std::string &p : out.problems)
        std::printf("check failed: %s\n", p.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
                out.problems.empty() ? "true" : "false",
                std::max<std::uint64_t>(out.attempted, 1), out.failed,
                m.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--spans <path>]\n",
                     argv[0]);
        return 2;
    }
    const std::vector<std::string> env = krispEnvironment();
    if (!env.empty()) {
        for (const std::string &e : env)
            std::fprintf(stderr, "refusing to run: %s is set\n", e.c_str());
        return 2;
    }
    // The seed derives kInputSets workload seeds; the traced run uses
    // the first.
    std::vector<std::unique_ptr<Workload>> sets;
    for (std::uint64_t i = 0; i < kInputSets; ++i) {
        sets.push_back(makeWorkload(args.workload, args.seed * kInputSets + i));
        if (!sets.back()) {
            std::fprintf(stderr, "unknown workload: %s\n",
                         args.workload.c_str());
            return 2;
        }
    }

    std::printf("workload=%s seed=%" PRIu64 " trace=%d%s\n",
                args.workload.c_str(), args.seed, args.trace,
                args.workload == "closed_krisp_mix"
                    ? " (closed loop: no random arrivals; the seed "
                      "orders the co-located workers)"
                    : "");
    SpanLog spans;
    Output out;
    if (args.trace == 0)
        endToEnd(sets, args, spans, out);
    else
        perLayer(*sets.front(), spans, out);
    if (!args.spans.empty() && !spans.writeJson(args.spans))
        out.problems.push_back("cannot write spans to " + args.spans);
    printJson(out, args.trace == 1);
    std::fflush(stdout);
    return out.problems.empty() ? 0 : 1;
}
