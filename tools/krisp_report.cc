/**
 * @file
 * krisp-report: operator summary over emitted telemetry.
 *
 *   krisp_report --metrics run_metrics.json
 *                [--timeline run_timeline.json]
 *                [--slo-ms 100] [--top-k 5]
 *                [--bench BENCH_foo.json]...
 *
 * Reads the JSON a run wrote (MetricsRegistry snapshot, optional
 * TimelineRecorder dump, optional benchmark results) and prints SLO
 * attainment at the given deadline, the request phase breakdown,
 * utilization/power, and the top-k kernels by CU-seconds. Exits
 * non-zero on unreadable or malformed input; a malformed number
 * exits 1 naming its flag.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/parse.hh"
#include "obs/json_parse.hh"
#include "obs/report.hh"

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --metrics FILE [--timeline FILE] [--slo-ms MS]\n"
        "          [--top-k N] [--bench FILE]...\n"
        "--slo-ms in (0, 1e6], --top-k in [0, 100000]\n",
        argv0);
}

/** Basename without directory or .json suffix, for bench labels. */
std::string
benchLabel(const std::string &path)
{
    std::string name = path;
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    if (name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".json") == 0)
        name = name.substr(0, name.size() - 5);
    return name;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string metrics_path;
    std::string timeline_path;
    std::vector<std::string> bench_paths;
    krisp::ReportOptions opts;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--metrics") {
            metrics_path = next();
        } else if (arg == "--timeline") {
            timeline_path = next();
        } else if (arg == "--bench") {
            bench_paths.push_back(next());
        } else if (arg == "--slo-ms") {
            opts.sloMs = krisp::parsePositiveReal(next(), arg, 1e6);
        } else if (arg == "--top-k") {
            opts.topK = static_cast<unsigned>(
                krisp::parseUnsigned(next(), arg, 0, 100000));
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (metrics_path.empty()) {
        usage(argv[0]);
        return 2;
    }

    std::string err;
    krisp::json::Value metrics;
    if (!krisp::json::parseFile(metrics_path, metrics, err)) {
        std::fprintf(stderr, "krisp-report: %s: %s\n",
                     metrics_path.c_str(), err.c_str());
        return 1;
    }

    krisp::json::Value timeline;
    bool have_timeline = false;
    if (!timeline_path.empty()) {
        if (!krisp::json::parseFile(timeline_path, timeline, err)) {
            std::fprintf(stderr, "krisp-report: %s: %s\n",
                         timeline_path.c_str(), err.c_str());
            return 1;
        }
        have_timeline = true;
    }

    std::vector<std::pair<std::string, krisp::json::Value>> benches;
    for (const std::string &path : bench_paths) {
        krisp::json::Value root;
        if (!krisp::json::parseFile(path, root, err)) {
            std::fprintf(stderr, "krisp-report: %s: %s\n",
                         path.c_str(), err.c_str());
            return 1;
        }
        benches.emplace_back(benchLabel(path), std::move(root));
    }

    const std::string report = krisp::generateReport(
        metrics, have_timeline ? &timeline : nullptr, benches, opts);
    std::fputs(report.c_str(), stdout);
    return 0;
}
