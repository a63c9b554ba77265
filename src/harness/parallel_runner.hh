/**
 * @file
 * Declarative parallel experiment runner.
 *
 * A RunSpec describes one closed-loop server simulation; runAll()
 * executes a list of them on a WorkerPool and returns outcomes in
 * spec order. Every run executes as an *island*: it owns a fresh
 * EventQueue (inside InferenceServer::run), a fresh per-run
 * ObsContext when observability is requested, and a fresh
 * FaultInjector when the config's fault plan is armed. Nothing
 * mutable is shared between concurrent runs, so the merged results —
 * reports, BENCH_*.json snapshots, trace files — are byte-identical
 * to a sequential (--jobs 1) execution regardless of thread count.
 *
 * Islanding rules (see DESIGN.md §8): a run may own everything it
 * instantiates; the only cross-run state is read-only (model zoo
 * tables, the log-level threshold, which is atomic). The library
 * reads no environment, so a run is a function of its spec alone.
 */

#ifndef KRISP_HARNESS_PARALLEL_RUNNER_HH
#define KRISP_HARNESS_PARALLEL_RUNNER_HH

#include <memory>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "server/inference_server.hh"

namespace krisp
{
namespace harness
{

/** One simulation to run. */
struct RunSpec
{
    /** Caller-chosen identifier; carried through to the outcome. */
    std::string tag;
    /**
     * Full server configuration. config.obs must be null — the
     * runner wires a per-run island context when observability is
     * requested below.
     */
    ServerConfig config;
    /** Attach a per-run ObsContext and keep it on the outcome. */
    bool collectMetrics = false;
    /** Record trace events (implied by a non-empty traceFile). */
    bool collectTrace = false;
    /** Write the run's Chrome-JSON trace here when non-empty. */
    std::string traceFile;
};

/** Result of one RunSpec, delivered in spec order. */
struct RunOutcome
{
    std::string tag;
    ServerResult result;
    /**
     * The run's observability island (metrics + trace), present when
     * the spec asked for metrics or tracing. The trace sink's clock
     * is dangling after the run; read records/metrics only.
     */
    std::unique_ptr<ObsContext> obs;
};

/**
 * Execute every spec, at most @p jobs concurrently, and return the
 * outcomes in spec order. Exceptions propagate per WorkerPool rules
 * (lowest failed index wins).
 */
std::vector<RunOutcome> runAll(std::vector<RunSpec> specs,
                               unsigned jobs);

} // namespace harness
} // namespace krisp

#endif // KRISP_HARNESS_PARALLEL_RUNNER_HH
