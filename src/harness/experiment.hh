/**
 * @file
 * Experiment harness shared by the benchmark binaries: runs server
 * configurations, normalises throughput against the isolated
 * (1-worker, unrestricted) baselines and applies the paper's SLO rule
 * (2x the isolated tail latency).
 *
 * Every raw ServerResult — baseline or matrix cell — lands in one
 * cache keyed by the fields a run varies over the base config (worker
 * models, policy, overlap limit), so a baseline and an identical
 * matrix cell simulate once. A bench can prefetch() its whole matrix
 * on a WorkerPool and keep its table-emission loops unchanged:
 * evaluate() then just replays cached results in the sequential
 * order, making the report byte-identical for any --jobs.
 *
 * Every run executes as an island: InferenceServer::run() builds its
 * own EventQueue, device, workers and fault injector, and the base
 * config carries no ObsContext into a parallel prefetch, so nothing
 * mutable is shared between concurrent runs (DESIGN.md §8).
 */

#ifndef KRISP_HARNESS_EXPERIMENT_HH
#define KRISP_HARNESS_EXPERIMENT_HH

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "server/inference_server.hh"

namespace krisp
{

/** One cell of the Fig. 13 / 14 / 15 / 16 result grids. */
struct EvalPoint
{
    std::string model;
    PartitionPolicy policy{};
    unsigned workers = 0;

    double totalRps = 0;
    /** Total RPS over the isolated 1-worker RPS of the same model. */
    double normalizedRps = 0;
    double p95Ms = 0;
    /** SLO bound: 2x isolated p95 (Sec. VI-B). */
    double sloMs = 0;
    bool sloViolated = false;
    double energyPerInferenceJ = 0;
    /** Energy per inference relative to the isolated baseline. */
    double energyRatio = 0;
    double avgPowerW = 0;
};

/** One homogeneous co-location run of an evaluation matrix. */
struct EvalSpec
{
    std::string model;
    PartitionPolicy policy{};
    unsigned workers = 1;
    /** Fig. 16 sensitivity: explicit KRISP overlap limit. */
    std::optional<unsigned> overlapLimit;
};

/** Runs and caches experiments for one batch size / configuration. */
class ExperimentContext
{
  public:
    /**
     * @param base template configuration; workerModels, policy and
     *             overlapLimitOverride are overwritten per experiment.
     */
    explicit ExperimentContext(ServerConfig base);

    /** Isolated baseline: one worker, MPS default (cached). */
    const ServerResult &isolated(const std::string &model);

    /** Homogeneous co-location: @p workers copies of @p model. */
    EvalPoint evaluate(const std::string &model,
                       PartitionPolicy policy, unsigned workers);

    /** As evaluate(), with an explicit KRISP overlap limit (Fig 16). */
    EvalPoint evaluateWithOverlap(const std::string &model,
                                  PartitionPolicy policy,
                                  unsigned workers,
                                  unsigned overlap_limit);

    /**
     * Mixed pair (Fig. 15): returns the sum of the two workers'
     * individually normalised throughputs.
     */
    double evaluateMixedPair(const std::string &model_a,
                             const std::string &model_b,
                             PartitionPolicy policy);

    /**
     * Run every spec not cached yet (plus any missing isolated
     * baselines) on a WorkerPool of @p jobs threads, so subsequent
     * evaluate()/evaluateWithOverlap() calls replay cached results
     * instead of simulating. Runs are islands, so the cached values —
     * and therefore every downstream report — are identical for any
     * job count.
     */
    void prefetch(const std::vector<EvalSpec> &specs, unsigned jobs);

    /** prefetch() for evaluateMixedPair(): pairs x policies. */
    void prefetchMixedPairs(
        const std::vector<std::pair<std::string, std::string>> &pairs,
        const std::vector<PartitionPolicy> &policies, unsigned jobs);

  private:
    /** What one run varies over base_: the result cache key. */
    struct RunKey
    {
        std::vector<std::string> models;
        PartitionPolicy policy{};
        std::optional<unsigned> overlapLimit;

        auto operator<=>(const RunKey &) const = default;
    };

    static RunKey isolatedKey(const std::string &model);
    static RunKey keyOf(const EvalSpec &spec);
    /** Simulate every key not cached yet, at most @p jobs at once. */
    void runMissing(const std::vector<RunKey> &keys, unsigned jobs);
    /** The cached result of @p key, simulated first if missing. */
    const ServerResult &run(const RunKey &key);
    EvalPoint toPoint(const std::string &model,
                      PartitionPolicy policy, unsigned workers,
                      const ServerResult &result);

    ServerConfig base_;
    std::map<RunKey, ServerResult> runs_;
};

} // namespace krisp

#endif // KRISP_HARNESS_EXPERIMENT_HH
