/**
 * @file
 * Deterministic parallel simulated annealing over placements.
 *
 * N independent chains (one Rng stream each, forked from the search
 * seed) walk the candidate space with seeded moves. Every neighbor
 * is scored by the analytic surrogate; clearly-dominated neighbors
 * (score above 1.35 x the chain's best surrogate so far) are
 * rejected without touching the simulator. Survivors fetch their
 * ground-truth outcome through the shared EvalCache, which runs each
 * unique canonical config through ClusterServer exactly once across
 * all chains and all runs (warm snapshots included).
 *
 * Determinism: a chain's trajectory depends only on (seed, chain
 * index) — surrogate scores are pure arithmetic on canonical
 * candidates, sim outcomes are deterministic per fingerprint, and
 * pruning thresholds are chain-local. The winner is the min over
 * chains by (cost, chain index), so any WorkerPool --jobs value
 * yields a byte-identical result.
 */

#ifndef KRISP_SEARCH_ANNEALER_HH
#define KRISP_SEARCH_ANNEALER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "search/eval_cache.hh"
#include "search/placement.hh"
#include "search/surrogate.hh"

namespace krisp
{

class MetricsRegistry;

/**
 * Scalar cost of a simulated outcome: P99 latency (ms) x energy per
 * request (J) x (1 + 50 x (drop rate + unavailability)).
 */
double placementCost(const SimOutcome &outcome);

/** Search knobs. */
struct SearchConfig
{
    unsigned chains = 4;
    unsigned stepsPerChain = 48;
    std::uint64_t seed = 1;
    /** Warm-start snapshot path ("" = in-memory only). */
    std::string cachePath;
};

/** Per-chain convergence record. */
struct ChainStat
{
    unsigned chain = 0;
    double bestCost = 0;
    unsigned accepted = 0;
    unsigned pruned = 0;
    unsigned simRequests = 0;
    /** Best cost after each step (stepsPerChain entries). */
    std::vector<double> bestTrace;
};

/** Everything a search run produces. */
struct SearchResult
{
    PlacementCandidate winner;
    double winnerCost = 0;
    SimOutcome winnerOutcome;
    std::uint64_t winnerFingerprint = 0;

    /** Neighbors generated across all chains (initial included). */
    std::uint64_t generated = 0;
    /** Neighbors rejected by the surrogate tier. */
    std::uint64_t pruned = 0;
    /** Surrogate evaluations performed. */
    std::uint64_t surrogateEvals = 0;
    EvalCache::Stats cache;
    std::vector<ChainStat> chains;

    /** Wall-clock spent inside surrogate scoring (not in BENCH
     *  json: throughput gates read it from the timing sidecar). */
    double surrogateSeconds = 0;

    double pruneRate() const
    {
        return generated != 0
                   ? static_cast<double>(pruned) / generated
                   : 0.0;
    }
    double cacheHitRate() const
    {
        return cache.requests != 0
                   ? static_cast<double>(cache.warmHits +
                                         cache.crossChainHits) /
                         cache.requests
                   : 0.0;
    }
};

class PlacementSearch
{
  public:
    /** Ground-truth evaluator; overridable for tests. */
    using SimFn = std::function<SimOutcome(const ClusterConfig &)>;

    PlacementSearch(PlacementProblem problem, SearchConfig config);

    /** Replace the ClusterServer evaluator (tests). */
    void setSimFn(SimFn fn) { simFn_ = std::move(fn); }

    const SurrogateModel &surrogate() const { return *surrogate_; }
    EvalCache &cache() { return cache_; }

    /**
     * Run the search on @p jobs workers (0 is treated as 1, as in
     * harness::WorkerPool). The result is byte-identical for any
     * jobs value.
     */
    SearchResult run(unsigned jobs);

    /** Default ClusterServer evaluator for @p config. */
    static SimOutcome simulate(const ClusterConfig &config);

  private:
    PlacementCandidate initialCandidate(Rng &rng) const;
    PlacementCandidate neighbor(const PlacementCandidate &cand,
                                Rng &rng) const;

    PlacementProblem problem_;
    SearchConfig config_;
    std::unique_ptr<SurrogateModel> surrogate_;
    EvalCache cache_;
    SimFn simFn_;
};

/**
 * Publish a search result as "placement.*" metrics (winner, cost
 * breakdown, evaluation/prune/cache counters, per-chain bests) so
 * krisp-report renders its placement section from any snapshot.
 * @p bestBaselineCost < 0 means "no baseline measured".
 */
void publishPlacementMetrics(MetricsRegistry &metrics,
                             const PlacementProblem &problem,
                             const SearchResult &result,
                             double bestBaselineCost);

} // namespace krisp

#endif // KRISP_SEARCH_ANNEALER_HH
