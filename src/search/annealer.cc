#include "search/annealer.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/fnv.hh"
#include "common/logging.hh"
#include "harness/worker_pool.hh"
#include "obs/metrics.hh"

namespace krisp
{

namespace
{

/** Initial temperature as a fraction of the starting cost. */
constexpr double initTempFraction = 0.25;
/** Geometric cooling per step. */
constexpr double coolRate = 0.92;
/**
 * Surrogate prune threshold: neighbors scoring above pruneFactor x
 * the chain's best surrogate skip the simulator. Below 1 it would
 * prune improving moves.
 */
constexpr double pruneFactor = 1.35;

} // namespace

double
placementCost(const SimOutcome &outcome)
{
    // A config that serves nothing has no percentile; make it
    // maximally unattractive instead of free.
    const double lat_ms = outcome.p99Ms <= 0 ? 1e6 : outcome.p99Ms;
    const double bad =
        outcome.dropRate + (1.0 - outcome.availability);
    return lat_ms * std::max(outcome.energyPerRequestJ, 1e-9) *
           (1.0 + 50.0 * std::max(bad, 0.0));
}

PlacementSearch::PlacementSearch(PlacementProblem problem,
                                 SearchConfig config)
    : problem_(std::move(problem)), config_(std::move(config))
{
    problem_.validate();
    fatal_if(config_.chains == 0, "need at least one chain");
    fatal_if(config_.stepsPerChain == 0, "need at least one step");
    surrogate_ = std::make_unique<SurrogateModel>(problem_);
    simFn_ = &PlacementSearch::simulate;
    if (!config_.cachePath.empty())
        cache_.loadJson(config_.cachePath);
}

SimOutcome
PlacementSearch::simulate(const ClusterConfig &config)
{
    // Pin the fast single-worker windowed engine: batched windows
    // without spawning threads, so WorkerPool parallelism over
    // chains never oversubscribes, and results stay engine-
    // independent anyway (byte-identical across engines).
    ClusterConfig cfg = config;
    cfg.engine.engine = ClusterEngine::Parallel;
    cfg.engine.workers = 1;
    cfg.engine.windowNs = 0;
    ClusterServer server(cfg);
    const ClusterResult r = server.run();
    SimOutcome out;
    out.p50Ms = r.p50Ms;
    out.p95Ms = r.p95Ms;
    out.p99Ms = r.p99Ms;
    out.energyPerRequestJ = r.energyPerRequestJ;
    out.dropRate = r.dropRate;
    out.availability = r.availability;
    return out;
}

PlacementCandidate
PlacementSearch::initialCandidate(Rng &rng) const
{
    const unsigned num_models =
        static_cast<unsigned>(problem_.models.size());
    PlacementCandidate cand;
    cand.homes.resize(num_models);
    cand.grantCapCus.assign(problem_.numShards, 0);
    // One replica per model on a random shard, then a few extra
    // replicas so chains start from diverse, valid placements.
    for (unsigned m = 0; m < num_models; ++m)
        cand.homes[m] =
            1ULL << rng.below(problem_.numShards);
    const unsigned extras = static_cast<unsigned>(
        rng.below(num_models + 1));
    for (unsigned i = 0; i < extras; ++i) {
        const unsigned m =
            static_cast<unsigned>(rng.below(num_models));
        const unsigned s =
            static_cast<unsigned>(rng.below(problem_.numShards));
        cand.homes[m] |= 1ULL << s;
    }
    static const RoutingPolicy routings[] = {
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastOutstanding,
        RoutingPolicy::ModelAffinity,
    };
    static const ReconfigPolicy reconfigs[] = {
        ReconfigPolicy::Always,
        ReconfigPolicy::Elide,
        ReconfigPolicy::Group,
    };
    cand.routing = routings[rng.below(3)];
    cand.reconfig = reconfigs[rng.below(3)];
    return cand;
}

PlacementCandidate
PlacementSearch::neighbor(const PlacementCandidate &cand,
                          Rng &rng) const
{
    const unsigned num_models =
        static_cast<unsigned>(problem_.models.size());
    const unsigned num_shards = problem_.numShards;
    PlacementCandidate next = cand;
    // A move that cannot apply (e.g. removing the last replica)
    // redraws; the redraw budget keeps the walk deterministic and
    // bounded, and an exhausted budget returns the candidate
    // unchanged (a cheap cache hit, not an error).
    for (unsigned attempt = 0; attempt < 8; ++attempt) {
        const std::uint64_t move = rng.below(7);
        switch (move) {
          case 0: { // migrate one replica to another shard
            const unsigned m =
                static_cast<unsigned>(rng.below(num_models));
            const unsigned from =
                static_cast<unsigned>(rng.below(num_shards));
            const unsigned to =
                static_cast<unsigned>(rng.below(num_shards));
            if (from == to ||
                (next.homes[m] & (1ULL << from)) == 0 ||
                (next.homes[m] & (1ULL << to)) != 0)
                continue;
            next.homes[m] =
                (next.homes[m] & ~(1ULL << from)) | (1ULL << to);
            return next;
          }
          case 1: { // swap the home sets of two models
            if (num_models < 2)
                continue;
            const unsigned a =
                static_cast<unsigned>(rng.below(num_models));
            const unsigned b =
                static_cast<unsigned>(rng.below(num_models));
            if (a == b || next.homes[a] == next.homes[b])
                continue;
            std::swap(next.homes[a], next.homes[b]);
            return next;
          }
          case 2: { // add a replica
            const unsigned m =
                static_cast<unsigned>(rng.below(num_models));
            const unsigned s =
                static_cast<unsigned>(rng.below(num_shards));
            if ((next.homes[m] & (1ULL << s)) != 0)
                continue;
            next.homes[m] |= 1ULL << s;
            return next;
          }
          case 3: { // remove a replica
            const unsigned m =
                static_cast<unsigned>(rng.below(num_models));
            const unsigned s =
                static_cast<unsigned>(rng.below(num_shards));
            if ((next.homes[m] & (1ULL << s)) == 0 ||
                __builtin_popcountll(next.homes[m]) <= 1)
                continue;
            next.homes[m] &= ~(1ULL << s);
            return next;
          }
          case 4: { // walk a shard's cap one rung on the ladder
            const unsigned s =
                static_cast<unsigned>(rng.below(num_shards));
            const auto it = std::find(capLadder.begin(),
                                      capLadder.end(),
                                      next.grantCapCus[s]);
            const std::size_t idx =
                static_cast<std::size_t>(it - capLadder.begin());
            const bool up = rng.chance(0.5);
            if (up && idx + 1 < capLadder.size())
                next.grantCapCus[s] = capLadder[idx + 1];
            else if (!up && idx > 0)
                next.grantCapCus[s] = capLadder[idx - 1];
            else
                continue;
            return next;
          }
          case 5: { // flip routing policy
            static const RoutingPolicy routings[] = {
                RoutingPolicy::RoundRobin,
                RoutingPolicy::LeastOutstanding,
                RoutingPolicy::ModelAffinity,
            };
            RoutingPolicy pick =
                routings[rng.below(3)];
            if (pick == next.routing)
                continue;
            next.routing = pick;
            return next;
          }
          case 6: { // flip reconfig policy
            static const ReconfigPolicy reconfigs[] = {
                ReconfigPolicy::Always,
                ReconfigPolicy::Elide,
                ReconfigPolicy::Group,
            };
            ReconfigPolicy pick = reconfigs[rng.below(3)];
            if (pick == next.reconfig)
                continue;
            next.reconfig = pick;
            return next;
          }
        }
    }
    return next;
}

SearchResult
PlacementSearch::run(unsigned jobs)
{
    struct ChainOutcome
    {
        ChainStat stat;
        PlacementCandidate best;
        SimOutcome bestOutcome;
        std::uint64_t bestFingerprint = 0;
        std::uint64_t generated = 0;
        std::uint64_t surrogateEvals = 0;
        double surrogateSeconds = 0;
    };
    std::vector<ChainOutcome> outcomes(config_.chains);

    harness::WorkerPool pool(jobs);
    pool.forEachIndex(config_.chains, [&](std::size_t chain) {
        ChainOutcome &out = outcomes[chain];
        out.stat.chain = static_cast<unsigned>(chain);
        // Chain streams fork from the search seed with a
        // golden-ratio spread so chains never correlate.
        Rng rng(config_.seed ^
                (0x9E3779B97F4A7C15ULL * (chain + 1)));

        using Clock = std::chrono::steady_clock;
        auto surrogateOf = [&](const PlacementCandidate &c) {
            const auto t0 = Clock::now();
            const double s = surrogate_->score(c);
            out.surrogateSeconds +=
                std::chrono::duration<double>(Clock::now() - t0)
                    .count();
            ++out.surrogateEvals;
            return s;
        };
        auto groundTruth = [&](const PlacementCandidate &c,
                               std::uint64_t fp) {
            ++out.stat.simRequests;
            const ClusterConfig cfg = c.toClusterConfig(problem_);
            return cache_.getOrCompute(
                fp, [&] { return simFn_(cfg); });
        };

        PlacementCandidate cur = initialCandidate(rng);
        PlacementCandidate canon = cur.canonical(problem_);
        ++out.generated;
        double best_surr = surrogateOf(canon);
        std::uint64_t fp = canon.fingerprint(problem_);
        SimOutcome cur_outcome = groundTruth(canon, fp);
        double cur_cost = placementCost(cur_outcome);

        out.best = canon;
        out.bestOutcome = cur_outcome;
        out.bestFingerprint = fp;
        out.stat.bestCost = cur_cost;

        double temp =
            std::max(initTempFraction * cur_cost, 1e-12);
        for (unsigned step = 0; step < config_.stepsPerChain;
             ++step) {
            PlacementCandidate next = neighbor(cur, rng);
            PlacementCandidate next_canon =
                next.canonical(problem_);
            ++out.generated;
            const double surr = surrogateOf(next_canon);
            // Chain-local pruning threshold: sharing the best score
            // across chains would couple trajectories to scheduling.
            if (surr > pruneFactor * best_surr) {
                ++out.stat.pruned;
                temp *= coolRate;
                out.stat.bestTrace.push_back(out.stat.bestCost);
                continue;
            }
            best_surr = std::min(best_surr, surr);
            const std::uint64_t next_fp =
                next_canon.fingerprint(problem_);
            const SimOutcome outcome =
                groundTruth(next_canon, next_fp);
            const double cost = placementCost(outcome);
            bool accept = cost <= cur_cost;
            if (!accept) {
                const double p =
                    std::exp(-(cost - cur_cost) / temp);
                accept = rng.uniform() < p;
            }
            if (accept) {
                cur = next;
                cur_cost = cost;
                cur_outcome = outcome;
                ++out.stat.accepted;
            }
            if (cost < out.stat.bestCost) {
                out.stat.bestCost = cost;
                out.best = next_canon;
                out.bestOutcome = outcome;
                out.bestFingerprint = next_fp;
            }
            temp *= coolRate;
            out.stat.bestTrace.push_back(out.stat.bestCost);
        }
    });

    SearchResult result;
    result.chains.reserve(config_.chains);
    for (unsigned c = 0; c < config_.chains; ++c) {
        const ChainOutcome &out = outcomes[c];
        result.generated += out.generated;
        result.pruned += out.stat.pruned;
        result.surrogateEvals += out.surrogateEvals;
        result.surrogateSeconds += out.surrogateSeconds;
        result.chains.push_back(out.stat);
        // Winner: strict cost order, chain index breaking ties, so
        // the pick is independent of worker scheduling.
        if (c == 0 || out.stat.bestCost < result.winnerCost) {
            result.winner = out.best;
            result.winnerCost = out.stat.bestCost;
            result.winnerOutcome = out.bestOutcome;
            result.winnerFingerprint = out.bestFingerprint;
        }
    }
    result.cache = cache_.stats();
    if (!config_.cachePath.empty())
        cache_.saveJson(config_.cachePath);
    return result;
}

void
publishPlacementMetrics(MetricsRegistry &metrics,
                        const PlacementProblem &problem,
                        const SearchResult &result,
                        double bestBaselineCost)
{
    auto g = [&metrics](const std::string &name, double v) {
        metrics.gauge("placement." + name).set(v);
    };
    g("winner_cost", result.winnerCost);
    g("winner_latency_p99_ms", result.winnerOutcome.p99Ms);
    g("winner_latency_p50_ms", result.winnerOutcome.p50Ms);
    g("winner_energy_j", result.winnerOutcome.energyPerRequestJ);
    g("winner_drop_rate", result.winnerOutcome.dropRate);
    metrics.label("placement.winner_fingerprint")
        .set(fnvHex(result.winnerFingerprint));
    metrics.label("placement.winner_routing")
        .set(routingPolicyName(result.winner.routing));
    metrics.label("placement.winner_reconfig")
        .set(reconfigPolicyName(result.winner.reconfig));
    metrics.label("placement.winner_config")
        .set(result.winner.describe(problem));
    if (bestBaselineCost >= 0) {
        g("baseline_best_cost", bestBaselineCost);
        g("improvement_pct",
          bestBaselineCost > 0
              ? 100.0 * (bestBaselineCost - result.winnerCost) /
                    bestBaselineCost
              : 0.0);
    }

    g("evals.generated", static_cast<double>(result.generated));
    g("evals.pruned", static_cast<double>(result.pruned));
    g("evals.surrogate", static_cast<double>(result.surrogateEvals));
    g("evals.sim_requests",
      static_cast<double>(result.cache.requests));
    g("evals.sim_executed",
      static_cast<double>(result.cache.executed));
    g("evals.warm_hits", static_cast<double>(result.cache.warmHits));
    g("evals.cross_chain_hits",
      static_cast<double>(result.cache.crossChainHits));
    g("prune_rate", result.pruneRate());
    g("cache_hit_rate", result.cacheHitRate());

    g("chains", static_cast<double>(result.chains.size()));
    for (const ChainStat &chain : result.chains) {
        const std::string prefix =
            "chain" + std::to_string(chain.chain) + ".";
        g(prefix + "best_cost", chain.bestCost);
        g(prefix + "accepted", static_cast<double>(chain.accepted));
        g(prefix + "pruned", static_cast<double>(chain.pruned));
        g(prefix + "sim_requests",
          static_cast<double>(chain.simRequests));
    }
}

} // namespace krisp
