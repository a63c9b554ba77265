/**
 * @file
 * Candidate representation for the offline placement search.
 *
 * A PlacementCandidate is everything the operator could hand-pick
 * about a cluster: which shards home each model (replica sets), the
 * static CU grant cap of every shard, and the routing / reconfig
 * policies. The search walks this space; a candidate converts to a
 * runnable ClusterConfig via toClusterConfig(), so the winner is
 * replayable by ClusterServer and the krisp_placement CLI without
 * translation.
 *
 * Canonicalisation. Many index permutations describe the same
 * physical configuration (shards are interchangeable up to their cap
 * + homed-model set). canonical() relabels shards into a sorted
 * normal form, so surrogate scores are computed on bit-identical
 * inputs and the evaluation cache — keyed by the shard-order
 * invariant ClusterConfig::fingerprint() — collapses all of them to
 * one entry.
 */

#ifndef KRISP_SEARCH_PLACEMENT_HH
#define KRISP_SEARCH_PLACEMENT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_server.hh"

namespace krisp
{

/** Grant caps the search's cap moves walk, ascending; 0 = uncapped. */
inline constexpr std::array<unsigned, 10> capLadder = {
    0, 12, 16, 20, 24, 28, 32, 40, 48, 56};

/** The fixed context a placement search optimises within. */
struct PlacementProblem
{
    /** Unique model names (no duplicates; weights carry the mix). */
    std::vector<std::string> models;
    /**
     * Integer traffic weights, one per model. The generated
     * ClusterConfig duplicates each model's entry weight-many times,
     * so the server's uniform model draw realises the weighted mix
     * without touching the arrival machinery.
     */
    std::vector<unsigned> weights;
    unsigned numShards = 4;
    /**
     * Template config: arrival rate, sim horizon, seeds and fault
     * model. The candidate overwrites models / homes / caps /
     * routing / reconfig; everything else is taken verbatim.
     */
    ClusterConfig base;

    /** Sum of traffic weights. */
    std::uint64_t totalWeight() const;
    /** Aborts on inconsistent sizes / empty mixes. */
    void validate() const;
};

/** One point of the search space. */
struct PlacementCandidate
{
    /** homes[m] bit s set = model m has a replica on shard s. */
    std::vector<std::uint64_t> homes;
    /** Static grant cap per shard (0 = uncapped). */
    std::vector<unsigned> grantCapCus;
    RoutingPolicy routing = RoutingPolicy::ModelAffinity;
    ReconfigPolicy reconfig = ReconfigPolicy::Elide;

    bool valid(const PlacementProblem &p) const;

    /**
     * Shard-order normal form: shards sorted by (cap, homed model
     * list); two candidates equal up to shard relabeling map to the
     * same canonical value, bit for bit.
     */
    PlacementCandidate canonical(const PlacementProblem &p) const;

    /** Runnable config (canonicalises first). */
    ClusterConfig toClusterConfig(const PlacementProblem &p) const;

    /** Cache key: toClusterConfig(p).fingerprint(). */
    std::uint64_t fingerprint(const PlacementProblem &p) const;

    /** "shard0{cap=16 models=a+b} ..." for logs and reports. */
    std::string describe(const PlacementProblem &p) const;
};

} // namespace krisp

#endif // KRISP_SEARCH_PLACEMENT_HH
