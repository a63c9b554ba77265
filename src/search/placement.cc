#include "search/placement.hh"

#include <algorithm>

#include "common/logging.hh"

namespace krisp
{

std::uint64_t
PlacementProblem::totalWeight() const
{
    std::uint64_t total = 0;
    for (const unsigned w : weights)
        total += w;
    return total;
}

void
PlacementProblem::validate() const
{
    fatal_if(models.empty(), "placement problem needs models");
    fatal_if(weights.size() != models.size(),
             "one traffic weight per model");
    for (const unsigned w : weights)
        fatal_if(w == 0, "traffic weights must be positive");
    fatal_if(numShards == 0 || numShards > 64,
             "numShards must be in [1, 64] (home bitmask width)");
}

bool
PlacementCandidate::valid(const PlacementProblem &p) const
{
    if (homes.size() != p.models.size() ||
        grantCapCus.size() != p.numShards)
        return false;
    const std::uint64_t shard_mask =
        p.numShards == 64 ? ~0ULL : (1ULL << p.numShards) - 1;
    for (const std::uint64_t h : homes)
        if (h == 0 || (h & ~shard_mask) != 0)
            return false;
    for (const unsigned cap : grantCapCus)
        if (std::find(capLadder.begin(), capLadder.end(), cap) ==
            capLadder.end())
            return false;
    return true;
}

PlacementCandidate
PlacementCandidate::canonical(const PlacementProblem &p) const
{
    // Sort shards by (cap, homed model indices ascending); ties are
    // fully interchangeable so any stable order works.
    struct ShardKey
    {
        unsigned cap;
        std::vector<unsigned> models;
        unsigned oldIndex;
    };
    std::vector<ShardKey> keys(p.numShards);
    for (unsigned s = 0; s < p.numShards; ++s) {
        keys[s].cap = grantCapCus[s];
        keys[s].oldIndex = s;
        for (unsigned m = 0; m < homes.size(); ++m)
            if (homes[m] & (1ULL << s))
                keys[s].models.push_back(m);
    }
    std::sort(keys.begin(), keys.end(),
              [](const ShardKey &a, const ShardKey &b) {
                  if (a.cap != b.cap)
                      return a.cap < b.cap;
                  if (a.models != b.models)
                      return a.models < b.models;
                  return a.oldIndex < b.oldIndex;
              });

    PlacementCandidate out = *this;
    for (unsigned s = 0; s < p.numShards; ++s)
        out.grantCapCus[s] = keys[s].cap;
    for (unsigned m = 0; m < homes.size(); ++m) {
        std::uint64_t mask = 0;
        for (unsigned s = 0; s < p.numShards; ++s)
            if (homes[m] & (1ULL << keys[s].oldIndex))
                mask |= 1ULL << s;
        out.homes[m] = mask;
    }
    return out;
}

ClusterConfig
PlacementCandidate::toClusterConfig(const PlacementProblem &p) const
{
    const PlacementCandidate c = canonical(p);
    ClusterConfig cfg = p.base;
    cfg.numShards = p.numShards;
    cfg.routing = c.routing;
    cfg.reconfig = c.reconfig;
    cfg.models.clear();
    cfg.modelHomes.clear();
    for (unsigned m = 0; m < p.models.size(); ++m) {
        std::vector<unsigned> shard_list;
        for (unsigned s = 0; s < p.numShards; ++s)
            if (c.homes[m] & (1ULL << s))
                shard_list.push_back(s);
        // Weight-many duplicate entries realise the traffic mix;
        // each duplicate shares the model's home set.
        for (unsigned w = 0; w < p.weights[m]; ++w) {
            cfg.models.push_back(p.models[m]);
            cfg.modelHomes.push_back(shard_list);
        }
    }
    cfg.shardGrantCapCus = c.grantCapCus;
    return cfg;
}

std::uint64_t
PlacementCandidate::fingerprint(const PlacementProblem &p) const
{
    return toClusterConfig(p).fingerprint();
}

std::string
PlacementCandidate::describe(const PlacementProblem &p) const
{
    std::string out = std::string(routingPolicyName(routing)) + "/" +
                      reconfigPolicyName(reconfig);
    for (unsigned s = 0; s < p.numShards; ++s) {
        out += " shard" + std::to_string(s) + "{cap=" +
               std::to_string(grantCapCus[s]) + " models=";
        bool first = true;
        for (unsigned m = 0; m < homes.size(); ++m)
            if (homes[m] & (1ULL << s)) {
                if (!first)
                    out += "+";
                out += p.models[m];
                first = false;
            }
        if (first)
            out += "-";
        out += "}";
    }
    return out;
}

} // namespace krisp
