/**
 * @file
 * Canonical ClusterConfig fingerprint.
 *
 * The fingerprint is the identity of a cluster experiment: every
 * knob a caller can set folds into one 64-bit FNV-1a hash, and the
 * per-shard state (static grant cap + homed model set) folds in as a
 * *sorted* multiset of sub-hashes, so relabeling shard indices does
 * not change the value. The placement search relies on this — its
 * move set reaches the same physical configuration along many index
 * permutations, and all of them must hit the same evaluation-cache
 * entry.
 *
 * Excluded on purpose:
 *  - engine: either engine produces byte-identical results, so two
 *    configs differing only in execution strategy are the same
 *    experiment;
 *  - obs: observability is a tap, not behaviour.
 * Every cluster run uses the paper's MI50 with default host,
 * profiler and ioctl-retry parameters, so none of those hash.
 *
 * Caveat: per-shard fault streams derive from the shard *index*
 * (FaultPlan::forShard), so under an active fault plan two
 * index-permuted configs are statistically — not byte — equivalent.
 * The fault plan's parameters still hash, so fault-free configs
 * (what the search evaluates) are exactly equivalent.
 */

#include <algorithm>
#include <vector>

#include "cluster/cluster_server.hh"
#include "common/fnv.hh"
#include "common/logging.hh"

namespace krisp
{

std::uint64_t
ClusterConfig::fingerprint() const
{
    Fnv1a h;
    h.add(fingerprintVersion);

    // ---- workload & frontend ------------------------------------
    h.add(static_cast<std::uint64_t>(numShards));
    h.add(static_cast<std::uint64_t>(routing));
    h.add(static_cast<std::uint64_t>(models.size()));
    for (const std::string &m : models)
        h.add(m);
    h.add(static_cast<std::uint64_t>(workersPerShard));
    h.add(static_cast<std::uint64_t>(policy));
    h.add(static_cast<std::uint64_t>(enforcement));
    h.add(arrivalRatePerSec);
    h.add(static_cast<std::uint64_t>(maxBatch));
    h.add(static_cast<std::uint64_t>(batchTimeoutNs));
    h.add(static_cast<std::uint64_t>(queueCapacity));

    // ---- horizon & seeds ----------------------------------------
    h.add(static_cast<std::uint64_t>(warmupNs));
    h.add(static_cast<std::uint64_t>(measureNs));
    h.add(static_cast<std::uint64_t>(maxSimNs));
    h.add(seed);

    // ---- pipeline timing ----------------------------------------
    h.add(static_cast<std::uint64_t>(preprocessNs));
    h.add(static_cast<std::uint64_t>(postprocessNs));

    // ---- faults & recovery --------------------------------------
    h.add(faults.seed);
    h.add(faults.kernelHangProb);
    h.add(faults.kernelSlowProb);
    h.add(faults.kernelSlowFactor);
    h.add(faults.ioctlFailProb);
    h.add(static_cast<std::uint64_t>(faults.ioctlFailBurst));
    h.add(faults.ioctlDelayProb);
    h.add(faults.ioctlDelayFactor);
    h.add(faults.signalLossProb);
    h.add(faults.stallProb);
    h.add(static_cast<std::uint64_t>(faults.stallNs));
    h.add(faults.shardCrashRatePerSec);
    h.add(static_cast<std::uint64_t>(faults.shardRestartNs));
    h.add(static_cast<std::uint64_t>(faults.watchdogTimeoutNs));
    h.add(static_cast<std::uint64_t>(requestDeadlineNs));
    h.add(static_cast<std::uint64_t>(batchWatchdogNs));
    h.add(static_cast<std::uint64_t>(reconfig));

    // ---- failover -----------------------------------------------
    h.add(static_cast<std::uint64_t>(failoverHangThreshold));
    h.add(static_cast<std::uint64_t>(drainNs));
    h.add(static_cast<std::uint64_t>(readmitGraceNs));

    // ---- resilience ---------------------------------------------
    const ResilienceConfig &r = resilience;
    h.add(static_cast<std::uint64_t>(r.enabled ? 1 : 0));
    for (const TokenBucketConfig &b : r.admission) {
        h.add(b.ratePerSec);
        h.add(b.burst);
    }
    h.add(static_cast<std::uint64_t>(r.brownoutHighWatermark));
    h.add(static_cast<std::uint64_t>(r.brownoutLowWatermark));
    h.add(static_cast<std::uint64_t>(r.brownoutSustain));
    h.add(static_cast<std::uint64_t>(r.brownoutRelax));
    h.add(static_cast<std::uint64_t>(r.brownoutCheckNs));
    h.add(static_cast<std::uint64_t>(r.degradedGrantCapCus));
    h.add(r.retryBudgetRatio);
    h.add(static_cast<std::uint64_t>(r.retryBudgetFloor));
    h.add(static_cast<std::uint64_t>(r.maxAttempts));
    h.add(static_cast<std::uint64_t>(r.breakerFailureThreshold));
    h.add(static_cast<std::uint64_t>(r.breakerCooldownNs));
    h.add(static_cast<std::uint64_t>(r.rerouteBackoffNs));
    h.add(static_cast<std::uint64_t>(r.hedging ? 1 : 0));
    h.add(r.hedgeQuantile);
    h.add(static_cast<std::uint64_t>(r.hedgeMinSamples));
    h.add(static_cast<std::uint64_t>(r.hedgeMinDelayNs));
    h.add(interactiveFraction);
    h.add(sloMs);

    // ---- per-shard placement (shard-order invariant) ------------
    // One sub-hash per shard over (static grant cap, sorted homed
    // model list); the sorted multiset of sub-hashes folds in, so any
    // relabeling of shard indices yields the same fingerprint. Each
    // sub-hash starts from a salted basis so a shard sub-hash can
    // never collide with a plain field fold of the global stream.
    fatal_if(!modelHomes.empty() && modelHomes.size() != models.size(),
             "modelHomes must be empty or one entry per model");
    fatal_if(!shardGrantCapCus.empty() &&
                 shardGrantCapCus.size() != numShards,
             "shardGrantCapCus must be empty or one entry per shard");
    std::vector<std::vector<unsigned>> homed(numShards);
    if (modelHomes.empty()) {
        if (!models.empty())
            for (unsigned s = 0; s < numShards; ++s)
                homed[s].push_back(s % models.size());
    } else {
        for (unsigned m = 0; m < modelHomes.size(); ++m)
            for (unsigned s : modelHomes[m]) {
                fatal_if(s >= numShards, "home shard out of range");
                homed[s].push_back(m);
            }
    }
    std::vector<std::uint64_t> sub(numShards);
    for (unsigned s = 0; s < numShards; ++s) {
        std::sort(homed[s].begin(), homed[s].end());
        Fnv1a sh(fnv1aStepU64(fnv1aOffsetBasis, 0x5aa4dULL));
        const unsigned cap =
            shardGrantCapCus.empty() ? 0 : shardGrantCapCus[s];
        sh.add(static_cast<std::uint64_t>(cap));
        for (unsigned m : homed[s])
            sh.add(static_cast<std::uint64_t>(m));
        sh.add(static_cast<std::uint64_t>(homed[s].size()));
        sub[s] = sh.value();
    }
    std::sort(sub.begin(), sub.end());
    for (std::uint64_t v : sub)
        h.add(v);

    return h.value();
}

} // namespace krisp
