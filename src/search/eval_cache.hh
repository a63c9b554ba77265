/**
 * @file
 * Memoized ground-truth evaluation cache.
 *
 * Keyed by the canonical ClusterConfig fingerprint, the cache stores
 * raw simulator outcomes (latency percentiles, energy, drops) rather
 * than scalar costs, so one persisted sim serves any cost spec. Two
 * deduplication layers:
 *
 *  - cross-chain: concurrent SA chains asking for the same
 *    fingerprint run the sim exactly once — later askers block on
 *    the in-flight entry (promise pattern) and reuse its outcome;
 *  - warm start: outcomes persist to JSON (the CachingStrategy idea
 *    from kernel autotuners), so a re-run with the same problem
 *    skips every already-scored config. A warm run over a fully
 *    covered space executes zero sims.
 *
 * Stats are deterministic by construction even under parallel
 * chains: `executed` counts unique cold fingerprints, `warmHits`
 * counts requests whose fingerprint was loaded from disk, and
 * `crossChainHits` is the remainder — none depend on which thread
 * happened to compute an entry.
 */

#ifndef KRISP_SEARCH_EVAL_CACHE_HH
#define KRISP_SEARCH_EVAL_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>

namespace krisp
{

/** Raw simulator outcome for one cluster config. */
struct SimOutcome
{
    double p50Ms = 0;
    double p95Ms = 0;
    double p99Ms = 0;
    double energyPerRequestJ = 0;
    double dropRate = 0;
    double availability = 1.0;
};

class EvalCache
{
  public:
    struct Stats
    {
        /** getOrCompute calls. */
        std::uint64_t requests = 0;
        /** Requests answered by the persisted snapshot. */
        std::uint64_t warmHits = 0;
        /** Requests answered by another chain's evaluation. */
        std::uint64_t crossChainHits = 0;
        /** Ground-truth sims actually executed (unique cold fps). */
        std::uint64_t executed = 0;
    };

    EvalCache() = default;

    /**
     * Return the outcome for @p fingerprint, running @p compute at
     * most once per fingerprint across all threads. Concurrent
     * callers for the same fingerprint block until the first one's
     * result is ready.
     */
    SimOutcome getOrCompute(std::uint64_t fingerprint,
                            const std::function<SimOutcome()> &compute);

    /**
     * Load a persisted snapshot; false if absent or unreadable, and
     * false with a warning if it records another fingerprint layout
     * than fingerprintVersion, or none: its entries are not loaded,
     * so a later saveJson() does not carry them along. An entry
     * whose "fp" key is not a 0x-hex or decimal 64-bit integer is a
     * fatal error naming the file and the entry index.
     */
    bool loadJson(const std::string &path);
    /** Persist all ready entries, sorted by fingerprint. */
    void saveJson(const std::string &path) const;

    Stats stats() const;
    std::size_t size() const;

  private:
    struct Entry
    {
        bool ready = false;
        SimOutcome outcome;
    };

    mutable std::mutex m_;
    std::condition_variable cv_;
    std::map<std::uint64_t, Entry> entries_;
    /** Fingerprints loaded from the warm snapshot. */
    std::set<std::uint64_t> warm_;
    Stats stats_;
};

} // namespace krisp

#endif // KRISP_SEARCH_EVAL_CACHE_HH
