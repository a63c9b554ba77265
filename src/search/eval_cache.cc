#include "search/eval_cache.hh"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "cluster/cluster_server.hh"
#include "common/fnv.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "obs/json_parse.hh"

namespace krisp
{

namespace
{

/** Shortest-exact double rendering (%.17g round-trips IEEE-754). */
std::string
exactDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

SimOutcome
EvalCache::getOrCompute(std::uint64_t fingerprint,
                        const std::function<SimOutcome()> &compute)
{
    std::unique_lock<std::mutex> lock(m_);
    ++stats_.requests;
    auto it = entries_.find(fingerprint);
    if (it != entries_.end()) {
        if (warm_.count(fingerprint) != 0)
            ++stats_.warmHits;
        else
            ++stats_.crossChainHits;
        // Another chain may still be computing this entry; wait for
        // its promise rather than duplicating the sim.
        cv_.wait(lock, [&] { return it->second.ready; });
        return it->second.outcome;
    }
    ++stats_.executed;
    Entry &entry = entries_[fingerprint];
    lock.unlock();
    const SimOutcome outcome = compute();
    lock.lock();
    entry.outcome = outcome;
    entry.ready = true;
    cv_.notify_all();
    return outcome;
}

bool
EvalCache::loadJson(const std::string &path)
{
    json::Value root;
    std::string error;
    if (!json::parseFile(path, root, error))
        return false;
    // Keys of another fingerprint layout name no config this build
    // asks for; loading them would only carry dead entries along.
    const json::Value *layout = root.find("fingerprint_layout");
    const bool numbered = layout != nullptr && layout->isNumber();
    if (!numbered ||
        layout->num != static_cast<double>(fingerprintVersion)) {
        warn("eval cache ", path, ": fingerprint layout ",
             numbered ? detail::concat(layout->num) : "none",
             ", this build's is ", fingerprintVersion,
             "; ignoring its entries");
        return false;
    }
    const json::Value *entries = root.find("entries");
    if (entries == nullptr || !entries->isArray()) {
        warn("eval cache ", path, ": no entries array; ignoring");
        return false;
    }
    std::unique_lock<std::mutex> lock(m_);
    for (std::size_t i = 0; i < entries->arr.size(); ++i) {
        const json::Value &e = entries->arr[i];
        const std::string where =
            detail::concat("eval cache ", path, " entries[", i, "].");
        // A key that does not parse names no config: end the run
        // naming the entry rather than skip it or read it as key 0.
        const std::string origin = where + "fp";
        const json::Value *fp = e.find("fp");
        if (fp == nullptr || !fp->isString())
            fatal(origin, " is not a string");
        const std::uint64_t key =
            parseUnsigned(fp->str, origin, 0, UINT64_MAX);
        Entry &entry = entries_[key];
        // An outcome read as a fallback would still count as a warm,
        // trusted result, so every field must be present and in
        // range; the two rates are ratios, as ClusterServer computes
        // them.
        auto field = [&e, &where](const char *name, bool ratio) {
            const json::Value *v = e.find(name);
            if (v == nullptr)
                fatal(where, name, " is missing");
            if (!v->isNumber() || !std::isfinite(v->num) || v->num < 0)
                fatal(where, name, " is not a finite number >= 0");
            if (ratio && v->num > 1)
                fatal(where, name, " value ", v->num,
                      " is a ratio above 1");
            return v->num;
        };
        entry.outcome.p50Ms = field("p50_ms", false);
        entry.outcome.p95Ms = field("p95_ms", false);
        entry.outcome.p99Ms = field("p99_ms", false);
        entry.outcome.energyPerRequestJ = field("energy_j", false);
        entry.outcome.dropRate = field("drop_rate", true);
        entry.outcome.availability = field("availability", true);
        entry.ready = true;
        warm_.insert(key);
    }
    return true;
}

void
EvalCache::saveJson(const std::string &path) const
{
    std::unique_lock<std::mutex> lock(m_);
    std::ofstream out(path);
    if (!out) {
        warn("cannot write eval cache: ", path);
        return;
    }
    out << "{\n  \"version\": 1,\n  \"fingerprint_layout\": "
        << fingerprintVersion << ",\n  \"entries\": [";
    bool first = true;
    // std::map iterates fingerprints ascending: the snapshot is
    // byte-stable for a given entry set regardless of insert order.
    for (const auto &[fp, entry] : entries_) {
        if (!entry.ready)
            continue;
        out << (first ? "\n" : ",\n");
        first = false;
        const SimOutcome &o = entry.outcome;
        out << "    {\"fp\": \"" << fnvHex(fp) << "\""
            << ", \"p50_ms\": " << exactDouble(o.p50Ms)
            << ", \"p95_ms\": " << exactDouble(o.p95Ms)
            << ", \"p99_ms\": " << exactDouble(o.p99Ms)
            << ", \"energy_j\": "
            << exactDouble(o.energyPerRequestJ)
            << ", \"drop_rate\": " << exactDouble(o.dropRate)
            << ", \"availability\": "
            << exactDouble(o.availability) << "}";
    }
    out << "\n  ]\n}\n";
}

EvalCache::Stats
EvalCache::stats() const
{
    std::unique_lock<std::mutex> lock(m_);
    return stats_;
}

std::size_t
EvalCache::size() const
{
    std::unique_lock<std::mutex> lock(m_);
    return entries_.size();
}

} // namespace krisp
