#include "obs/json.hh"

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace krisp
{
namespace json
{

namespace
{

// Atomics: the parallel sweep harness serialises island snapshots
// from worker threads. Healthy runs never touch these, so the
// counter stays 0 and cannot perturb cross-job byte-determinism.
std::atomic<std::uint64_t> nonfinite_count{0};
std::atomic<bool> nonfinite_warned{false};

} // namespace

std::uint64_t
nonFiniteCount()
{
    return nonfinite_count.load(std::memory_order_relaxed);
}

void
resetNonFiniteCount()
{
    nonfinite_count.store(0, std::memory_order_relaxed);
    nonfinite_warned.store(false, std::memory_order_relaxed);
}

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
quote(std::string_view s)
{
    return "\"" + escape(s) + "\"";
}

double
finiteOrZero(double v)
{
    if (std::isfinite(v))
        return v;
    nonfinite_count.fetch_add(1, std::memory_order_relaxed);
    if (!nonfinite_warned.exchange(true, std::memory_order_relaxed)) {
        warn("non-finite value in JSON output; emitting 0 "
             "(further occurrences are only counted — see the "
             "obs.nonfinite_values metric)");
    }
    return 0;
}

std::string
number(double v)
{
    v = finiteOrZero(v);
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    panic_if(res.ec != std::errc(), "to_chars failed for double");
    return std::string(buf, res.ptr);
}

std::string
number(std::uint64_t v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    panic_if(res.ec != std::errc(), "to_chars failed for uint64");
    return std::string(buf, res.ptr);
}

std::string
number(std::int64_t v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    panic_if(res.ec != std::errc(), "to_chars failed for int64");
    return std::string(buf, res.ptr);
}

} // namespace json
} // namespace krisp
