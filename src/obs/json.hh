/**
 * @file
 * Deterministic JSON formatting helpers shared by the trace sink, the
 * metrics registry and the benchmark reports.
 *
 * Numbers use the shortest round-trip representation (std::to_chars),
 * so identical values always serialise to identical bytes — the
 * property the trace-diffing tests rely on.
 */

#ifndef KRISP_OBS_JSON_HH
#define KRISP_OBS_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace krisp
{
namespace json
{

/** Escape a string body per RFC 8259 (no surrounding quotes). */
std::string escape(std::string_view s);

/** Escaped and double-quoted string literal. */
std::string quote(std::string_view s);

/**
 * Shortest round-trip decimal for a double. Non-finite values (which
 * JSON cannot represent) serialise as 0; the first occurrence since
 * the last resetNonFiniteCount() warns once, every occurrence is
 * counted so a NaN-producing bug stays visible in metrics
 * ("obs.nonfinite_values", see publishObsHealth) instead of spamming
 * the log.
 */
std::string number(double v);

/**
 * @p v itself when finite; otherwise 0, counted and warned about
 * exactly as number() does. For callers that store a double now and
 * format it later: the count lands where the value is made.
 */
double finiteOrZero(double v);

std::string number(std::uint64_t v);
std::string number(std::int64_t v);

/** Non-finite doubles serialised (process-wide, since last reset). */
std::uint64_t nonFiniteCount();

/** Reset the non-finite counter and re-arm the once-per-run warning. */
void resetNonFiniteCount();

} // namespace json
} // namespace krisp

#endif // KRISP_OBS_JSON_HH
