/**
 * @file
 * Checked parsing of the numbers a program takes from outside:
 * command-line flags, environment variables and persisted files.
 *
 * A parser accepts the whole text or nothing. Empty text, a sign,
 * surrounding spaces, trailing characters, a non-finite real or a
 * value outside the given range is a fatal user error (exit 1) whose
 * message names @p origin: the flag, variable or file entry the text
 * came from. Nothing here reads the environment.
 */

#ifndef KRISP_COMMON_PARSE_HH
#define KRISP_COMMON_PARSE_HH

#include <cstdint>
#include <limits>
#include <string_view>

namespace krisp
{

/** An unsigned integer in [lo, hi], in decimal or as 0x hex. */
std::uint64_t parseUnsigned(std::string_view text, std::string_view origin,
                            std::uint64_t lo, std::uint64_t hi);

/** A finite real in [lo, hi]. */
double parseReal(std::string_view text, std::string_view origin,
                 double lo, double hi);

/** A finite real in (0, hi]: a rate, scale or budget. */
double parsePositiveReal(
    std::string_view text, std::string_view origin,
    double hi = std::numeric_limits<double>::max());

} // namespace krisp

#endif // KRISP_COMMON_PARSE_HH
