#include "common/parse.hh"

#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>

#include "common/logging.hh"

namespace krisp
{

namespace
{

/** Whether all of @p text parsed into @p value. */
template <typename T, typename... Format>
bool
parsesWhole(std::string_view text, T &value, Format... format)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] =
        std::from_chars(text.data(), end, value, format...);
    return ec == std::errc() && ptr == end;
}

[[noreturn]] void
reject(std::string_view text, std::string_view origin,
       std::string_view expected)
{
    fatal("invalid ", origin, " value '", text, "' (expected ",
          expected, ")");
}

} // namespace

std::uint64_t
parseUnsigned(std::string_view text, std::string_view origin,
              std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t value = 0;
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    const bool ok = hex ? parsesWhole(text.substr(2), value, 16)
                        : parsesWhole(text, value, 10);
    if (!ok || value < lo || value > hi)
        reject(text, origin,
               detail::concat("an integer in [", lo, ", ", hi, "]"));
    return value;
}

double
parseReal(std::string_view text, std::string_view origin, double lo,
          double hi)
{
    double value = 0;
    if (!parsesWhole(text, value) || !std::isfinite(value) ||
        value < lo || value > hi)
        reject(text, origin,
               detail::concat("a number in [", lo, ", ", hi, "]"));
    return value;
}

double
parsePositiveReal(std::string_view text, std::string_view origin,
                  double hi)
{
    double value = 0;
    if (!parsesWhole(text, value) || !std::isfinite(value) ||
        value <= 0 || value > hi)
        reject(text, origin,
               hi < std::numeric_limits<double>::max()
                   ? detail::concat("a number in (0, ", hi, "]")
                   : "a finite positive number");
    return value;
}

} // namespace krisp
