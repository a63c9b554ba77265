/**
 * @file
 * Plain-text table formatter used by the benchmark harnesses to print
 * paper-style tables/series to stdout.
 */

#ifndef KRISP_COMMON_TABLE_HH
#define KRISP_COMMON_TABLE_HH

#include <concepts>
#include <cstdint>
#include <string>
#include <vector>

namespace krisp
{

/**
 * Column-aligned table builder. Cells are strings; numeric helpers
 * format with a fixed precision. Rendered with a header rule, e.g.:
 *
 *   model        workers  rps    p95_ms
 *   -----------  -------  -----  ------
 *   albert       2        41.8   31.2
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Begin a new row; subsequent cell() calls fill it left to right. */
    TextTable &row();
    TextTable &cell(const std::string &value);
    TextTable &cell(const char *value);
    TextTable &cell(double value, int precision = 3);

    /** Integral overload (any integer type). */
    template <typename T>
        requires std::integral<T>
    TextTable &
    cell(T value)
    {
        return cell(std::to_string(value));
    }

    std::size_t rows() const { return rows_.size(); }

    /** Render with aligned columns and a dashed header rule. */
    std::string render() const;

    /** Print render() to stdout with a title line. */
    void print(const std::string &title) const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision (helper for ad-hoc output). */
std::string formatFixed(double value, int precision);

} // namespace krisp

#endif // KRISP_COMMON_TABLE_HH
