#include "common/table.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace krisp
{

std::string
formatFixed(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{
    fatal_if(header_.empty(), "TextTable needs at least one column");
}

TextTable &
TextTable::row()
{
    panic_if(!rows_.empty() && rows_.back().size() != header_.size(),
             "previous row has ", rows_.back().size(), " cells, expected ",
             header_.size());
    rows_.emplace_back();
    return *this;
}

TextTable &
TextTable::cell(const std::string &value)
{
    panic_if(rows_.empty(), "cell() before row()");
    panic_if(rows_.back().size() >= header_.size(),
             "too many cells in row");
    rows_.back().push_back(value);
    return *this;
}

TextTable &
TextTable::cell(const char *value)
{
    return cell(std::string(value));
}

TextTable &
TextTable::cell(double value, int precision)
{
    return cell(formatFixed(value, precision));
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream out;
    auto emit_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            out << cells[c];
            if (c + 1 < cells.size()) {
                out << std::string(widths[c] - cells[c].size() + 2, ' ');
            }
        }
        out << '\n';
    };

    emit_row(header_);
    for (std::size_t c = 0; c < header_.size(); ++c) {
        out << std::string(widths[c], '-');
        if (c + 1 < header_.size())
            out << "  ";
    }
    out << '\n';
    for (const auto &row : rows_)
        emit_row(row);
    return out.str();
}

void
TextTable::print(const std::string &title) const
{
    std::printf("\n== %s ==\n%s", title.c_str(), render().c_str());
    std::fflush(stdout);
}

} // namespace krisp
