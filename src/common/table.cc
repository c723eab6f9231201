#include "common/table.hh"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace hermes {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    if (cells.size() != header_.size()) {
        throw std::invalid_argument(
            detail::concat("table row width ", cells.size(),
                           " does not match header width ",
                           header_.size()));
    }
    rows_.push_back(std::move(cells));
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
               << row[c];
        }
        os << '\n';
    };
    emit_row(header_);
    std::string rule;
    for (std::size_t c = 0; c < header_.size(); ++c)
        rule += std::string(widths[c], '-') + "  ";
    os << rule << '\n';
    for (const auto &row : rows_)
        emit_row(row);
    return os.str();
}

void
TextTable::print() const
{
    std::fputs(render().c_str(), stdout);
}

std::string
TextTable::num(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

} // namespace hermes
