#include "common/table.h"

#include <cstdint>
#include <iomanip>
#include <sstream>

#include "common/logging.h"

namespace fermihedral {

Table::Table(std::vector<std::string> headers)
    : headers(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> row)
{
    require(row.size() == headers.size(),
            "table row has ", row.size(), " cells, expected ",
            headers.size());
    rows.push_back(std::move(row));
}

std::string
Table::render() const
{
    std::vector<std::size_t> widths(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c)
        widths[c] = headers[c].size();
    for (const auto &row : rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    std::ostringstream oss;
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            oss << "| " << std::left << std::setw(widths[c]) << row[c]
                << ' ';
        }
        oss << "|\n";
    };
    auto emit_rule = [&]() {
        for (std::size_t c = 0; c < widths.size(); ++c)
            oss << '+' << std::string(widths[c] + 2, '-');
        oss << "+\n";
    };

    emit_rule();
    emit_row(headers);
    emit_rule();
    for (const auto &row : rows)
        emit_row(row);
    emit_rule();
    return oss.str();
}

std::string
Table::num(double value, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    return oss.str();
}

std::string
Table::num(std::int64_t value)
{
    return std::to_string(value);
}

std::string
Table::percent(double fraction, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision)
        << fraction * 100.0 << '%';
    return oss.str();
}

} // namespace fermihedral
