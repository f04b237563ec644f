#include "common/table.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"

namespace so {

void
Table::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
Table::addRow(std::vector<std::string> row)
{
    rows_.push_back(std::move(row));
}

std::string
Table::num(double value, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    return buf;
}

std::string
Table::num(long long value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", value);
    return buf;
}

std::string
Table::str() const
{
    // Compute column widths over header and all rows.
    std::size_t cols = header_.size();
    for (const auto &row : rows_)
        cols = std::max(cols, row.size());
    std::vector<std::size_t> width(cols, 0);
    auto grow = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i)
            width[i] = std::max(width[i], row[i].size());
    };
    if (!header_.empty())
        grow(header_);
    for (const auto &row : rows_)
        grow(row);

    std::ostringstream os;
    if (!title_.empty())
        os << "== " << title_ << " ==\n";
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < cols; ++i) {
            const std::string cell = i < row.size() ? row[i] : "";
            os << cell << std::string(width[i] - cell.size() + 2, ' ');
        }
        os << '\n';
    };
    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (std::size_t w : width)
            total += w + 2;
        os << std::string(total, '-') << '\n';
    }
    for (const auto &row : rows_)
        emit(row);
    return os.str();
}

void
Table::writeJson(JsonWriter &json) const
{
    json.beginObject();
    json.field("title", title_);
    json.key("header").beginArray();
    for (const std::string &cell : header_)
        json.value(cell);
    json.endArray();
    json.key("rows").beginArray();
    for (const auto &row : rows_) {
        json.beginArray();
        for (const std::string &cell : row)
            json.value(cell);
        json.endArray();
    }
    json.endArray();
    json.endObject();
}

void
Table::print(std::FILE *out) const
{
    const std::string text = str();
    std::fwrite(text.data(), 1, text.size(), out);
    std::fputc('\n', out);
}

} // namespace so
