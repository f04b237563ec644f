/**
 * @file
 * Console table rendering for benchmark harnesses.
 *
 * Every table/figure reproduction binary prints its rows through this
 * class so output is uniform; writeJson carries the same cells into a
 * bench's JSON record.
 */
#ifndef SO_COMMON_TABLE_H
#define SO_COMMON_TABLE_H

#include <cstdio>
#include <string>
#include <vector>

namespace so {

class JsonWriter;

/** A simple aligned text table with an optional title. */
class Table
{
  public:
    explicit Table(std::string title = "") : title_(std::move(title)) {}

    /** Set the header row. */
    void setHeader(std::vector<std::string> header);

    /** Append a data row; shorter rows are padded with empty cells. */
    void addRow(std::vector<std::string> row);

    /** Format helper: fixed-point with @p digits decimals. */
    static std::string num(double value, int digits = 2);

    /** Format helper: integer. */
    static std::string num(long long value);

    /** Render as an aligned table. */
    std::string str() const;

    /**
     * Emit {title, header, rows} as one JSON object into an in-progress
     * document. Cells stay strings: the table stores formatted text.
     */
    void writeJson(JsonWriter &json) const;

    const std::string &title() const { return title_; }

    /** Print the aligned table to @p out (defaults to stdout). */
    void print(std::FILE *out = stdout) const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace so

#endif // SO_COMMON_TABLE_H
