/**
 * @file
 * Plain-text table printer used by the figure-reproduction benches to
 * emit the same rows/series the paper reports.
 */

#ifndef HERMES_COMMON_TABLE_HH
#define HERMES_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace hermes {

/**
 * Column-aligned text table.  Collect rows of strings, then render to
 * stdout.  Keeps bench output diff-friendly.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /**
     * Append one row; throws std::invalid_argument unless it matches
     * the header width.
     */
    void addRow(std::vector<std::string> cells);

    /** Render the table to a string with aligned columns. */
    std::string render() const;

    /** Render and write to stdout. */
    void print() const;

    /** Format a double with the given precision. */
    static std::string num(double value, int precision = 2);

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace hermes

#endif // HERMES_COMMON_TABLE_HH
