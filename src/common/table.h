/**
 * @file
 * Console table rendering for the benchmark harnesses.
 *
 * Each bench binary reproduces a paper table or figure by printing an
 * aligned text table of the same rows/series the paper reports.
 *
 * Key invariants:
 *  - The header row fixes the column count; addRow() aborts on a
 *    row of any other width, so a rendered table is always
 *    rectangular.
 */

#ifndef FERMIHEDRAL_COMMON_TABLE_H
#define FERMIHEDRAL_COMMON_TABLE_H

#include <string>
#include <vector>

namespace fermihedral {

/** An aligned console table with a header row. */
class Table
{
  public:
    /** @param headers Column titles, fixing the column count. */
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must match the header column count. */
    void addRow(std::vector<std::string> row);

    /** Render with aligned columns. */
    std::string render() const;

    /** Format helper: fixed-precision double. */
    static std::string num(double value, int precision = 2);

    /** Format helper: integer. */
    static std::string num(std::int64_t value);

    /** Format helper: percentage with sign, e.g.\ "-5.78%". */
    static std::string percent(double fraction, int precision = 2);

  private:
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

} // namespace fermihedral

#endif // FERMIHEDRAL_COMMON_TABLE_H
