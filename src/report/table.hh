/**
 * @file
 * The report table model: the one value type figure definitions
 * produce and every renderer consumes.
 *
 * A ReportTable is a rectangular grid of pre-formatted strings plus
 * presentation metadata (id, title, note lines). Keeping cells as
 * strings — formatted once, by the figure definition, with the
 * deterministic fmtDouble helpers — is what makes every rendering
 * byte-stable: Markdown, CSV, and JSON are pure functions of the
 * table value, so reports are identical across `--jobs`, across
 * resume boundaries, and across machines.
 *
 * Ownership: a ReportTable owns all of its strings; it holds no
 * references into stores or figures and can be freely copied,
 * returned, and cached.
 */

#ifndef PCBP_REPORT_TABLE_HH
#define PCBP_REPORT_TABLE_HH

#include <string>
#include <vector>

namespace pcbp
{

class ReportTable
{
  public:
    /**
     * @param id Filename/anchor-safe identifier, unique within the
     *        figure (e.g. "fig6a").
     * @param title Human-readable table title.
     * @param columns Header cells; every row must match this width.
     */
    ReportTable(std::string id, std::string title,
                std::vector<std::string> columns);

    /** Append a free-form caption line (metric, paper numbers). */
    void addNote(std::string note);

    /** Append a row (fatal if the width differs from the header). */
    void addRow(std::vector<std::string> cells);

    const std::string &id() const { return tableId; }
    const std::string &title() const { return tableTitle; }
    const std::vector<std::string> &columns() const { return head; }
    const std::vector<std::vector<std::string>> &rows() const
    {
        return body;
    }

    /**
     * GitHub-flavored Markdown: bold title, note lines, then a pipe
     * table ('|' in cells is escaped).
     */
    std::string toMarkdown() const;

    /**
     * One CSV section: a `# id: title` comment line, the header, the
     * rows. Cells containing commas, quotes, or newlines are quoted
     * (RFC 4180 style).
     */
    std::string toCsv() const;

    /** JSON object: {"id","title","notes","columns","rows"}. */
    std::string toJson() const;

  private:
    std::string tableId;
    std::string tableTitle;
    std::vector<std::string> noteLines;
    std::vector<std::string> head;
    std::vector<std::vector<std::string>> body;
};

/** Render a figure's tables as one CSV document (sections in order). */
std::string tablesToCsv(const std::vector<ReportTable> &tables);

/** Render a figure's tables as one JSON array. */
std::string tablesToJson(const std::vector<ReportTable> &tables);

} // namespace pcbp

#endif // PCBP_REPORT_TABLE_HH
