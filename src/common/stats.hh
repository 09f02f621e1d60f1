/**
 * @file
 * Lightweight statistics: a fixed-bucket histogram, an ASCII table
 * printer, and the number and JSON-string formatting helpers.
 */

#ifndef PCBP_COMMON_STATS_HH
#define PCBP_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pcbp
{

/**
 * Simple fixed-bucket histogram for distances/latencies, e.g.\ the
 * distribution of uops between pipeline flushes.
 */
class Histogram
{
  public:
    /**
     * @param bucket_width Width of each bucket.
     * @param num_buckets Number of buckets; values past the last
     *        bucket accumulate in the overflow bucket.
     */
    explicit Histogram(std::uint64_t bucket_width = 64,
                       unsigned num_buckets = 64);

    /** Record one sample. */
    void sample(std::uint64_t value);

    /** Number of samples recorded. */
    std::uint64_t count() const { return total; }

    /** Bucket counts (last entry is the overflow bucket). */
    const std::vector<std::uint64_t> &buckets() const { return bins; }

    std::uint64_t bucketWidth() const { return width; }

  private:
    std::uint64_t width;
    std::vector<std::uint64_t> bins;
    std::uint64_t total = 0;
};

/**
 * Render a fixed-column, markdown-style ASCII table (the
 * command-line tables of the examples, pcbp_sweep and the H2P
 * report).
 */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Format the whole table, markdown-style. */
    std::string str() const;

  private:
    std::vector<std::string> head;
    std::vector<std::vector<std::string>> rows;
};

/** Format a double with @p digits decimal places. */
std::string fmtDouble(double v, int digits = 3);

/** Format a percentage (0.1234 -> "12.3%"). */
std::string fmtPercent(double frac, int digits = 1);

/**
 * Escape a string for embedding in a JSON string literal (quotes,
 * backslashes, newlines, tabs) — shared by the result store's JSONL
 * and the report renderers.
 */
std::string jsonEscape(const std::string &s);

} // namespace pcbp

#endif // PCBP_COMMON_STATS_HH
