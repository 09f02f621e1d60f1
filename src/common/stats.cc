#include "common/stats.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace pcbp
{

Histogram::Histogram(std::uint64_t bucket_width, unsigned num_buckets)
    : width(bucket_width), bins(num_buckets + 1, 0)
{
    pcbp_assert(bucket_width > 0 && num_buckets > 0);
}

void
Histogram::sample(std::uint64_t value)
{
    const std::size_t idx =
        std::min<std::size_t>(value / width, bins.size() - 1);
    ++bins[idx];
    ++total;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : head(std::move(headers))
{
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    pcbp_assert(cells.size() == head.size(),
                "row width ", cells.size(), " vs header ", head.size());
    rows.push_back(std::move(cells));
}

std::string
TablePrinter::str() const
{
    std::vector<std::size_t> w(head.size(), 0);
    for (std::size_t c = 0; c < head.size(); ++c)
        w[c] = head[c].size();
    for (const auto &r : rows)
        for (std::size_t c = 0; c < r.size(); ++c)
            w[c] = std::max(w[c], r[c].size());

    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string> &r) {
        os << "|";
        for (std::size_t c = 0; c < r.size(); ++c) {
            os << ' ' << r[c];
            os << std::string(w[c] - r[c].size(), ' ') << " |";
        }
        os << '\n';
    };
    emit_row(head);
    os << "|";
    for (std::size_t c = 0; c < head.size(); ++c)
        os << std::string(w[c] + 2, '-') << "|";
    os << '\n';
    for (const auto &r : rows)
        emit_row(r);
    return os.str();
}

std::string
fmtDouble(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

std::string
fmtPercent(double frac, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", digits, frac * 100.0);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

} // namespace pcbp
