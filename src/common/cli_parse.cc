#include "common/cli_parse.hh"

#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace pcbp
{

std::uint64_t
parseCountArg(const std::string &flag, const std::string &value,
              std::uint64_t max)
{
    bool digits = !value.empty();
    for (const char c : value)
        digits = digits && c >= '0' && c <= '9';
    if (!digits) {
        pcbp_fatal(flag, " wants a non-negative integer, got '", value,
                   "'");
    }

    std::uint64_t v = 0;
    for (const char c : value) {
        const std::uint64_t d = std::uint64_t(c - '0');
        // v * 10 + d <= max, without overflowing on the way.
        if (d > max || v > (max - d) / 10) {
            pcbp_fatal(flag, " value '", value,
                       "' is out of range (max ", max, ")");
        }
        v = v * 10 + d;
    }
    return v;
}

double
parseNonNegativeArg(const std::string &flag, const std::string &value)
{
    // strtod alone would accept leading whitespace, a sign, "inf" and
    // "nan"; requiring a leading digit or '.' and a full, finite parse
    // leaves plain non-negative decimals.
    char *end = nullptr;
    const bool lead = !value.empty() &&
                      ((value[0] >= '0' && value[0] <= '9') ||
                       value[0] == '.');
    const double v = lead ? std::strtod(value.c_str(), &end) : 0.0;
    if (!lead || end != value.c_str() + value.size() ||
        !std::isfinite(v)) {
        pcbp_fatal(flag, " wants a finite non-negative number, got '",
                   value, "'");
    }
    return v;
}

} // namespace pcbp
