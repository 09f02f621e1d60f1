/**
 * @file
 * Strict parsing of numeric command-line values. Every CLI flag that
 * takes a count or a threshold goes through here, so a typo such as
 * `--jobs -1` or `--max-cells x1` stops with a message naming the
 * flag instead of wrapping to a huge value, reading as 0, or being
 * silently truncated.
 */

#ifndef PCBP_COMMON_CLI_PARSE_HH
#define PCBP_COMMON_CLI_PARSE_HH

#include <cstdint>
#include <limits>
#include <string>

namespace pcbp
{

/**
 * Parse @p value, the argument of command-line flag @p flag, as a
 * decimal count in [0, @p max]: one or more ASCII digits and nothing
 * else — no sign, no whitespace, no suffix. Anything else, or a value
 * above @p max, exits through pcbp_fatal naming the flag and the
 * value.
 */
std::uint64_t parseCountArg(const std::string &flag,
                            const std::string &value, std::uint64_t max);

/** parseCountArg range-checked against the target type @p T. */
template <typename T>
T
parseCountArg(const std::string &flag, const std::string &value)
{
    static_assert(std::numeric_limits<T>::is_integer &&
                      !std::numeric_limits<T>::is_signed,
                  "counts are unsigned");
    return static_cast<T>(
        parseCountArg(flag, value, std::numeric_limits<T>::max()));
}

/**
 * Parse @p value as a finite, non-negative decimal number (a fraction
 * such as `--threshold 0.25`); anything else exits through pcbp_fatal
 * naming the flag and the value.
 */
double parseNonNegativeArg(const std::string &flag,
                           const std::string &value);

} // namespace pcbp

#endif // PCBP_COMMON_CLI_PARSE_HH
