/**
 * @file
 * Saturating up/down counter, the basic prediction unit of most
 * table-based branch predictors.
 */

#ifndef PCBP_COMMON_SAT_COUNTER_HH
#define PCBP_COMMON_SAT_COUNTER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace pcbp
{

/**
 * An n-bit saturating counter. The counter predicts taken when it is
 * in the upper half of its range (for the canonical 2-bit counter:
 * states 2 and 3 predict taken).
 */
class SatCounter
{
  public:
    SatCounter() = default;

    /**
     * @param bits Width of the counter in bits (1..8).
     * @param initial Initial counter value.
     */
    explicit SatCounter(unsigned bits, unsigned initial = 0)
        : maxVal((1u << bits) - 1), val(initial)
    {
        pcbp_assert(bits >= 1 && bits <= 8);
        pcbp_assert(initial <= maxVal);
    }

    /** Increment, saturating at the maximum value. */
    void
    increment()
    {
        if (val < maxVal)
            ++val;
    }

    /** Decrement, saturating at zero. */
    void
    decrement()
    {
        if (val > 0)
            --val;
    }

    /** Move the counter toward taken (true) or not-taken (false). */
    void
    update(bool taken)
    {
        if (taken)
            increment();
        else
            decrement();
    }

    /** Direction prediction: true = taken. */
    bool taken() const { return val > maxVal / 2; }

    /** True when the counter is at either extreme (high confidence). */
    bool saturated() const { return val == 0 || val == maxVal; }

    /** Raw counter value. */
    unsigned value() const { return val; }

    /** Force the counter to a specific value (used by filters). */
    void
    set(unsigned v)
    {
        pcbp_assert(v <= maxVal);
        val = v;
    }

    /** Initialize weakly toward a direction (e.g.\ on allocation). */
    void
    setWeak(bool taken_dir)
    {
        val = taken_dir ? maxVal / 2 + 1 : maxVal / 2;
    }

    /** Maximum representable value. */
    unsigned maxValue() const { return maxVal; }

  private:
    std::uint8_t maxVal = 3;
    std::uint8_t val = 0;
};

/**
 * A table of same-width saturating counters in structure-of-arrays
 * form: one byte per counter plus a single shared width, instead of
 * a vector<SatCounter> that stores the (identical) maxVal alongside
 * every value. Halves the table footprint — the difference between
 * fitting a 8K-entry pattern table in L1 or not — and keeps each
 * table one contiguous byte array. Semantics per counter are exactly
 * SatCounter's.
 */
class SatCounterTable
{
  public:
    SatCounterTable() = default;

    /**
     * @param n Number of counters.
     * @param bits Width of every counter in bits (1..8).
     * @param initial Initial value of every counter.
     */
    SatCounterTable(std::size_t n, unsigned bits, unsigned initial = 0)
        : vals(n, static_cast<std::uint8_t>(initial)),
          maxVal(static_cast<std::uint8_t>((1u << bits) - 1)),
          ctrBits(static_cast<std::uint8_t>(bits))
    {
        pcbp_assert(bits >= 1 && bits <= 8);
        pcbp_assert(initial <= maxVal);
    }

    std::size_t size() const { return vals.size(); }

    /** Shared counter width in bits. */
    unsigned bits() const { return ctrBits; }

    /** Direction prediction of counter @p i: true = taken. */
    bool
    taken(std::size_t i) const
    {
        pcbp_dassert(i < vals.size());
        return vals[i] > maxVal / 2;
    }

    /** Move counter @p i toward taken/not-taken, saturating. */
    void
    update(std::size_t i, bool taken_dir)
    {
        pcbp_dassert(i < vals.size());
        std::uint8_t &v = vals[i];
        if (taken_dir) {
            if (v < maxVal)
                ++v;
        } else {
            if (v > 0)
                --v;
        }
    }

    void
    increment(std::size_t i)
    {
        update(i, true);
    }

    void
    decrement(std::size_t i)
    {
        update(i, false);
    }

    /** Raw value of counter @p i. */
    unsigned
    value(std::size_t i) const
    {
        pcbp_dassert(i < vals.size());
        return vals[i];
    }

    /** Force counter @p i to a specific value. */
    void
    set(std::size_t i, unsigned v)
    {
        pcbp_dassert(i < vals.size());
        pcbp_assert(v <= maxVal);
        vals[i] = static_cast<std::uint8_t>(v);
    }

    /** Initialize counter @p i weakly toward a direction. */
    void
    setWeak(std::size_t i, bool taken_dir)
    {
        pcbp_dassert(i < vals.size());
        vals[i] = static_cast<std::uint8_t>(taken_dir ? maxVal / 2 + 1
                                                      : maxVal / 2);
    }

    /** True when counter @p i is at either extreme. */
    bool
    saturated(std::size_t i) const
    {
        pcbp_dassert(i < vals.size());
        return vals[i] == 0 || vals[i] == maxVal;
    }

    /** Set every counter to @p v (reset paths). */
    void
    fill(unsigned v)
    {
        pcbp_assert(v <= maxVal);
        std::fill(vals.begin(), vals.end(),
                  static_cast<std::uint8_t>(v));
    }

    /** Maximum representable value (shared by all counters). */
    unsigned maxValue() const { return maxVal; }

  private:
    std::vector<std::uint8_t> vals;
    std::uint8_t maxVal = 3;
    std::uint8_t ctrBits = 2;
};

} // namespace pcbp

#endif // PCBP_COMMON_SAT_COUNTER_HH
