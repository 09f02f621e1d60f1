/**
 * @file
 * Fixed-capacity branch history shift register. Used both for the
 * prophet's branch history register (BHR) and as the storage backing
 * the critic's branch outcome register (BOR).
 */

#ifndef PCBP_COMMON_HISTORY_REGISTER_HH
#define PCBP_COMMON_HISTORY_REGISTER_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/bit_utils.hh"
#include "common/logging.hh"

namespace pcbp
{

/**
 * A shift register of branch outcomes with capacity for 128 bits.
 *
 * Bit 0 is the most recently inserted outcome; higher bit positions
 * are older. Copying the register is cheap (two 64-bit words), which
 * is how per-branch checkpoints are implemented.
 */
class HistoryRegister
{
  public:
    /** Maximum number of bits the register can hold. */
    static constexpr unsigned capacity = 128;

    HistoryRegister() : words{0, 0} {}

    /** Shift in a new outcome as the youngest bit. */
    void
    shiftIn(bool taken)
    {
        words[1] = (words[1] << 1) | (words[0] >> 63);
        words[0] = (words[0] << 1) | static_cast<std::uint64_t>(taken);
    }

    /**
     * Shift in @p n bits at once (n <= 64), equivalent to n
     * successive shiftIn() calls. Bit 0 of @p youngest_first is the
     * youngest inserted bit — the one the LAST of those shiftIn()
     * calls would have inserted. The bulk form exists for the
     * critique path: reconstructing a BOR view appends a whole
     * future-bit window per critique, and a two-word funnel shift is
     * several times cheaper than the bit-at-a-time loop.
     */
    void
    shiftInMany(std::uint64_t youngest_first, unsigned n)
    {
        pcbp_dassert(n <= 64);
        if (n == 0)
            return;
        if (n == 64) {
            words[1] = words[0];
            words[0] = youngest_first;
            return;
        }
        words[1] = (words[1] << n) | (words[0] >> (64 - n));
        words[0] = (words[0] << n) | (youngest_first & maskBits(n));
    }

    /** Raw storage words (bit i of word w = bit 64w + i): the SIMD
     *  perceptron kernels consume history as two lane masks. */
    std::uint64_t word0() const { return words[0]; }
    std::uint64_t word1() const { return words[1]; }

    /** Outcome of the i-th most recent branch (0 = youngest). */
    bool
    bit(unsigned i) const
    {
        pcbp_dassert(i < capacity);
        return (words[i / 64] >> (i % 64)) & 1;
    }

    /**
     * The youngest @p n bits as an integer (n <= 64). Bit 0 of the
     * result is the youngest outcome.
     */
    std::uint64_t
    low(unsigned n) const
    {
        pcbp_dassert(n <= 64);
        return words[0] & maskBits(n);
    }

    /**
     * Bits [first, first+n) (0 = youngest) as an integer, n <= 64.
     * Used to read a window of history that skips future bits.
     */
    std::uint64_t
    window(unsigned first, unsigned n) const
    {
        pcbp_dassert(n <= 64 && first + n <= capacity);
        if (first == 0)
            return low(n);
        std::uint64_t v = 0;
        if (first < 64) {
            v = words[0] >> first;
            v |= words[1] << (64 - first);
        } else {
            v = words[1] >> (first - 64);
        }
        return v & maskBits(n);
    }

    /** Fold the youngest @p n bits down to @p bits index bits. */
    std::uint64_t
    foldedLow(unsigned n, unsigned bits) const
    {
        if (n <= 64)
            return foldBits(low(n), bits);
        std::uint64_t f = foldBits(low(64), bits);
        f ^= foldBits(window(64, n - 64), bits);
        return f & maskBits(bits);
    }

    bool operator==(const HistoryRegister &o) const
    {
        return words == o.words;
    }

    bool operator!=(const HistoryRegister &o) const { return !(*this == o); }

    /**
     * Render the youngest @p n bits as a string, youngest bit last
     * (so it reads left-to-right in program order), 'T'/'N'.
     */
    std::string
    toString(unsigned n) const
    {
        pcbp_assert(n <= capacity);
        std::string s;
        s.reserve(n);
        for (unsigned i = n; i-- > 0;)
            s.push_back(bit(i) ? 'T' : 'N');
        return s;
    }

  private:
    std::array<std::uint64_t, 2> words;
};

} // namespace pcbp

#endif // PCBP_COMMON_HISTORY_REGISTER_HH
