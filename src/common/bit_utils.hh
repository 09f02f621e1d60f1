/**
 * @file
 * Small bit-manipulation helpers used by predictor index/tag hashing.
 */

#ifndef PCBP_COMMON_BIT_UTILS_HH
#define PCBP_COMMON_BIT_UTILS_HH

#include <cstdint>

#include "common/logging.hh"

namespace pcbp
{

/** Return a mask with the low @p n bits set (n in [0, 64]). */
constexpr std::uint64_t
maskBits(unsigned n)
{
    return n >= 64 ? ~std::uint64_t(0) : ((std::uint64_t(1) << n) - 1);
}

/** True iff @p v is a power of two (and non-zero). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Base-2 logarithm of a power of two. */
constexpr unsigned
log2Floor(std::uint64_t v)
{
    unsigned r = 0;
    while (v >>= 1)
        ++r;
    return r;
}

/**
 * Fold a wide value down to @p bits bits by XORing successive
 * @p bits -wide chunks. Used to hash long histories into table
 * indices without discarding any input bits.
 */
constexpr std::uint64_t
foldBits(std::uint64_t v, unsigned bits)
{
    if (bits == 0)
        return 0;
    if (bits >= 64)
        return v;
    std::uint64_t folded = 0;
    while (v != 0) {
        folded ^= v & maskBits(bits);
        v >>= bits;
    }
    return folded;
}

/** Reverse the bit order of a 64-bit value (bit 0 <-> bit 63). */
constexpr std::uint64_t
bitReverse64(std::uint64_t v)
{
    v = ((v >> 1) & 0x5555555555555555ULL) |
        ((v & 0x5555555555555555ULL) << 1);
    v = ((v >> 2) & 0x3333333333333333ULL) |
        ((v & 0x3333333333333333ULL) << 2);
    v = ((v >> 4) & 0x0f0f0f0f0f0f0f0fULL) |
        ((v & 0x0f0f0f0f0f0f0f0fULL) << 4);
    return __builtin_bswap64(v);
}

/**
 * foldBitsFixed's first shift, W / 2 (0 < bits < 64); each later step
 * halves it while it is at least bits.
 */
constexpr unsigned
foldFixedFirstShift(unsigned bits)
{
    // bits << (6 - floor(log2 bits)) is W.
    return bits << (__builtin_clz(bits) - 26);
}

/**
 * foldBits for values known to populate most of the 64-bit range
 * (e.g.\ mix64 output): identical result, in a number of steps set
 * by the width alone. Pad the width to W = bits * 2^k >= 64, so that
 * v is one W-bit chunk, then halve: v ^= v >> (W / 2) XORs the upper
 * half onto the lower, and every half-width is a multiple of bits,
 * so chunk boundaries line up at each step. Bits above the live
 * half are garbage the final mask drops. A width of 8 takes 3 steps
 * (shifts 32, 16, 8) where the chunk loop takes 8.
 */
constexpr std::uint64_t
foldBitsFixed(std::uint64_t v, unsigned bits)
{
    if (bits == 0)
        return 0;
    if (bits >= 64)
        return v;
    for (unsigned s = foldFixedFirstShift(bits); s >= bits; s >>= 1)
        v ^= v >> s;
    return v & maskBits(bits);
}

/**
 * Mix a 64-bit value (splitmix64 finalizer). Cheap, high-quality
 * avalanche used to decorrelate tag hashes from index hashes.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Seznec-style skewing function for gskew banks: one step of an
 * n-bit Galois LFSR (shift right, feed the LSB back into taps at
 * bits n-1 and n-2). Bijective over the low @p n bits; the three
 * bank indices of gskew combine skewH and skewHInv so that two
 * inputs colliding in one bank are spread apart in the others.
 */
constexpr std::uint64_t
skewH(std::uint64_t v, unsigned n)
{
    pcbp_assert(n >= 2 && n <= 63);
    const std::uint64_t mask = maskBits(n);
    v &= mask;
    const std::uint64_t fb = v & 1;
    std::uint64_t r = v >> 1;
    if (fb)
        r ^= (std::uint64_t(1) << (n - 1)) | (std::uint64_t(1) << (n - 2));
    return r & mask;
}

/** Inverse of skewH over the low @p n bits. */
constexpr std::uint64_t
skewHInv(std::uint64_t v, unsigned n)
{
    pcbp_assert(n >= 2 && n <= 63);
    const std::uint64_t mask = maskBits(n);
    v &= mask;
    // The shifted-out feedback bit is visible at bit n-1: v >> 1 has a
    // zero there, so after the conditional tap XOR it equals fb.
    const std::uint64_t fb = (v >> (n - 1)) & 1;
    std::uint64_t r = v;
    if (fb)
        r ^= (std::uint64_t(1) << (n - 1)) | (std::uint64_t(1) << (n - 2));
    return ((r << 1) | fb) & mask;
}

} // namespace pcbp

#endif // PCBP_COMMON_BIT_UTILS_HH
