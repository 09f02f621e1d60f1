/**
 * @file
 * Unit tests for the common substrate: bit utilities, saturating
 * counters, history registers, RNG, and statistics helpers.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/bit_utils.hh"
#include "common/cli_parse.hh"
#include "common/history_register.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"

namespace pcbp
{
namespace
{

// ------------------------------------------------------------ bit utils

TEST(BitUtils, MaskBits)
{
    EXPECT_EQ(maskBits(0), 0u);
    EXPECT_EQ(maskBits(1), 1u);
    EXPECT_EQ(maskBits(8), 0xffu);
    EXPECT_EQ(maskBits(64), ~std::uint64_t(0));
    EXPECT_EQ(maskBits(65), ~std::uint64_t(0));
}

TEST(BitUtils, IsPowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
    EXPECT_FALSE(isPowerOfTwo((1ull << 40) + 1));
}

TEST(BitUtils, Log2Floor)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(2), 1u);
    EXPECT_EQ(log2Floor(3), 1u);
    EXPECT_EQ(log2Floor(4096), 12u);
}

TEST(BitUtils, FoldBitsPreservesLowBitsForShortValues)
{
    EXPECT_EQ(foldBits(0x5, 8), 0x5u);
    EXPECT_EQ(foldBits(0x5, 64), 0x5u);
}

TEST(BitUtils, FoldBitsXorsChunks)
{
    // 0xAB in the high byte and 0xCD in the low byte fold to XOR.
    EXPECT_EQ(foldBits(0xABCD, 8), 0xABu ^ 0xCDu);
    EXPECT_EQ(foldBits(0xFFFF, 8), 0u);
}

TEST(BitUtils, FoldBitsZeroWidth)
{
    EXPECT_EQ(foldBits(0x1234, 0), 0u);
}

/** The fold by definition: XOR of every @p bits -wide chunk of v. */
std::uint64_t
chunkFold(std::uint64_t v, unsigned bits)
{
    if (bits == 0)
        return 0;
    if (bits >= 64)
        return v;
    std::uint64_t folded = 0;
    for (unsigned s = 0; s < 64; s += bits)
        folded ^= (v >> s) & maskBits(bits);
    return folded;
}

TEST(BitUtils, FoldBitsFixedMatchesChunkDefinition)
{
    // Every width, on full-width random values and on the same values
    // shifted down until only a few bits remain (a shift that is not
    // a multiple of the width puts chunk boundaries mid-value).
    Rng rng(0xf01d);
    for (unsigned bits = 0; bits <= 64; ++bits) {
        for (int iter = 0; iter < 300; ++iter) {
            const std::uint64_t v = rng.next();
            for (unsigned shift = 0; shift < 64; ++shift) {
                ASSERT_EQ(foldBitsFixed(v >> shift, bits),
                          chunkFold(v >> shift, bits))
                    << "v=" << (v >> shift) << " bits=" << bits;
            }
        }
        EXPECT_EQ(foldBitsFixed(0, bits), 0u);
        EXPECT_EQ(foldBitsFixed(~0ull, bits), chunkFold(~0ull, bits));
    }
}

TEST(BitUtils, FilterSetFoldEqualsTwoFolds)
{
    // TagFilter::keyOf folds (pc >> 2) ^ bor once; the filter of §4
    // XORs the two folds. Folding is linear over XOR, so they agree
    // at every set width, for any address and BOR slice.
    Rng rng(0x5e7);
    for (unsigned bits = 0; bits < 20; ++bits) {
        for (int iter = 0; iter < 2000; ++iter) {
            const std::uint64_t pc = rng.next() >> rng.nextBelow(64);
            const std::uint64_t bor = rng.next() & maskBits(1 + iter % 64);
            ASSERT_EQ(foldBits((pc >> 2) ^ bor, bits),
                      (foldBits(pc >> 2, bits) ^ foldBits(bor, bits)) &
                          maskBits(bits))
                << "pc=" << pc << " bor=" << bor << " bits=" << bits;
        }
    }
}

TEST(BitUtils, Mix64IsDeterministicAndSpreads)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
    // Avalanche sanity: flipping one input bit flips many output bits.
    const std::uint64_t d = mix64(42) ^ mix64(42 ^ 1);
    EXPECT_GT(__builtin_popcountll(d), 10);
}

TEST(BitUtils, SkewHIsBijectiveOverSmallDomains)
{
    for (unsigned n : {2u, 3u, 8u, 11u}) {
        std::set<std::uint64_t> seen;
        const std::uint64_t domain = std::uint64_t(1) << n;
        for (std::uint64_t v = 0; v < domain; ++v) {
            const std::uint64_t h = skewH(v, n);
            EXPECT_LT(h, domain);
            seen.insert(h);
        }
        EXPECT_EQ(seen.size(), domain) << "n=" << n;
    }
}

TEST(BitUtils, SkewHInvInvertsSkewH)
{
    for (unsigned n : {2u, 5u, 13u}) {
        const std::uint64_t domain = std::uint64_t(1) << n;
        for (std::uint64_t v = 0; v < domain; ++v) {
            EXPECT_EQ(skewHInv(skewH(v, n), n), v) << "n=" << n;
            EXPECT_EQ(skewH(skewHInv(v, n), n), v) << "n=" << n;
        }
    }
}

// ----------------------------------------------------------- SatCounter

TEST(SatCounter, TwoBitDefaultPredictsNotTakenAtZero)
{
    SatCounter c(2, 0);
    EXPECT_FALSE(c.taken());
    EXPECT_TRUE(c.saturated());
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2, 0);
    for (int i = 0; i < 10; ++i)
        c.update(true);
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.taken());
    EXPECT_TRUE(c.saturated());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2, 3);
    for (int i = 0; i < 10; ++i)
        c.update(false);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_FALSE(c.taken());
}

TEST(SatCounter, HysteresisNeedsTwoFlips)
{
    SatCounter c(2, 3); // strongly taken
    c.update(false);
    EXPECT_TRUE(c.taken()) << "one not-taken must not flip";
    c.update(false);
    EXPECT_FALSE(c.taken());
}

TEST(SatCounter, SetWeak)
{
    SatCounter c(2, 0);
    c.setWeak(true);
    EXPECT_TRUE(c.taken());
    EXPECT_FALSE(c.saturated());
    c.setWeak(false);
    EXPECT_FALSE(c.taken());
    EXPECT_FALSE(c.saturated());
}

TEST(SatCounter, ThreeBitMidpoint)
{
    SatCounter c(3, 4);
    EXPECT_TRUE(c.taken());
    c.set(3);
    EXPECT_FALSE(c.taken());
    EXPECT_EQ(c.maxValue(), 7u);
}

// ------------------------------------------------------ HistoryRegister

TEST(HistoryRegister, StartsClear)
{
    HistoryRegister h;
    for (unsigned i = 0; i < HistoryRegister::capacity; ++i)
        EXPECT_FALSE(h.bit(i));
}

TEST(HistoryRegister, ShiftInOrder)
{
    HistoryRegister h;
    h.shiftIn(true);
    h.shiftIn(false);
    h.shiftIn(true);
    // Youngest first: T N T
    EXPECT_TRUE(h.bit(0));
    EXPECT_FALSE(h.bit(1));
    EXPECT_TRUE(h.bit(2));
    EXPECT_EQ(h.low(3), 0b101u);
}

TEST(HistoryRegister, ShiftAcrossWordBoundary)
{
    HistoryRegister h;
    // Insert 70 bits: bit i (from the end) is i%3==0.
    for (int i = 69; i >= 0; --i)
        h.shiftIn(i % 3 == 0);
    for (unsigned i = 0; i < 70; ++i)
        EXPECT_EQ(h.bit(i), i % 3 == 0) << i;
}

TEST(HistoryRegister, WindowReadsMiddleBits)
{
    HistoryRegister h;
    for (int i = 15; i >= 0; --i)
        h.shiftIn(i < 8); // youngest 8 bits set, next 8 clear
    EXPECT_EQ(h.low(8), 0xffu);
    EXPECT_EQ(h.window(8, 8), 0x00u);
    EXPECT_EQ(h.window(4, 8), 0x0fu);
}

TEST(HistoryRegister, WindowAcrossWordBoundary)
{
    HistoryRegister h;
    for (int i = 0; i < 128; ++i)
        h.shiftIn(i % 2 == 0);
    // Bits alternate; any 2-bit window is 01 or 10.
    const std::uint64_t w = h.window(60, 8);
    EXPECT_TRUE(w == 0x55u || w == 0xaau) << std::hex << w;
}

TEST(HistoryRegister, CapacityDropsOldest)
{
    HistoryRegister h;
    h.shiftIn(true);
    for (unsigned i = 0; i < HistoryRegister::capacity - 1; ++i)
        h.shiftIn(false);
    EXPECT_TRUE(h.bit(HistoryRegister::capacity - 1));
    h.shiftIn(false);
    EXPECT_FALSE(h.bit(HistoryRegister::capacity - 1));
}

TEST(HistoryRegister, EqualityAndCopy)
{
    HistoryRegister a, b;
    for (int i = 0; i < 50; ++i) {
        a.shiftIn(i % 3 == 1);
        b.shiftIn(i % 3 == 1);
    }
    EXPECT_EQ(a, b);
    b.shiftIn(true);
    EXPECT_NE(a, b);
    HistoryRegister c = a;
    EXPECT_EQ(c, a);
}

TEST(HistoryRegister, ToStringYoungestLast)
{
    HistoryRegister h;
    h.shiftIn(true);
    h.shiftIn(false);
    EXPECT_EQ(h.toString(2), "TN"); // oldest first, youngest last
}

TEST(HistoryRegister, FoldedLowMatchesManualFold)
{
    HistoryRegister h;
    for (int i = 0; i < 30; ++i)
        h.shiftIn((i * 7 + 3) % 5 < 2);
    EXPECT_EQ(h.foldedLow(30, 12), foldBits(h.low(30), 12));
}

// ------------------------------------------------------------------ Rng

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool differs = false;
    for (int i = 0; i < 10; ++i)
        differs |= a.next() != b.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, NextBelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBelow(17), 17u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.nextRange(3, 5);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 5);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliRoughlyCalibrated)
{
    Rng r(11);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(double(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliExtremes)
{
    Rng r(12);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.nextBool(0.0));
        EXPECT_TRUE(r.nextBool(1.0));
    }
}

TEST(Rng, ForkDecorrelates)
{
    Rng a(5);
    Rng child = a.fork();
    // The child stream must not replay the parent stream.
    Rng a2(5);
    a2.fork();
    bool differs = false;
    for (int i = 0; i < 10; ++i)
        differs |= child.next() != a2.next();
    EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------- Stats

TEST(Histogram, CountAndBuckets)
{
    Histogram h(10, 10);
    h.sample(5);
    h.sample(15);
    h.sample(25);
    h.sample(29);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.bucketWidth(), 10u);
    ASSERT_EQ(h.buckets().size(), 11u); // ten plus the overflow bucket
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[2], 2u);
}

TEST(Histogram, OverflowBucket)
{
    Histogram h(10, 4);
    h.sample(1000);
    EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(TablePrinter, FormatsAligned)
{
    TablePrinter t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    const std::string s = t.str();
    EXPECT_NE(s.find("| name "), std::string::npos);
    EXPECT_NE(s.find("| longer |"), std::string::npos);
}

TEST(Format, FmtDoubleAndPercent)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtPercent(0.1234, 1), "12.3%");
}

// ------------------------------------------------------------ CLI parse

TEST(CliParse, CountAcceptsDigitsWithinTheTargetType)
{
    EXPECT_EQ(parseCountArg<unsigned>("--jobs", "0"), 0u);
    EXPECT_EQ(parseCountArg<unsigned>("--jobs", "4"), 4u);
    EXPECT_EQ(parseCountArg<unsigned>("--jobs", "4294967295"),
              4294967295u);
    EXPECT_EQ(parseCountArg<std::uint64_t>("--branches",
                                           "18446744073709551615"),
              ~std::uint64_t(0));
}

TEST(CliParse, CountRejectsSignsGarbageAndOverflowNamingTheFlag)
{
    // "-1" used to wrap to 4294967295 workers, "12x" to truncate to
    // 12, "" to read as 0; each now stops with the flag and value.
    for (const char *bad : {"-1", "", "12x", "x1", " 4", "+4"}) {
        SCOPED_TRACE(std::string("'") + bad + "'");
        EXPECT_EXIT(parseCountArg<unsigned>("--jobs", bad),
                    testing::ExitedWithCode(1),
                    "--jobs wants a non-negative integer");
    }
    EXPECT_EXIT(parseCountArg<unsigned>("--jobs", "4294967296"),
                testing::ExitedWithCode(1),
                "--jobs value '4294967296' is out of range");
    EXPECT_EXIT(parseCountArg<std::uint64_t>("--branches",
                                             "18446744073709551616"),
                testing::ExitedWithCode(1), "out of range");
}

TEST(CliParse, ThresholdIsFiniteAndNonNegative)
{
    EXPECT_EQ(parseNonNegativeArg("--threshold", "0.25"), 0.25);
    EXPECT_EQ(parseNonNegativeArg("--threshold", "0"), 0.0);
    EXPECT_EQ(parseNonNegativeArg("--threshold", ".5"), 0.5);
    for (const char *bad : {"abc", "", "-0.1", "0.2x", "inf", "nan",
                            "1e999"}) {
        SCOPED_TRACE(std::string("'") + bad + "'");
        EXPECT_EXIT(parseNonNegativeArg("--threshold", bad),
                    testing::ExitedWithCode(1),
                    "--threshold wants a finite non-negative number");
    }
}

} // namespace
} // namespace pcbp
