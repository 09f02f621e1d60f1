/**
 * @file
 * Property/fuzz tests for the SoA + SIMD prediction layer.
 *
 * The equivalence argument for SoA tables and SIMD kernels
 * (DESIGN.md §12) rests on these claims, each pinned here by
 * randomized differential testing against a scalar reference:
 *
 * - the dispatched SIMD kernels (dot product, train) are
 *   bit-identical to the scalar reference on every input, pad lanes
 *   included — integer-only arithmetic makes the reduction
 *   order-independent;
 * - clone() deep-copies SoA predictor state, so a fork never
 *   aliases the table it was copied from;
 * - the SoA containers (SatCounterTable) and hot-path bit helpers
 *   (foldBitsFixed, bitReverse64) match their element-wise
 *   references.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/bit_utils.hh"
#include "common/sat_counter.hh"
#include "predictors/factory.hh"
#include "predictors/simd.hh"

namespace pcbp
{
namespace
{

// ------------------------------------------------- kernel equivalence

/** Hist widths crossing every vector-width boundary (64B = 64 lanes,
 *  32B = 32 lanes, plus odd tails and the two-word split at 64). */
const unsigned kWidths[] = {1, 7, 16, 31, 32, 59, 64, 65, 100, 128};

std::size_t
paddedStride(unsigned n)
{
    return (std::size_t(n) + 63) / 64 * 64;
}

/**
 * The dispatched dot kernel must equal the scalar reference on random
 * weights/bits at every history width. The fuzz respects the two
 * caller contracts from simd.hh — pad lanes are zero (the vector
 * paths read full 64-lane blocks unmasked and count on zero pads
 * contributing zero; the train kernel, tested below, is what keeps
 * them zero), and weights stay in the train clamp's [-127, 127]
 * (-128 never occurs in real rows, and the vector negation would
 * wrap on it) — while the `bits` positions past n are random
 * garbage, which must not matter.
 */
TEST(SimdKernels, DotMatchesScalarAtEveryWidth)
{
    std::mt19937_64 rng(12345);
    const simd::DotFn dot = simd::dotKernel();
    for (const unsigned n : kWidths) {
        SCOPED_TRACE(std::string("width ") + std::to_string(n) +
                     " level " + simd::levelName());
        std::vector<std::int8_t> w(paddedStride(n), 0);
        for (int iter = 0; iter < 200; ++iter) {
            for (unsigned i = 0; i < n; ++i)
                w[i] = static_cast<std::int8_t>(int(rng() % 255) - 127);
            const std::uint64_t lo = rng(), hi = rng();
            ASSERT_EQ(dot(w.data(), n, lo, hi),
                      simd::dotBipolarScalar(w.data(), n, lo, hi));
        }
    }
}

/**
 * The dispatched train kernel must leave every weight row — pad
 * bytes included — byte-identical to the scalar reference, across
 * long schedules that drive weights into the ±127 saturation clamp.
 */
TEST(SimdKernels, TrainMatchesScalarIncludingSaturation)
{
    std::mt19937_64 rng(99);
    const simd::TrainFn train = simd::trainKernel();
    for (const unsigned n : kWidths) {
        SCOPED_TRACE(std::string("width ") + std::to_string(n) +
                     " level " + simd::levelName());
        std::vector<std::int8_t> a(paddedStride(n), 0);
        std::vector<std::int8_t> b(paddedStride(n), 0);

        // Random phase: mixed directions explore the interior.
        for (int iter = 0; iter < 300; ++iter) {
            const std::uint64_t lo = rng(), hi = rng();
            const bool taken = rng() & 1;
            train(a.data(), n, lo, hi, taken);
            simd::trainBipolarScalar(b.data(), n, lo, hi, taken);
            ASSERT_EQ(a, b) << "after mixed step " << iter;
        }

        // Saturation phase: a constant pattern pushes every touched
        // weight to a clamp boundary (+127 or -127) and holds it
        // there — the adds_epi8/max_epi8 clamp must match the scalar
        // one exactly, including never reaching -128.
        const std::uint64_t lo = rng(), hi = rng();
        for (int iter = 0; iter < 300; ++iter) {
            train(a.data(), n, lo, hi, true);
            simd::trainBipolarScalar(b.data(), n, lo, hi, true);
        }
        ASSERT_EQ(a, b) << "after saturating taken";
        for (int iter = 0; iter < 600; ++iter) {
            train(a.data(), n, lo, hi, false);
            simd::trainBipolarScalar(b.data(), n, lo, hi, false);
        }
        ASSERT_EQ(a, b) << "after saturating not-taken";
    }
}

// --------------------------------------------- SoA container + bits

HistoryRegister
randomHistory(std::mt19937_64 &rng)
{
    HistoryRegister h;
    const unsigned len = 1 + unsigned(rng() % 128);
    for (unsigned i = 0; i < len; ++i)
        h.shiftIn(rng() & 1);
    return h;
}

/**
 * Clones taken mid-schedule stay equivalent: the SoA layouts must
 * deep-copy (no aliasing), since clone() is the seam fork-based
 * sweeps snapshot predictors with (DESIGN.md §11).
 */
TEST(SoAContainers, CloneOfSoAStateIsIndependent)
{
    std::mt19937_64 rng(31);
    for (const ProphetKind kind : allProphetKinds()) {
        SCOPED_TRACE(prophetKindName(kind));
        const DirectionPredictorPtr a = makeProphet(kind, Budget::B2KB);
        for (int i = 0; i < 500; ++i)
            a->update((rng() % 1024) * 4, randomHistory(rng), rng() & 1);

        const DirectionPredictorPtr b = a->clone();

        // Diverge the original; the clone must not move.
        const Addr pc = 4 * (rng() % 1024);
        const HistoryRegister h = randomHistory(rng);
        const bool before = b->predict(pc, h);
        for (int i = 0; i < 2000; ++i)
            a->update(pc, h, !before);
        ASSERT_EQ(b->predict(pc, h), before)
            << "clone aliased trained state";
    }
}

/** SatCounterTable vs vector<SatCounter> under a random op stream. */
TEST(SoAContainers, SatCounterTableMatchesElementWise)
{
    std::mt19937_64 rng(5150);
    for (const unsigned bits : {1u, 2u, 3u, 5u, 8u}) {
        SCOPED_TRACE(std::to_string(bits) + "-bit counters");
        const unsigned init = (1u << bits) / 2;
        const std::size_t n = 257;
        SatCounterTable table(n, bits, init);
        std::vector<SatCounter> ref(n, SatCounter(bits, init));

        for (int iter = 0; iter < 5000; ++iter) {
            const std::size_t i = rng() % n;
            switch (rng() % 4) {
              case 0:
                table.update(i, true);
                ref[i].update(true);
                break;
              case 1:
                table.update(i, false);
                ref[i].update(false);
                break;
              case 2: {
                const bool dir = rng() & 1;
                table.setWeak(i, dir);
                ref[i].setWeak(dir);
                break;
              }
              default: {
                const unsigned v = rng() % (table.maxValue() + 1);
                table.set(i, v);
                ref[i].set(v);
                break;
              }
            }
            ASSERT_EQ(table.value(i), ref[i].value());
            ASSERT_EQ(table.taken(i), ref[i].taken());
            ASSERT_EQ(table.saturated(i), ref[i].saturated());
        }
    }
}

/** foldBitsFixed is foldBits for every (value, width). */
TEST(BitUtils, FoldBitsFixedMatchesFoldBits)
{
    std::mt19937_64 rng(2026);
    for (unsigned bits = 1; bits <= 64; ++bits) {
        for (int iter = 0; iter < 200; ++iter) {
            const std::uint64_t v = rng();
            ASSERT_EQ(foldBitsFixed(v, bits), foldBits(v, bits))
                << "v=" << v << " bits=" << bits;
        }
        ASSERT_EQ(foldBitsFixed(0, bits), foldBits(0, bits));
        ASSERT_EQ(foldBitsFixed(~0ull, bits), foldBits(~0ull, bits));
    }
}

/** bitReverse64: involution, and single-bit mapping i -> 63-i. */
TEST(BitUtils, BitReverse64Properties)
{
    std::mt19937_64 rng(4242);
    for (int iter = 0; iter < 1000; ++iter) {
        const std::uint64_t v = rng();
        ASSERT_EQ(bitReverse64(bitReverse64(v)), v);
    }
    for (unsigned i = 0; i < 64; ++i)
        ASSERT_EQ(bitReverse64(std::uint64_t(1) << i),
                  std::uint64_t(1) << (63 - i));
}

} // namespace
} // namespace pcbp
