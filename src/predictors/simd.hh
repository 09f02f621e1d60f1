/**
 * @file
 * Runtime-dispatched SIMD kernels: the bipolar dot products and
 * weight updates at the heart of the perceptron family, and TAGE's
 * folded-history step and hash.
 *
 * The repository builds without -march flags so one binary runs on
 * any x86-64 host; the vector paths are compiled per-function with
 * target attributes and selected once at startup from CPUID (an
 * AVX-512BW path, an AVX2 path, and the scalar reference). All three
 * paths perform the same integer arithmetic — int8 weights widened
 * to int16/int32 before any addition — so their results are
 * bit-identical to the scalar reference on every input; the
 * differential and property tests pin exactly that (DESIGN.md §12).
 *
 * Kernel semantics (n <= 128; `bits` bit i = direction of the i-th
 * input, 1 = taken):
 *
 *   dotBipolar:   sum over i < n of (bits[i] ? w[i] : -w[i])
 *   trainBipolar: w[i] += (bits[i] == taken) ? +1 : -1, saturated to
 *                 the symmetric range [-127, 127] (the classic
 *                 perceptron clamp; never reaches -128)
 *
 * The weight span may be read up to a 64-byte granularity: callers
 * pad each weight row to a multiple of 64 bytes (the SoA layout of
 * Perceptron), which keeps every vector access in-bounds without
 * per-call masked tails.
 *
 * The TAGE kernels step and combine TAGE's folded history registers
 * held as 16-bit lanes (TageLanes); each tier does the same
 * lane-wise integer operations as the scalar reference, so its
 * folds and (index, tag) coordinates are the scalar ones.
 *
 * `PCBP_SIMD` (env: "scalar", "avx2", "avx512") caps the dispatch
 * level below what CPUID reports — the equivalence tests use it to
 * exercise every path on one machine. It is read once, at first use.
 */

#ifndef PCBP_PREDICTORS_SIMD_HH
#define PCBP_PREDICTORS_SIMD_HH

#include <cstdint>

namespace pcbp
{

struct TableCoord;

namespace simd
{

/** Signature of the bipolar dot-product kernel. */
using DotFn = int (*)(const std::int8_t *w, unsigned n,
                      std::uint64_t bits_lo, std::uint64_t bits_hi);

/** Signature of the bipolar train kernel. */
using TrainFn = void (*)(std::int8_t *w, unsigned n,
                         std::uint64_t bits_lo, std::uint64_t bits_hi,
                         bool taken);

/** Scalar reference implementations (always available; the property
 *  tests compare the dispatched kernels against these). */
int dotBipolarScalar(const std::int8_t *w, unsigned n,
                     std::uint64_t bits_lo, std::uint64_t bits_hi);
void trainBipolarScalar(std::int8_t *w, unsigned n,
                        std::uint64_t bits_lo, std::uint64_t bits_hi,
                        bool taken);

/** The dispatched kernels (resolved once from CPUID + PCBP_SIMD). */
DotFn dotKernel();
TrainFn trainKernel();

/** Active dispatch level: "avx512", "avx2", or "scalar". */
const char *levelName();

/** Bipolar dot product via the dispatched kernel. */
inline int
dotBipolar(const std::int8_t *w, unsigned n, std::uint64_t bits_lo,
           std::uint64_t bits_hi)
{
    return dotKernel()(w, n, bits_lo, bits_hi);
}

/** Bipolar weight update via the dispatched kernel. */
inline void
trainBipolar(std::int8_t *w, unsigned n, std::uint64_t bits_lo,
             std::uint64_t bits_hi, bool taken)
{
    trainKernel()(w, n, bits_lo, bits_hi, taken);
}

/**
 * TAGE's folded history registers as 32 16-bit lanes (DESIGN.md §6):
 * tagged bank b's fold to the index width sits in lane b, to the tag
 * width in lane 8 + b and to the tag width - 1 in lane 24 + b. Lanes
 * 16-23 and the lanes of absent banks have mask 0 and stay 0. The
 * arrays after `fold` are per-lane constants of the geometry.
 *
 * A shift makes the new history (last << 1) | in. Under a one-bit
 * left rotate within its width every kept bit lands where the fold
 * puts it, except two: the bit that leaves the window (bit L - 1 of
 * the last history, L the bank's length), and in a bank longer than
 * 64 old bit 63, which becomes bit 64 and so restarts at position 0
 * (HistoryRegister::foldedLow folds bits 64 and up as a sequence of
 * their own). The step XORs both back to where they belong.
 */
struct TageLanes
{
    static constexpr unsigned count = 32;
    static constexpr unsigned maxBanks = 8;

    /** The folded registers. */
    alignas(64) std::uint16_t fold[count] = {};
    /** Low `width` bits. */
    alignas(64) std::uint16_t mask[count] = {};
    /** 2^(17 - width): (fold * wrapMul) >> 16 is the bit a rotate
     *  wraps, fold >> (width - 1). */
    alignas(64) std::uint16_t wrapMul[count] = {};
    /** The byte of the 16-byte history (bit i of byte j = history
     *  bit 8j + i) holding the bit that leaves the window: a byte
     *  shuffle's control for the lane's low byte. */
    alignas(64) std::uint16_t outByte[count] = {};
    /** The leaving bit within that byte (0: no bank). */
    alignas(64) std::uint16_t outTest[count] = {};
    /** Where the rotate puts the leaving bit: XOR it out there. */
    alignas(64) std::uint16_t outBit[count] = {};
    /** Banks longer than 64: old bit 63 becomes bit 64, which folds
     *  at position 0, not where the rotate puts it (both set). */
    alignas(64) std::uint16_t crossBits[count] = {};
    /** Index lanes: the bank's folded salt; tag lanes 0. */
    alignas(32) std::uint16_t salt[count / 2] = {};

    /** Widths 2 and 3 take the most foldBitsFixed steps. */
    static constexpr unsigned pcSteps = 5;
    /**
     * The PC's folds, to the index width (qword 0) and the tag width
     * (qword 1): step k is v ^= v >> pcShift[2k + qword], foldBitsFixed's
     * shifts, then the mask. A step past a width's last shifts by 64,
     * which a vector shift turns into 0, so it changes nothing.
     */
    alignas(16) std::uint64_t pcShift[2 * pcSteps] = {};
    alignas(16) std::uint64_t pcMask[2] = {};
};

/** Signature of the TAGE fold step: one history shift of every lane;
 *  @p last0 / @p last1 are the history words before it, @p in the
 *  bit it shifts in (0 or 1). */
using TageStepFn = void (*)(TageLanes &lanes, std::uint64_t last0,
                            std::uint64_t last1, std::uint64_t in);

/** Signature of the TAGE hash: every bank's (index, tag) into
 *  @p out[0, TageLanes::maxBanks), from the folds and @p pc_mix, the
 *  mixed PC (mix64(pc >> 2)). */
using TageHashFn = void (*)(const TageLanes &lanes, std::uint64_t pc_mix,
                            TableCoord *out);

/** The dispatched TAGE kernels. */
TageStepFn tageStepKernel();
TageHashFn tageHashKernel();

} // namespace simd
} // namespace pcbp

#endif // PCBP_PREDICTORS_SIMD_HH
