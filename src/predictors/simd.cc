#include "predictors/simd.hh"

#include <immintrin.h>

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "predictors/predictor.hh"

namespace pcbp
{
namespace simd
{

// The vector TAGE hash kernels store each (index, tag) pair as two
// 32-bit lanes of one 8-byte TableCoord.
static_assert(sizeof(TableCoord) == 8 && offsetof(TableCoord, idx) == 0 &&
                  offsetof(TableCoord, tag) == 4 &&
                  std::is_trivially_copyable<TableCoord>::value,
              "TableCoord must be two packed 32-bit words");

namespace
{

/** Bits [64b, 64b+64) of the (lo, hi) pair, for block b in {0, 1}. */
inline std::uint64_t
blockBits(std::uint64_t lo, std::uint64_t hi, unsigned b)
{
    return b == 0 ? lo : hi;
}

} // namespace

int
dotBipolarScalar(const std::int8_t *w, unsigned n, std::uint64_t bits_lo,
                 std::uint64_t bits_hi)
{
    int sum = 0;
    for (unsigned i = 0; i < n; ++i) {
        const bool bit =
            ((i < 64 ? bits_lo >> i : bits_hi >> (i - 64)) & 1) != 0;
        const int wv = w[i];
        sum += bit ? wv : -wv;
    }
    return sum;
}

void
trainBipolarScalar(std::int8_t *w, unsigned n, std::uint64_t bits_lo,
                   std::uint64_t bits_hi, bool taken)
{
    for (unsigned i = 0; i < n; ++i) {
        const bool bit =
            ((i < 64 ? bits_lo >> i : bits_hi >> (i - 64)) & 1) != 0;
        std::int8_t &weight = w[i];
        if (bit == taken) {
            if (weight < 127)
                ++weight;
        } else {
            if (weight > -127)
                --weight;
        }
    }
}

namespace
{

void
tageStepScalar(TageLanes &l, std::uint64_t last0, std::uint64_t last1,
               std::uint64_t in)
{
    // Bank by bank (a bank's three lanes drop the same history bit);
    // the banks fill the lanes from 0, and a lane without a fold holds
    // 0 and keeps it.
    const unsigned cross = last0 >> 63 ? 0xffff : 0;
    for (unsigned b = 0; b < TageLanes::maxBanks && l.mask[b] != 0; ++b) {
        const std::uint64_t word = l.outByte[b] < 8 ? last0 : last1;
        const bool out = (word >> (8 * (l.outByte[b] % 8))) & l.outTest[b];
        for (const unsigned i : {b, 8 + b, 24 + b}) {
            const unsigned v = l.fold[i];
            const unsigned r = (v << 1) | ((v * l.wrapMul[i]) >> 16);
            l.fold[i] = static_cast<std::uint16_t>(
                (r ^ in ^ (out ? l.outBit[i] : 0) ^ (cross & l.crossBits[i])) &
                l.mask[i]);
        }
    }
}

void
tageHashScalar(const TageLanes &l, std::uint64_t pc_mix, TableCoord *out)
{
    std::uint64_t pc[2];
    for (unsigned j = 0; j < 2; ++j) {
        std::uint64_t v = pc_mix;
        for (unsigned k = 0; k < TageLanes::pcSteps; ++k) {
            const std::uint64_t s = l.pcShift[2 * k + j];
            v ^= s < 64 ? v >> s : 0;
        }
        pc[j] = v & l.pcMask[j];
    }
    for (unsigned b = 0; b < TageLanes::maxBanks; ++b) {
        out[b].idx = static_cast<std::uint16_t>(l.fold[b] ^ l.salt[b] ^ pc[0]);
        // Two different-width folds of the same history decorrelate
        // the tag from the index (Seznec's CSR1/CSR2 pair).
        out[b].tag = static_cast<std::uint16_t>(
            l.fold[8 + b] ^ (l.fold[24 + b] << 1) ^ pc[1]);
    }
}

} // namespace

// ---------------------------------------------------------------------
// AVX2 path. 32 int8 lanes per step; the history bits are expanded to
// byte masks with the classic shuffle+testbit idiom. All sums are
// widened to int16 then int32 before accumulation, so the arithmetic
// is exact (integers, order-independent) — bit-identical to scalar.
// ---------------------------------------------------------------------

namespace
{

__attribute__((target("avx2"))) inline __m256i
expandBits32(std::uint32_t bits)
{
    // Byte i of the result is 0xFF iff bit i of `bits` is set.
    const __m256i v = _mm256_set1_epi32(static_cast<int>(bits));
    const __m256i shuf = _mm256_setr_epi8(
        0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2,
        2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
    const __m256i rep = _mm256_shuffle_epi8(v, shuf);
    const __m256i sel = _mm256_setr_epi8(
        1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128, 1,
        2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128);
    return _mm256_cmpeq_epi8(_mm256_and_si256(rep, sel), sel);
}

__attribute__((target("avx2"))) int
dotBipolarAvx2(const std::int8_t *w, unsigned n, std::uint64_t bits_lo,
               std::uint64_t bits_hi)
{
    const __m256i zero = _mm256_setzero_si256();
    __m256i acc = zero;
    const unsigned blocks = (n + 63) / 64;
    for (unsigned b = 0; b < blocks; ++b) {
        const std::uint64_t bits = blockBits(bits_lo, bits_hi, b);
        for (unsigned half = 0; half < 2; ++half) {
            const __m256i wv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(w + b * 64 +
                                                  half * 32));
            const __m256i m = expandBits32(
                static_cast<std::uint32_t>(bits >> (half * 32)));
            // bit set -> +w, clear -> -w. Pad lanes hold weight 0, so
            // they contribute nothing either way.
            const __m256i sel = _mm256_blendv_epi8(
                _mm256_sub_epi8(zero, wv), wv, m);
            const __m256i lo16 =
                _mm256_cvtepi8_epi16(_mm256_castsi256_si128(sel));
            const __m256i hi16 = _mm256_cvtepi8_epi16(
                _mm256_extracti128_si256(sel, 1));
            const __m256i s16 = _mm256_add_epi16(lo16, hi16);
            acc = _mm256_add_epi32(
                acc, _mm256_madd_epi16(s16, _mm256_set1_epi16(1)));
        }
    }
    const __m128i lo = _mm256_castsi256_si128(acc);
    const __m128i hi = _mm256_extracti128_si256(acc, 1);
    __m128i s = _mm_add_epi32(lo, hi);
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
    return _mm_cvtsi128_si32(s);
}

__attribute__((target("avx2"))) void
trainBipolarAvx2(std::int8_t *w, unsigned n, std::uint64_t bits_lo,
                 std::uint64_t bits_hi, bool taken)
{
    const __m256i plus1 = _mm256_set1_epi8(1);
    const __m256i minus1 = _mm256_set1_epi8(-1);
    const __m256i floor_ = _mm256_set1_epi8(-127);
    const unsigned blocks = (n + 63) / 64;
    for (unsigned b = 0; b < blocks; ++b) {
        const std::uint64_t bits = blockBits(bits_lo, bits_hi, b);
        const unsigned base = b * 64;
        const std::uint64_t valid =
            n - base >= 64
                ? ~std::uint64_t(0)
                : ((std::uint64_t(1) << (n - base)) - 1);
        for (unsigned half = 0; half < 2; ++half) {
            __m256i wv = _mm256_loadu_si256(
                reinterpret_cast<__m256i *>(w + base + half * 32));
            const __m256i m = expandBits32(
                static_cast<std::uint32_t>(bits >> (half * 32)));
            // agree lanes (bit == taken) move +1, the rest -1.
            const __m256i agree =
                taken ? m
                      : _mm256_xor_si256(m, _mm256_set1_epi8(-1));
            __m256i delta = _mm256_blendv_epi8(minus1, plus1, agree);
            // Zero the delta on pad lanes so a full-width store
            // leaves the padding untouched (weights there stay 0).
            const __m256i vm = expandBits32(
                static_cast<std::uint32_t>(valid >> (half * 32)));
            delta = _mm256_and_si256(delta, vm);
            // Saturating add clamps 127+1 at 127; the max() pulls the
            // -128 saturation back up to the scalar clamp of -127.
            wv = _mm256_max_epi8(_mm256_adds_epi8(wv, delta), floor_);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(w + base + half * 32), wv);
        }
    }
}

// ---------------------------------------------------------------------
// AVX-512BW path: 64 int8 lanes per step, the 64 history bits ARE the
// lane mask, no byte expansion needed.
// ---------------------------------------------------------------------

__attribute__((target("avx512f,avx512bw"))) int
dotBipolarAvx512(const std::int8_t *w, unsigned n, std::uint64_t bits_lo,
                 std::uint64_t bits_hi)
{
    const __m512i zero = _mm512_setzero_si512();
    __m512i acc = zero;
    const unsigned blocks = (n + 63) / 64;
    for (unsigned b = 0; b < blocks; ++b) {
        const __mmask64 m =
            static_cast<__mmask64>(blockBits(bits_lo, bits_hi, b));
        const __m512i wv = _mm512_loadu_si512(w + b * 64);
        const __m512i sel =
            _mm512_mask_blend_epi8(m, _mm512_sub_epi8(zero, wv), wv);
        // Sign-extend the bytes to 16 bits: unpacking sel with itself
        // doubles each byte in a 16-bit lane, and the arithmetic shift
        // keeps one copy. (Unlike the cast/extract/reduce helpers,
        // these GCC 12 bodies read no undefined vector, so no
        // -Wuninitialized.) A sum does not see the lane order.
        const __m512i lo16 =
            _mm512_srai_epi16(_mm512_unpacklo_epi8(sel, sel), 8);
        const __m512i hi16 =
            _mm512_srai_epi16(_mm512_unpackhi_epi8(sel, sel), 8);
        const __m512i s16 = _mm512_add_epi16(lo16, hi16);
        acc = _mm512_add_epi32(
            acc, _mm512_madd_epi16(s16, _mm512_set1_epi16(1)));
    }
    // Horizontal sum: fold the 256-bit halves, then the 128-bit
    // quarters, then the 64- and 32-bit halves of each quarter.
    acc = _mm512_add_epi32(
        acc, _mm512_maskz_shuffle_i64x2(0xff, acc, acc, 0x4e));
    acc = _mm512_add_epi32(
        acc, _mm512_maskz_shuffle_i64x2(0xff, acc, acc, 0xb1));
    acc = _mm512_add_epi32(
        acc, _mm512_maskz_shuffle_epi32(0xffff, acc, _MM_PERM_BADC));
    acc = _mm512_add_epi32(
        acc, _mm512_maskz_shuffle_epi32(0xffff, acc, _MM_PERM_CDAB));
    return _mm512_cvtsi512_si32(acc);
}

__attribute__((target("avx512f,avx512bw"))) void
trainBipolarAvx512(std::int8_t *w, unsigned n, std::uint64_t bits_lo,
                   std::uint64_t bits_hi, bool taken)
{
    const __m512i plus1 = _mm512_set1_epi8(1);
    const __m512i minus1 = _mm512_set1_epi8(-1);
    const __m512i floor_ = _mm512_set1_epi8(-127);
    const unsigned blocks = (n + 63) / 64;
    for (unsigned b = 0; b < blocks; ++b) {
        const std::uint64_t bits = blockBits(bits_lo, bits_hi, b);
        const unsigned base = b * 64;
        const std::uint64_t valid =
            n - base >= 64
                ? ~std::uint64_t(0)
                : ((std::uint64_t(1) << (n - base)) - 1);
        // agree lanes (bit == taken) move +1, the rest -1; pad lanes
        // get delta 0 via the zero-masked move so the full-width
        // store leaves the padding weights at 0.
        const __mmask64 agree = static_cast<__mmask64>(
            taken ? bits : ~bits);
        __m512i delta = _mm512_mask_blend_epi8(agree, minus1, plus1);
        delta = _mm512_maskz_mov_epi8(static_cast<__mmask64>(valid),
                                      delta);
        __m512i wv = _mm512_loadu_si512(w + base);
        wv = _mm512_max_epi8(_mm512_adds_epi8(wv, delta), floor_);
        _mm512_storeu_si512(w + base, wv);
    }
}

// ---------------------------------------------------------------------
// TAGE lanes. The step rotates every fold left by one within its width
// (a shift plus the wrapped bit from an unsigned high multiply), XORs
// in the new bit, the leaving bit (a byte shuffle fetches each lane's
// history byte) and the bit-63 crossing, then masks to the width. The
// hash folds the mixed PC to both widths in two 64-bit lanes, XORs it
// and the salts in and interleaves (index, tag) pairs into
// TableCoords. AVX2 takes the 32 lanes in two halves; an AVX-512 host
// runs these kernels too, since a one-register AVX-512BW step and hash
// measured no faster end to end
// (bench/results/PAIR_tagekernels_engine_long_seed1.md).
// ---------------------------------------------------------------------

template <typename T>
inline const __m128i *
xmm(const T *p)
{
    return reinterpret_cast<const __m128i *>(p);
}

template <typename T>
inline const __m256i *
ymm(const T *p)
{
    return reinterpret_cast<const __m256i *>(p);
}

__attribute__((target("avx2"))) void
tageStepAvx2(TageLanes &l, std::uint64_t last0, std::uint64_t last1,
             std::uint64_t in)
{
    const __m256i hist = _mm256_broadcastsi128_si256(
        _mm_set_epi64x(static_cast<long long>(last1),
                       static_cast<long long>(last0)));
    const __m256i bit_in = _mm256_set1_epi16(static_cast<short>(in));
    const __m256i cross = _mm256_set1_epi16(last0 >> 63 ? -1 : 0);
    for (unsigned o = 0; o < TageLanes::count; o += 16) {
        const __m256i v = _mm256_load_si256(ymm(l.fold + o));
        __m256i r = _mm256_or_si256(
            _mm256_slli_epi16(v, 1),
            _mm256_mulhi_epu16(v, _mm256_load_si256(ymm(l.wrapMul + o))));
        const __m256i test = _mm256_load_si256(ymm(l.outTest + o));
        const __m256i out = _mm256_cmpeq_epi16(
            _mm256_and_si256(
                _mm256_shuffle_epi8(
                    hist, _mm256_load_si256(ymm(l.outByte + o))),
                test),
            test);
        r = _mm256_xor_si256(
            r, _mm256_and_si256(out, _mm256_load_si256(ymm(l.outBit + o))));
        r = _mm256_xor_si256(r, bit_in);
        r = _mm256_xor_si256(
            r, _mm256_and_si256(cross,
                                _mm256_load_si256(ymm(l.crossBits + o))));
        _mm256_store_si256(
            reinterpret_cast<__m256i *>(l.fold + o),
            _mm256_and_si256(r, _mm256_load_si256(ymm(l.mask + o))));
    }
}

__attribute__((target("avx2"))) void
tageHashAvx2(const TageLanes &l, std::uint64_t pc_mix, TableCoord *out)
{
    // The PC folded to the index width (qword 0) and the tag width
    // (qword 1), then spread over the index and the tag lanes.
    __m128i v = _mm_set1_epi64x(static_cast<long long>(pc_mix));
    for (unsigned k = 0; k < TageLanes::pcSteps; ++k) {
        v = _mm_xor_si128(
            v, _mm_srlv_epi64(v, _mm_load_si128(xmm(l.pcShift + 2 * k))));
    }
    v = _mm_and_si128(v, _mm_load_si128(xmm(l.pcMask)));
    const __m256i pc = _mm256_shuffle_epi8(
        _mm256_broadcastsi128_si256(v),
        _mm256_setr_epi8(0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 8,
                         9, 8, 9, 8, 9, 8, 9, 8, 9, 8, 9, 8, 9, 8, 9));
    // Lanes 0-15: the index of every bank, then its tag.
    const __m256i h = _mm256_xor_si256(
        _mm256_xor_si256(_mm256_load_si256(ymm(l.fold)),
                         _mm256_slli_epi16(
                             _mm256_load_si256(ymm(l.fold + 16)), 1)),
        _mm256_xor_si256(pc, _mm256_load_si256(ymm(l.salt))));
    const __m128i idx = _mm256_castsi256_si128(h);
    const __m128i tag = _mm256_extracti128_si256(h, 1);
    __m256i *o = reinterpret_cast<__m256i *>(out);
    _mm256_storeu_si256(o, _mm256_cvtepu16_epi32(_mm_unpacklo_epi16(idx, tag)));
    _mm256_storeu_si256(o + 1,
                        _mm256_cvtepu16_epi32(_mm_unpackhi_epi16(idx, tag)));
}

enum class Level
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

Level
resolveLevel()
{
    Level cpu = Level::Scalar;
    if (__builtin_cpu_supports("avx2"))
        cpu = Level::Avx2;
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw")) {
        cpu = Level::Avx512;
    }
    // PCBP_SIMD caps (never raises) the level: forcing a path the CPU
    // lacks would fault.
    if (const char *env = std::getenv("PCBP_SIMD")) {
        Level cap = cpu;
        if (std::strcmp(env, "scalar") == 0)
            cap = Level::Scalar;
        else if (std::strcmp(env, "avx2") == 0)
            cap = Level::Avx2;
        else if (std::strcmp(env, "avx512") == 0)
            cap = Level::Avx512;
        if (static_cast<int>(cap) < static_cast<int>(cpu))
            cpu = cap;
    }
    return cpu;
}

Level
activeLevel()
{
    static const Level level = resolveLevel();
    return level;
}

} // namespace

DotFn
dotKernel()
{
    static const DotFn fn = [] {
        switch (activeLevel()) {
          case Level::Avx512:
            return &dotBipolarAvx512;
          case Level::Avx2:
            return &dotBipolarAvx2;
          default:
            return &dotBipolarScalar;
        }
    }();
    return fn;
}

TrainFn
trainKernel()
{
    static const TrainFn fn = [] {
        switch (activeLevel()) {
          case Level::Avx512:
            return &trainBipolarAvx512;
          case Level::Avx2:
            return &trainBipolarAvx2;
          default:
            return &trainBipolarScalar;
        }
    }();
    return fn;
}

TageStepFn
tageStepKernel()
{
    static const TageStepFn fn = [] {
        switch (activeLevel()) {
          case Level::Avx512:
          case Level::Avx2:
            return &tageStepAvx2;
          default:
            return &tageStepScalar;
        }
    }();
    return fn;
}

TageHashFn
tageHashKernel()
{
    static const TageHashFn fn = [] {
        switch (activeLevel()) {
          case Level::Avx512:
          case Level::Avx2:
            return &tageHashAvx2;
          default:
            return &tageHashScalar;
        }
    }();
    return fn;
}

const char *
levelName()
{
    switch (activeLevel()) {
      case Level::Avx512:
        return "avx512";
      case Level::Avx2:
        return "avx2";
      default:
        return "scalar";
    }
}

} // namespace simd
} // namespace pcbp
