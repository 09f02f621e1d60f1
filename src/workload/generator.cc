#include "workload/generator.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pcbp
{

namespace
{

constexpr Addr baseAddr = 0x400000;
constexpr Addr blockStride = 16;

// The program shape no workload varies (DESIGN.md §3); a recipe sets
// only what differs between workloads.

/** Pattern filler: length range and per-outcome noise. */
constexpr unsigned patLenLo = 2, patLenHi = 4;
constexpr double patNoise = 0.01;
/** Local-parity filler: width range and noise. */
constexpr unsigned lparWidthLo = 2, lparWidthHi = 3;
constexpr double lparNoise = 0.02;
/** Pure-noise filler bias. */
constexpr double noiseBias = 0.5;
/** Global-parity filler: a width range of one value, whose draw
 *  still advances the stream, and noise. */
constexpr unsigned gparWidthLo = 2, gparWidthHi = 2;
constexpr double gparNoise = 0.02;

/** Bias range of every segment filler, taken or not-taken. */
constexpr double segBiasLo = 0.95, segBiasHi = 0.995;
/** Bias range of a one-shot filler, taken or not-taken. */
constexpr double oneShotBiasLo = 0.80, oneShotBiasHi = 0.90;

/** Shallowest echo-chain source lag m (sources at m-1 and m). */
constexpr unsigned chainLagLo = 18;
/**
 * Bias of an echo chain's two source blocks. Mid biases leave the
 * XOR consumer around 60/40 — enough fixable mass for the critic —
 * while keeping the sources' own mispredict floor moderate.
 */
constexpr double chainSrcBias = 0.68;
/** Noise on echo-chain consumers and relays. */
constexpr double chainNoise = 0.01;
/** Echo-chain passes per outer pass of the program (consumer heat). */
constexpr unsigned chainTrips = 4;
/** Motif arm biases: the taken-side arm, then the fall-through arm. */
constexpr double armBiasHi = 0.97, armBiasLo = 0.03;

/** A phase consumer follows the phase clock with this noise. */
constexpr double phaseNoise = 0.02;
/** Phase revealer instances per phase-chain pass. */
constexpr unsigned phaseInnerTrips = 5;
/** Passes of a phase chain per outer pass (consumer heat). */
constexpr unsigned phaseChainTrips = 3;

Addr
pcOf(std::size_t block_id)
{
    return baseAddr + block_id * blockStride;
}

/**
 * A branch strongly taken or strongly not-taken, at random: bias
 * base + span * u for u uniform in [0, 1), flipped half the time.
 */
BranchBehavior
biasedEitherWay(Rng &rng, double base, double span)
{
    double p = base + span * rng.nextDouble();
    if (rng.nextBool(0.5))
        p = 1.0 - p;
    return BranchBehavior::biased(p, rng.next());
}

/** Draw a segment filler behavior from the recipe mixture. */
BranchBehavior
drawFiller(const WorkloadRecipe &r, Rng &rng)
{
    const double total = r.wBiased + r.wLoop + r.wPattern +
                         r.wLocalParity + r.wPhased + r.wNoise +
                         r.wGlobalParity;
    pcbp_assert(total > 0.0, "empty filler mixture");
    double x = rng.nextDouble() * total;

    if ((x -= r.wBiased) < 0)
        return biasedEitherWay(rng, segBiasLo, segBiasHi - segBiasLo);
    if ((x -= r.wLoop) < 0) {
        const unsigned period = static_cast<unsigned>(
            rng.nextRange(r.loopLo, r.loopHi));
        return BranchBehavior::loop(std::max(2u, period));
    }
    if ((x -= r.wPattern) < 0) {
        const unsigned len = static_cast<unsigned>(
            rng.nextRange(patLenLo, patLenHi));
        std::vector<bool> pat(len);
        for (std::size_t i = 0; i < pat.size(); ++i)
            pat[i] = rng.nextBool(0.5);
        return BranchBehavior::pattern(pat, patNoise, rng.next());
    }
    if ((x -= r.wLocalParity) < 0) {
        const unsigned w = static_cast<unsigned>(
            rng.nextRange(lparWidthLo, lparWidthHi));
        return BranchBehavior::localParity(w, lparNoise, rng.next());
    }
    if ((x -= r.wPhased) < 0) {
        return BranchBehavior::phased(r.phasedLo, r.phasedHi,
                                      r.phasedBiasA, r.phasedBiasB,
                                      rng.next());
    }
    if ((x -= r.wNoise) < 0)
        return BranchBehavior::biased(noiseBias, rng.next());
    const unsigned lag = static_cast<unsigned>(
        rng.nextRange(r.gparLagLo, r.gparLagHi));
    const unsigned w = static_cast<unsigned>(
        rng.nextRange(gparWidthLo, gparWidthHi));
    // A behavior that takes both a coin flip and a seed draws the
    // seed first, here and in generateProgram: the order every
    // registry program, and so every golden, was generated in.
    const std::uint64_t seed = rng.next();
    return BranchBehavior::globalParity(lag, w, rng.nextBool(0.5),
                                        gparNoise, seed);
}

} // namespace

Program
generateProgram(const WorkloadRecipe &recipe)
{
    pcbp_assert(recipe.targetBlocks >= 8, "program too small");
    pcbp_assert(recipe.minUops >= 1 &&
                recipe.minUops <= recipe.maxUops);
    Rng rng(recipe.seed ^ 0x5eedf00dULL);
    Program prog(recipe.name);
    prog.reserve(recipe.targetBlocks); // motifs never overshoot it

    // One phase clock per program, shared by all phase chains.
    PhaseClockSpec phase_spec;
    phase_spec.seed = recipe.seed ^ 0x9ca5ec10cULL;
    phase_spec.lo = recipe.phaseClockLo;
    phase_spec.hi = recipe.phaseClockHi;
    const unsigned phase_clock = prog.addPhaseClock(phase_spec);

    // Motif sizing for even placement. An echo chain is two source
    // blocks, a straight spacer, consumer + arms, gap fillers, and
    // two relays; a phase chain is consumer + arms + loop body.
    const unsigned chain_len =
        2 + recipe.chainLagHi + 3 + recipe.chainGapHi + 2;
    const unsigned pchain_len = 5;
    const unsigned motif_len = std::max(chain_len, pchain_len);
    const unsigned want_motifs = recipe.numChains + recipe.numPhaseChains;
    const unsigned motifs =
        std::min<unsigned>(want_motifs,
                           recipe.targetBlocks / (motif_len + 2));
    const unsigned motif_every =
        motifs > 0 ? std::max(1u, recipe.targetBlocks / motifs) : 0;

    unsigned motifs_placed = 0;
    unsigned echo_placed = 0;

    // Filler segment state: fillers are grouped into small inner
    // loops (segment + latch) so branches re-execute at realistic
    // rates and pattern/local content stays within history reach.
    std::size_t seg_start = 0;
    unsigned seg_len = 0;
    unsigned seg_fill = 0;
    unsigned seg_entropy_slot = 0;

    // Block @p id, branching to @p taken or @p fall. Its uop count
    // is drawn here, so whether a site calls this before or after
    // drawing the block's behavior fixes the order of the stream.
    auto block_at = [&](std::size_t id, std::size_t taken,
                        std::size_t fall) {
        BasicBlock b;
        b.branchPc = pcOf(id);
        b.numUops = static_cast<std::uint32_t>(
            rng.nextRange(recipe.minUops, recipe.maxUops));
        b.takenTarget = static_cast<BlockId>(taken);
        b.fallthroughTarget = static_cast<BlockId>(fall);
        return b;
    };

    while (prog.numBlocks() < recipe.targetBlocks) {
        const std::size_t i = prog.numBlocks();

        const bool place_motif =
            motifs_placed < motifs && motif_every > 0 &&
            i >= static_cast<std::size_t>(motifs_placed) * motif_every &&
            i + motif_len + 1 < recipe.targetBlocks &&
            seg_fill == 0; // never split a filler segment

        if (place_motif) {
            ++motifs_placed;
            // Interleave echo chains and phase chains proportionally.
            const bool echo_turn =
                recipe.numChains > 0 &&
                (recipe.numPhaseChains == 0 ||
                 echo_placed * want_motifs <
                     recipe.numChains * motifs_placed);

            std::size_t at = i;
            auto straight = [&](const BranchBehavior &beh) {
                prog.addBlock(block_at(at, at + 1, at + 1), beh);
                ++at;
            };
            // A quiet straight filler, 92-99% biased either way.
            auto quiet = [&]() {
                straight(biasedEitherWay(rng, 0.92, 0.07));
            };
            auto diamond = [&](const BranchBehavior &beh) {
                // consumer with opposite-bias arms; merge after.
                prog.addBlock(block_at(at, at + 1, at + 2), beh);
                ++at;
                for (int arm = 0; arm < 2; ++arm) {
                    const std::size_t merge = at + (arm ? 1 : 2);
                    const BasicBlock a = block_at(at, merge, merge);
                    prog.addBlock(a, BranchBehavior::biased(
                                         arm == 0 ? armBiasHi : armBiasLo,
                                         rng.next()));
                    ++at;
                }
            };
            // Outer latch: repeat the whole motif @p trips times so
            // its consumer is hot enough for the critic's contexts
            // to recur and train.
            auto outer_latch = [&](unsigned trips) {
                prog.addBlock(block_at(at, i, at + 1),
                              BranchBehavior::loop(trips));
            };

            if (!echo_turn) {
                // Phase chain: a cold phase consumer, diamond arms,
                // then an inner loop holding a phase revealer whose
                // outcomes keep the phase visible in the deep BOR
                // history of the next consumers.
                diamond(BranchBehavior::phaseReveal(
                    phase_clock, 1.0 - phaseNoise, rng.next()));

                const BasicBlock rv = block_at(at, at + 1, at + 1);
                prog.addBlock(rv, BranchBehavior::phaseReveal(
                                      phase_clock, 0.98, rng.next()));
                ++at;
                prog.addBlock(block_at(at, at - 1, at + 1),
                              BranchBehavior::loop(phaseInnerTrips));
                ++at;
                outer_latch(phaseChainTrips);
                continue;
            }

            ++echo_placed;
            // Echo chain: two mid-bias sources, a straight quiet
            // spacer of m-1 blocks (so the consumer reads the source
            // bits at lags m-1 and m — beyond the history an 18-bit
            // BOR critic keeps once it holds future bits, but inside
            // a 28-bit perceptron prophet's window, where only their
            // XOR is unlearnable), the consumer, arms, an optional
            // gap, and two echo relays that re-expose the source
            // bits to the prophet — and therefore, via its
            // predictions, to the critic's future bits. The gap
            // shrinks where needed to keep both relays' lags <= 26.
            const unsigned m = static_cast<unsigned>(
                rng.nextRange(chainLagLo, recipe.chainLagHi));
            unsigned gap = static_cast<unsigned>(rng.nextRange(
                recipe.chainGapLo, recipe.chainGapHi));
            if (m + 1 + gap + 3 > 27)
                gap = 27 - m - 4;

            // Sources (committed order: src1 then src0).
            straight(BranchBehavior::biased(chainSrcBias, rng.next()));
            straight(BranchBehavior::biased(chainSrcBias, rng.next()));
            // Quiet spacer.
            for (unsigned k = 0; k + 1 < m; ++k)
                quiet();
            // Consumer: src0 committed m-1 blocks before it (lag
            // m-1), src1 one block earlier (lag m).
            std::uint64_t seed = rng.next();
            diamond(BranchBehavior::globalXor(
                m - 1, m, rng.nextBool(0.5), chainNoise, seed));
            // Gap fillers delay the relays' entry into the critique
            // window (need gap+4 future bits).
            for (unsigned k = 0; k < gap; ++k)
                quiet();
            // Relays: r1 commits gap+2 after the consumer, r2 one
            // later.
            seed = rng.next();
            straight(BranchBehavior::globalEcho(
                (m - 1) + gap + 2, rng.nextBool(0.5), chainNoise, seed));
            seed = rng.next();
            straight(BranchBehavior::globalEcho(
                m + gap + 3, rng.nextBool(0.5), chainNoise, seed));
            outer_latch(chainTrips);
            continue;
        }

        // Occasional one-shot straight filler with a mid bias:
        // cold, context-diverse history entropy.
        if (seg_fill == 0 && rng.nextBool(recipe.oneShotFrac)) {
            const BasicBlock os = block_at(i, i + 1, i + 1);
            prog.addBlock(os, biasedEitherWay(rng, oneShotBiasLo,
                                              oneShotBiasHi -
                                                  oneShotBiasLo));
            continue;
        }

        // Filler block inside a segment (a small inner loop).
        if (seg_fill == 0) {
            seg_start = i;
            seg_len = static_cast<unsigned>(rng.nextRange(3, 8));
            if (i + seg_len + 2 >= recipe.targetBlocks)
                seg_len = 2; // tail segment, keep it tiny
            seg_entropy_slot = static_cast<unsigned>(
                rng.nextRange(0, seg_len - 1));
        }

        if (seg_fill == seg_len) {
            // Latch: loop back over the segment. Trip counts are
            // drawn from a skewed distribution so a minority of hot
            // segments dominates dynamic execution, as in real
            // programs.
            unsigned trips;
            const double hot = rng.nextDouble();
            if (hot < 0.70)
                trips = static_cast<unsigned>(rng.nextRange(2, 4));
            else if (hot < 0.92)
                trips = static_cast<unsigned>(rng.nextRange(6, 12));
            else
                trips = static_cast<unsigned>(rng.nextRange(16, 48));
            prog.addBlock(block_at(i, seg_start, i + 1),
                          BranchBehavior::loop(trips));
            seg_fill = 0;
            continue;
        }

        BasicBlock b = block_at(i, i + 1, i + 1);
        BranchBehavior beh;
        if (seg_fill == seg_entropy_slot) {
            // One mid-bias entropy member per segment: its outcomes
            // decorrelate the (pc, BOR) contexts of its neighbors,
            // so filter entries allocated on their random
            // mispredicts rarely fire again.
            const double p_ent =
                0.88 + 0.05 * rng.nextDouble();
            const std::uint64_t seed = rng.next();
            beh = BranchBehavior::biased(
                rng.nextBool(0.5) ? p_ent : 1.0 - p_ent, seed);
        } else {
            beh = drawFiller(recipe, rng);
        }
        if (beh.kind == BehaviorKind::Loop) {
            b.takenTarget = static_cast<BlockId>(i); // self loop
        } else if (rng.nextBool(0.3)) {
            // Short forward skip inside the segment.
            b.takenTarget = static_cast<BlockId>(
                std::min<std::size_t>(i + 2, seg_start + seg_len));
        }
        prog.addBlock(b, beh);
        ++seg_fill;
    }

    // Wrap every target that ran off the end back to block 0 (the
    // program is one big outer loop).
    const std::size_t n = prog.numBlocks();
    for (std::size_t id = 0; id < n; ++id) {
        auto &b = prog.blockMut(static_cast<BlockId>(id));
        if (b.fallthroughTarget >= n)
            b.fallthroughTarget = 0;
        if (b.takenTarget >= n)
            b.takenTarget = 0;
    }

    prog.validate();
    return prog;
}

} // namespace pcbp
