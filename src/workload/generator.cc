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

Addr
pcOf(std::size_t block_id)
{
    return baseAddr + block_id * blockStride;
}

/** Draw a filler behavior from the recipe mixture. */
BranchBehavior
drawFiller(const WorkloadRecipe &r, Rng &rng, double bias_lo,
           double bias_hi)
{
    const double total = r.wBiased + r.wLoop + r.wPattern +
                         r.wLocalParity + r.wPhased + r.wNoise +
                         r.wGlobalParity;
    pcbp_assert(total > 0.0, "empty filler mixture");
    double x = rng.nextDouble() * total;

    if ((x -= r.wBiased) < 0) {
        // Either strongly taken or strongly not-taken.
        double p = bias_lo + rng.nextDouble() * (bias_hi - bias_lo);
        if (rng.nextBool(0.5))
            p = 1.0 - p;
        return BranchBehavior::biased(p, rng.next());
    }
    if ((x -= r.wLoop) < 0) {
        const unsigned period = static_cast<unsigned>(
            rng.nextRange(r.loopLo, r.loopHi));
        return BranchBehavior::loop(std::max(2u, period));
    }
    if ((x -= r.wPattern) < 0) {
        const unsigned len = static_cast<unsigned>(
            rng.nextRange(r.patLenLo, r.patLenHi));
        std::vector<bool> pat(std::max(2u, len));
        for (std::size_t i = 0; i < pat.size(); ++i)
            pat[i] = rng.nextBool(0.5);
        return BranchBehavior::pattern(pat, r.patNoise, rng.next());
    }
    if ((x -= r.wLocalParity) < 0) {
        const unsigned w = static_cast<unsigned>(
            rng.nextRange(r.lparWidthLo, r.lparWidthHi));
        return BranchBehavior::localParity(w, r.lparNoise, rng.next());
    }
    if ((x -= r.wPhased) < 0) {
        return BranchBehavior::phased(r.phasedLo, r.phasedHi,
                                      r.phasedBiasA, r.phasedBiasB,
                                      rng.next());
    }
    if ((x -= r.wNoise) < 0)
        return BranchBehavior::biased(r.noiseBias, rng.next());
    const unsigned lag = static_cast<unsigned>(
        rng.nextRange(r.gparLagLo, r.gparLagHi));
    const unsigned w = static_cast<unsigned>(
        rng.nextRange(r.gparWidthLo, r.gparWidthHi));
    // A behavior that takes both a coin flip and a seed draws the
    // seed first, here and in generateProgram: the order every
    // registry program, and so every golden, was generated in.
    const std::uint64_t seed = rng.next();
    return BranchBehavior::globalParity(lag, w, rng.nextBool(0.5),
                                        r.gparNoise, seed);
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

    auto draw_uops = [&]() {
        return static_cast<std::uint32_t>(
            rng.nextRange(recipe.minUops, recipe.maxUops));
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
                BasicBlock b;
                b.branchPc = pcOf(at);
                b.numUops = draw_uops();
                b.takenTarget = static_cast<BlockId>(at + 1);
                b.fallthroughTarget = static_cast<BlockId>(at + 1);
                prog.addBlock(b, beh);
                ++at;
            };
            auto diamond = [&](const BranchBehavior &beh) {
                // consumer with opposite-bias arms; merge after.
                BasicBlock s;
                s.branchPc = pcOf(at);
                s.numUops = draw_uops();
                s.takenTarget = static_cast<BlockId>(at + 1);
                s.fallthroughTarget = static_cast<BlockId>(at + 2);
                prog.addBlock(s, beh);
                ++at;
                for (int arm = 0; arm < 2; ++arm) {
                    BasicBlock a;
                    a.branchPc = pcOf(at);
                    a.numUops = draw_uops();
                    a.takenTarget =
                        static_cast<BlockId>(at + (arm ? 1 : 2));
                    a.fallthroughTarget = a.takenTarget;
                    prog.addBlock(
                        a, BranchBehavior::biased(arm == 0
                                                      ? recipe.armBiasHi
                                                      : recipe.armBiasLo,
                                                  rng.next()));
                    ++at;
                }
            };

            if (!echo_turn) {
                // Phase chain: a cold phase consumer, diamond arms,
                // then an inner loop holding a phase revealer whose
                // outcomes keep the phase visible in the deep BOR
                // history of the next consumers.
                diamond(BranchBehavior::phaseReveal(
                    phase_clock,
                    std::max(0.5, 1.0 - recipe.phaseNoise), rng.next()));

                BasicBlock rv;
                rv.branchPc = pcOf(at);
                rv.numUops = draw_uops();
                rv.takenTarget = static_cast<BlockId>(at + 1);
                rv.fallthroughTarget = static_cast<BlockId>(at + 1);
                prog.addBlock(rv, BranchBehavior::phaseReveal(
                                      phase_clock, 0.98, rng.next()));
                ++at;

                BasicBlock lt;
                lt.branchPc = pcOf(at);
                lt.numUops = draw_uops();
                lt.takenTarget = static_cast<BlockId>(at - 1);
                lt.fallthroughTarget = static_cast<BlockId>(at + 1);
                prog.addBlock(lt, BranchBehavior::loop(std::max(
                                      2u, recipe.phaseInnerTrips)));
                ++at;

                // Outer latch: repeat the whole chain so the
                // consumer is hot enough to train the critic.
                BasicBlock ol;
                ol.branchPc = pcOf(at);
                ol.numUops = draw_uops();
                ol.takenTarget = static_cast<BlockId>(i);
                ol.fallthroughTarget = static_cast<BlockId>(at + 1);
                prog.addBlock(ol, BranchBehavior::loop(std::max(
                                      2u, recipe.phaseChainTrips)));
                continue;
            }

            ++echo_placed;
            // Echo chain: two mid-bias sources, a straight quiet
            // spacer of m blocks (so the source bits sit at lags
            // [m, m+1] of the consumer — beyond an 18-bit BOR
            // critic's history window at any future-bit count, but
            // inside a 28-bit perceptron prophet's window, where
            // only their XOR is unlearnable), the consumer, arms, an
            // optional gap, and two echo relays that re-expose the
            // source bits to the prophet — and therefore, via its
            // predictions, to the critic's future bits.
            const unsigned m = static_cast<unsigned>(
                rng.nextRange(recipe.chainLagLo, recipe.chainLagHi));
            unsigned gap = static_cast<unsigned>(rng.nextRange(
                recipe.chainGapLo, recipe.chainGapHi));
            if (m + 1 + gap + 3 > 27)
                gap = 27 - m - 4;

            // Sources (committed order: src1 then src0).
            straight(BranchBehavior::biased(recipe.chainSrcBias,
                                            rng.next()));
            straight(BranchBehavior::biased(recipe.chainSrcBias,
                                            rng.next()));
            // Quiet spacer.
            for (unsigned k = 0; k + 1 < m; ++k) {
                double bias = 0.92 + 0.07 * rng.nextDouble();
                if (rng.nextBool(0.5))
                    bias = 1.0 - bias;
                straight(BranchBehavior::biased(bias, rng.next()));
            }
            // Consumer: src0 sits at lag m-1... the spacer has m-1
            // blocks, so src0 = lag m-1+0? Lags: src0 committed
            // m-1 blocks before the consumer => lag m-1; src1 => m.
            std::uint64_t seed = rng.next();
            diamond(BranchBehavior::globalXor(
                m - 1, m, rng.nextBool(0.5), recipe.chainNoise, seed));
            // Gap fillers delay the relays' entry into the critique
            // window (need gap+4 future bits).
            for (unsigned k = 0; k < gap; ++k) {
                double bias = 0.92 + 0.07 * rng.nextDouble();
                if (rng.nextBool(0.5))
                    bias = 1.0 - bias;
                straight(BranchBehavior::biased(bias, rng.next()));
            }
            // Relays: r1 commits gap+2 after the consumer, r2 one
            // later.
            seed = rng.next();
            straight(BranchBehavior::globalEcho(
                (m - 1) + gap + 2, rng.nextBool(0.5), recipe.chainNoise,
                seed));
            seed = rng.next();
            straight(BranchBehavior::globalEcho(
                m + gap + 3, rng.nextBool(0.5), recipe.chainNoise, seed));

            // Outer latch: repeat the whole chain so the consumer is
            // hot enough for the critic's contexts to recur.
            BasicBlock ol;
            ol.branchPc = pcOf(at);
            ol.numUops = draw_uops();
            ol.takenTarget = static_cast<BlockId>(i);
            ol.fallthroughTarget = static_cast<BlockId>(at + 1);
            prog.addBlock(ol, BranchBehavior::loop(
                                  std::max(2u, recipe.chainTrips)));
            continue;
        }

        // Occasional one-shot straight filler with a mid bias:
        // cold, context-diverse history entropy.
        if (seg_fill == 0 && rng.nextBool(recipe.oneShotFrac)) {
            BasicBlock os;
            os.branchPc = pcOf(i);
            os.numUops = draw_uops();
            os.takenTarget = static_cast<BlockId>(i + 1);
            os.fallthroughTarget = static_cast<BlockId>(i + 1);
            double p = recipe.oneShotBiasLo +
                       rng.nextDouble() *
                           (recipe.oneShotBiasHi - recipe.oneShotBiasLo);
            if (rng.nextBool(0.5))
                p = 1.0 - p;
            prog.addBlock(os, BranchBehavior::biased(p, rng.next()));
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
            BasicBlock lt;
            lt.branchPc = pcOf(i);
            lt.numUops = draw_uops();
            lt.takenTarget = static_cast<BlockId>(seg_start);
            lt.fallthroughTarget = static_cast<BlockId>(i + 1);
            prog.addBlock(lt, BranchBehavior::loop(trips));
            seg_fill = 0;
            continue;
        }

        BasicBlock b;
        b.branchPc = pcOf(i);
        b.numUops = draw_uops();
        b.fallthroughTarget = static_cast<BlockId>(i + 1);
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
            beh = drawFiller(recipe, rng, recipe.segBiasLo,
                             recipe.segBiasHi);
        }
        if (beh.kind == BehaviorKind::Loop) {
            b.takenTarget = static_cast<BlockId>(i); // self loop
        } else if (rng.nextBool(0.3)) {
            // Short forward skip inside the segment.
            b.takenTarget = static_cast<BlockId>(
                std::min<std::size_t>(i + 2, seg_start + seg_len));
        } else {
            b.takenTarget = static_cast<BlockId>(i + 1);
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
