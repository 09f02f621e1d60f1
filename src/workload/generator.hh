/**
 * @file
 * Synthetic program generator.
 *
 * A WorkloadRecipe describes a program as a weighted mixture of
 * filler blocks (biased, loop, pattern, local-parity, phased, and
 * pure-noise branches) plus a number of *echo-chain motifs* — the
 * construction that gives future bits genuine information content:
 *
 *   s:    hard branch whose outcome is (the parity of) committed
 *         global outcome bits at lag L, chosen near or beyond the
 *         prophet's history length;
 *   armT/armF: a diamond after s with opposite strong biases, so the
 *         prophet's predicted path after s carries a wrong-path
 *         signature (Fig. 2 of the paper);
 *   r_j:  relay branches that echo the same deep bits at lags the
 *         prophet *can* learn. The prophet's predictions for the
 *         relays — which become the critic's future bits — thereby
 *         re-encode history that has already slid out of the
 *         critic's own (short) BOR history window. This is the
 *         compression channel §8 of the paper describes.
 *
 * Everything is deterministic given the recipe seed.
 */

#ifndef PCBP_WORKLOAD_GENERATOR_HH
#define PCBP_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <string>

#include "workload/cfg.hh"

namespace pcbp
{

/**
 * The knobs a workload sets to describe one synthetic program. What
 * no workload varies — filler noise and widths, the segment and
 * one-shot bias ranges, the echo-chain source bias and trip counts,
 * the phase-chain shape — is a constant beside its one reader in
 * generator.cc (DESIGN.md §3).
 */
struct WorkloadRecipe
{
    std::string name = "anon";
    std::uint64_t seed = 1;

    /** Approximate static footprint (blocks ~= static branches). */
    unsigned targetBlocks = 300;

    /** Uops per block, uniform range (branch uop included). */
    unsigned minUops = 4;
    unsigned maxUops = 22;

    /** @name Filler mixture weights (need not sum to anything). */
    /// @{
    double wBiased = 2.0;
    double wLoop = 2.0;
    double wPattern = 1.0;
    double wLocalParity = 0.5;
    double wPhased = 0.5;
    double wNoise = 0.5;
    /**
     * Short-lag global parity branches: XOR of two-ish recent
     * committed bits. Unlearnable by perceptrons (not linearly
     * separable), slow for table prophets under context churn, but
     * fixable by a table critic whose BOR *history* window still
     * covers the source bits — i.e., exactly the content that
     * regresses when future bits displace history (§7.1).
     */
    double wGlobalParity = 0.0;
    /// @}

    /** @name Filler parameters. */
    /// @{
    unsigned loopLo = 3, loopHi = 20;
    unsigned phasedLo = 200, phasedHi = 2500;
    double phasedBiasA = 0.92, phasedBiasB = 0.10;
    unsigned gparLagLo = 4, gparLagHi = 9;
    /// @}

    /** @name Echo-chain motifs (critic fodder). */
    /// @{
    unsigned numChains = 10;
    /**
     * The consumer XORs the chain's two source bits, at lags m-1 and
     * m with m drawn from [18, chainLagHi]: deep enough that an
     * 18-bit BOR critic holding future bits cannot see them, while
     * the relays that re-expose them stay at lag <= 26, learnable by
     * a 28-bit-history perceptron prophet.
     */
    unsigned chainLagHi = 20;
    /**
     * Quiet filler blocks between the arms and the relays. The
     * relays enter the consumer's critique window only from
     * gap + 4 future bits, so mixing gaps spreads the critic's
     * gains across future-bit counts (the Fig. 5 ramp).
     */
    unsigned chainGapLo = 0, chainGapHi = 4;
    /// @}

    /** @name Phase-chain motifs (adaptation/self-echo channel). */
    /// @{
    /**
     * Chains of: a cold phase consumer (outcome = the program-wide
     * hidden phase), diamond arms, then an inner loop whose body
     * holds a phase revealer. Because the revealer repeats inside
     * the loop, its own outcome re-enters the history window, so
     * from the second iteration on *any* history predictor predicts
     * it with the current phase — a fresh phase signature that
     * reaches the consumer's critique through the future bits,
     * while the consumer's own predictor state is stale by design
     * (it executes only once per outer pass). All chains in a
     * program share one phase clock.
     */
    unsigned numPhaseChains = 6;
    unsigned phaseClockLo = 400, phaseClockHi = 2500;
    /// @}

    /**
     * Fillers live in small inner-loop segments (hot, so patterns
     * and local content are within history reach) with strongly
     * biased members; this fraction of fillers are instead one-shot
     * straight blocks with mid biases, providing history entropy at
     * diverse contexts.
     */
    double oneShotFrac = 0.15;
};

/** Build the program described by @p recipe. */
Program generateProgram(const WorkloadRecipe &recipe);

} // namespace pcbp

#endif // PCBP_WORKLOAD_GENERATOR_HH
