/**
 * @file
 * Branch behavior models for the synthetic workload substrate.
 *
 * A BranchBehavior describes the architectural outcome stream of one
 * static branch: a kind plus its parameters, plain data stored with
 * the branch's block. What the outcomes advance — the private RNG
 * stream, loop counter, pattern cursor, own history or phase — is a
 * BehaviorState slot per block that belongs to the walker
 * (ProgramWalkStream), so a built program is immutable and any
 * number of walks may read it at once. nextOutcome() is the one
 * switch that evaluates every kind.
 *
 * Outcomes may depend on the branch's own state and on the
 * *committed* global outcome history — never on speculative state —
 * so the architectural path of a program is independent of the
 * predictor driving it (exactly as in real hardware, where wrong
 * paths have no architectural effect).
 *
 * The models span the axes that matter for prophet/critic behavior:
 *  - Biased / Lfsr-random: unpredictable noise (stresses the filter);
 *  - Loop / Pattern: classic easy branches;
 *  - LocalParity: needs long per-branch history;
 *  - GlobalParity / GlobalEcho: correlation at a configurable lag —
 *    beyond the prophet's history length the prophet systematically
 *    fails while relay branches at smaller lags leak the missing
 *    information into the prophet's *predictions*, i.e.\ into the
 *    critic's future bits;
 *  - Phased: slow hidden mode switches producing mispredict bursts.
 */

#ifndef PCBP_WORKLOAD_BEHAVIOR_HH
#define PCBP_WORKLOAD_BEHAVIOR_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/history_register.hh"
#include "common/rng.hh"

namespace pcbp
{

/**
 * A deterministic global phase clock: time (commit index) is split
 * into windows of pseudo-random length in [lo, hi], and the phase
 * bit flips each window. The phase at commit t depends only on t and
 * the spec, so every phase revealer naming one spec sees exactly the
 * same phase — this is how a program-wide hidden mode is shared
 * across branches.
 */
struct PhaseClockSpec
{
    std::uint64_t seed = 1;
    unsigned lo = 500;
    unsigned hi = 3000;
};

/**
 * Cursor over a PhaseClockSpec. phaseAt() must be called with
 * non-decreasing commit indices (amortized O(1)). A walk keeps one
 * cursor per spec of its program, shared by all the spec's
 * revealers: the commit index never decreases along a walk.
 */
class PhaseClock
{
  public:
    explicit PhaseClock(const PhaseClockSpec &spec);

    /** Phase bit at commit index @p t (t non-decreasing). */
    bool phaseAt(std::uint64_t t);

  private:
    PhaseClockSpec spec;
    Rng rng;
    std::uint64_t nextBoundary = 0;
    bool phase = false;
};

enum class BehaviorKind : std::uint8_t
{
    /** Bernoulli: taken with probability p0. */
    Biased,
    /** Loop-back branch: taken n0-1 times, then not-taken. */
    Loop,
    /** Repeating pattern of n0 outcomes (bit i of n1 is outcome i),
     *  flipped with noise p0. */
    Pattern,
    /**
     * Parity of the branch's own last n0 outcomes, inverted, with
     * noise p0. Self-referential, so it produces a rich but
     * deterministic local sequence of period > n0.
     */
    LocalParity,
    /**
     * Parity of committed global outcomes [n0, n0+n1), XOR invert,
     * with noise p0. With n0+n1 beyond the prophet's history length
     * the prophet cannot learn it.
     */
    GlobalParity,
    /**
     * XOR of the committed outcomes at lags n0 and n1, XOR invert,
     * with noise p0. The workhorse of echo chains with several
     * consumers: XOR of two balanced bits is not linearly separable,
     * so no perceptron learns it, and two consumers reading
     * different lag pairs stay mutually unpredictable.
     */
    GlobalXor,
    /**
     * Committed global outcome n0 branches ago, XOR invert, with
     * noise p0. A "relay": at small lags it is easy for the prophet,
     * and its prediction then carries the lagged bit into the
     * critic's future window.
     */
    GlobalEcho,
    /**
     * Phase revealer: the phase of the program's phase clock n0 with
     * probability p0 (the fidelity). Easy for any adaptive predictor
     * *within* a phase — which means the prophet's prediction for it
     * leaks the current phase into the critic's future bits.
     */
    PhaseReveal,
    /**
     * Hidden two-mode process: taken with probability p0 in mode A
     * and p1 in mode B; the mode flips after runs whose lengths are
     * drawn from [n0, n1]. Models program phase changes.
     */
    Phased,
};

/**
 * One branch's behavior: a kind and its parameters (see
 * BehaviorKind for what each field means per kind). Build it with
 * the named factories, which check the parameters.
 */
struct BranchBehavior
{
    BehaviorKind kind = BehaviorKind::Biased;
    bool invert = false;
    std::uint32_t n0 = 0;
    std::uint32_t n1 = 0;
    double p0 = 0.0;
    double p1 = 0.0;
    /** Seed of the branch's private RNG stream. */
    std::uint64_t seed = 0;

    static BranchBehavior biased(double p, std::uint64_t seed);
    static BranchBehavior loop(unsigned period);
    /** @p pattern holds 1 to 32 outcomes. */
    static BranchBehavior pattern(const std::vector<bool> &pattern,
                                  double noise, std::uint64_t seed);
    static BranchBehavior localParity(unsigned width, double noise,
                                      std::uint64_t seed);
    /** @p width is at most 64. */
    static BranchBehavior globalParity(unsigned lag, unsigned width,
                                       bool invert, double noise,
                                       std::uint64_t seed);
    static BranchBehavior globalXor(unsigned lag_a, unsigned lag_b,
                                    bool invert, double noise,
                                    std::uint64_t seed);
    static BranchBehavior globalEcho(unsigned lag, bool invert,
                                     double noise, std::uint64_t seed);
    /** @p clock indexes the program's phase clocks
     *  (Program::addPhaseClock). */
    static BranchBehavior phaseReveal(unsigned clock, double fidelity,
                                      std::uint64_t seed);
    static BranchBehavior phased(unsigned period_lo, unsigned period_hi,
                                 double bias_a, double bias_b,
                                 std::uint64_t seed);
};

/**
 * The walk state of one branch behavior. Trivially copyable, so a
 * walk's states copy (a fork) with one memcpy.
 */
struct BehaviorState
{
    Rng rng;
    /**
     * Loop: iterations so far; Pattern: cursor; LocalParity: the
     * branch's own outcomes (bit 0 newest); Phased: outcomes left in
     * the current mode.
     */
    std::uint64_t word = 0;
    /** Phased: in mode A. */
    bool inA = true;
};

static_assert(std::is_trivially_copyable_v<BehaviorState>);

/** @p b's state before its first outcome. */
BehaviorState initialState(const BranchBehavior &b);

/** Committed architectural context visible to behavior models. */
struct ArchContext
{
    /** Outcomes of all previously committed branches (bit 0 newest). */
    const HistoryRegister &committed;
    /** Number of branches committed so far. */
    std::uint64_t commitIndex;
    /** The walk's phase clocks, indexed like the program's specs. */
    PhaseClock *clocks;
};

/**
 * Produce @p b's next architectural outcome and advance @p state.
 * Each kind draws from state.rng in a fixed order, so a behavior's
 * outcome sequence depends only on its parameters and the committed
 * context.
 */
bool nextOutcome(const BranchBehavior &b, BehaviorState &state,
                 const ArchContext &ctx);

/** Short description, e.g.\ "loop(7)". */
std::string describe(const BranchBehavior &b);

} // namespace pcbp

#endif // PCBP_WORKLOAD_BEHAVIOR_HH
