/**
 * @file
 * Branch behavior models for the synthetic workload substrate.
 *
 * A BranchBehavior generates the architectural outcome stream of one
 * static branch. Outcomes may depend on the branch's own private
 * state (loop counters, pattern cursors, RNG streams) and on the
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
#include <memory>
#include <string>
#include <vector>

#include "common/history_register.hh"
#include "common/rng.hh"

namespace pcbp
{

/** Committed architectural context visible to behavior models. */
struct ArchContext
{
    /** Outcomes of all previously committed branches (bit 0 newest). */
    const HistoryRegister &committed;
    /** Number of branches committed so far. */
    std::uint64_t commitIndex;
};

class BranchBehavior;
using BranchBehaviorPtr = std::unique_ptr<BranchBehavior>;

class BranchBehavior
{
  public:
    virtual ~BranchBehavior() = default;

    /** Produce the next architectural outcome and advance state. */
    virtual bool nextOutcome(const ArchContext &ctx) = 0;

    /** Restore initial state (for re-walking a program). */
    virtual void reset() = 0;

    /**
     * Deep copy, mid-stream state included: the clone's outcome
     * sequence continues exactly where this behavior's would. The
     * fork seam of the sweep runner (DESIGN.md §11) relies on this.
     */
    virtual BranchBehaviorPtr clone() const = 0;

    /** Short description, e.g.\ "loop(7)". */
    virtual std::string describe() const = 0;
};

/** Bernoulli: taken with probability @p p, from a private stream. */
class BiasedBehavior : public BranchBehavior
{
  public:
    BiasedBehavior(double p, std::uint64_t seed);
    bool nextOutcome(const ArchContext &ctx) override;
    void reset() override;
    BranchBehaviorPtr clone() const override
    {
        return std::make_unique<BiasedBehavior>(*this);
    }
    std::string describe() const override;

  private:
    double prob;
    std::uint64_t seed;
    Rng rng;
};

/** Loop-back branch: taken (period-1) times, then not-taken. */
class LoopBehavior : public BranchBehavior
{
  public:
    explicit LoopBehavior(unsigned period);
    bool nextOutcome(const ArchContext &ctx) override;
    void reset() override;
    BranchBehaviorPtr clone() const override
    {
        return std::make_unique<LoopBehavior>(*this);
    }
    std::string describe() const override;

  private:
    unsigned period;
    unsigned count = 0;
};

/** Repeating fixed pattern, with optional noise flips. */
class PatternBehavior : public BranchBehavior
{
  public:
    PatternBehavior(std::vector<bool> pattern, double noise,
                    std::uint64_t seed);
    bool nextOutcome(const ArchContext &ctx) override;
    void reset() override;
    BranchBehaviorPtr clone() const override
    {
        return std::make_unique<PatternBehavior>(*this);
    }
    std::string describe() const override;

  private:
    std::vector<bool> pattern;
    double noise;
    std::uint64_t seed;
    std::size_t cursor = 0;
    Rng rng;
};

/**
 * Outcome = parity of the branch's own last @p width outcomes,
 * inverted, with noise. Self-referential, so it produces a rich but
 * deterministic local sequence of period > width.
 */
class LocalParityBehavior : public BranchBehavior
{
  public:
    LocalParityBehavior(unsigned width, double noise, std::uint64_t seed);
    bool nextOutcome(const ArchContext &ctx) override;
    void reset() override;
    BranchBehaviorPtr clone() const override
    {
        return std::make_unique<LocalParityBehavior>(*this);
    }
    std::string describe() const override;

  private:
    unsigned width;
    double noise;
    std::uint64_t seed;
    std::uint64_t own = 0; // branch's own outcome history, bit 0 newest
    Rng rng;
};

/**
 * Outcome = parity of committed global outcomes [lag, lag+width),
 * XOR invert, with noise. With lag+width beyond the prophet's
 * history length the prophet cannot learn it.
 */
class GlobalParityBehavior : public BranchBehavior
{
  public:
    GlobalParityBehavior(unsigned lag, unsigned width, bool invert,
                         double noise, std::uint64_t seed);
    bool nextOutcome(const ArchContext &ctx) override;
    void reset() override;
    BranchBehaviorPtr clone() const override
    {
        return std::make_unique<GlobalParityBehavior>(*this);
    }
    std::string describe() const override;

  private:
    unsigned lag;
    unsigned width;
    bool invert;
    double noise;
    std::uint64_t seed;
    Rng rng;
};

/**
 * Outcome = XOR of the committed outcomes at two arbitrary lags,
 * XOR invert, with noise. The workhorse of echo chains with several
 * consumers: XOR of two balanced bits is not linearly separable, so
 * no perceptron learns it, and two consumers reading different lag
 * pairs stay mutually unpredictable.
 */
class GlobalXorBehavior : public BranchBehavior
{
  public:
    GlobalXorBehavior(unsigned lag_a, unsigned lag_b, bool invert,
                      double noise, std::uint64_t seed);
    bool nextOutcome(const ArchContext &ctx) override;
    void reset() override;
    BranchBehaviorPtr clone() const override
    {
        return std::make_unique<GlobalXorBehavior>(*this);
    }
    std::string describe() const override;

  private:
    unsigned lagA, lagB;
    bool invert;
    double noise;
    std::uint64_t seed;
    Rng rng;
};

/**
 * Outcome = committed global outcome @p lag branches ago, XOR
 * invert, with noise. A "relay": at small lags it is easy for the
 * prophet, and its prediction then carries the lagged bit into the
 * critic's future window.
 */
class GlobalEchoBehavior : public BranchBehavior
{
  public:
    GlobalEchoBehavior(unsigned lag, bool invert, double noise,
                       std::uint64_t seed);
    bool nextOutcome(const ArchContext &ctx) override;
    void reset() override;
    BranchBehaviorPtr clone() const override
    {
        return std::make_unique<GlobalEchoBehavior>(*this);
    }
    std::string describe() const override;

  private:
    unsigned lag;
    bool invert;
    double noise;
    std::uint64_t seed;
    Rng rng;
};

/**
 * A deterministic global phase clock: time (commit index) is split
 * into windows of pseudo-random length in [lo, hi], and the phase
 * bit flips each window. Two behaviors constructed with the same
 * spec see exactly the same phase — this is how a program-wide
 * hidden mode is shared across branches without shared mutable
 * state.
 */
struct PhaseClockSpec
{
    std::uint64_t seed = 1;
    unsigned lo = 500;
    unsigned hi = 3000;
};

/**
 * Cursor over a PhaseClockSpec. phaseAt() must be called with
 * non-decreasing commit indices (amortized O(1)).
 */
class PhaseClock
{
  public:
    explicit PhaseClock(const PhaseClockSpec &spec);

    /** Phase bit at commit index @p t (t non-decreasing). */
    bool phaseAt(std::uint64_t t);

    void reset();

  private:
    PhaseClockSpec spec;
    Rng rng;
    std::uint64_t nextBoundary = 0;
    bool phase = false;
};

/**
 * Phase revealer: outcome = current phase with probability
 * @p fidelity. Easy for any adaptive predictor *within* a phase —
 * which means the prophet's prediction for it leaks the current
 * phase into the critic's future bits.
 */
class PhaseRevealBehavior : public BranchBehavior
{
  public:
    PhaseRevealBehavior(const PhaseClockSpec &clock, double fidelity,
                        std::uint64_t seed);
    bool nextOutcome(const ArchContext &ctx) override;
    void reset() override;
    BranchBehaviorPtr clone() const override
    {
        return std::make_unique<PhaseRevealBehavior>(*this);
    }
    std::string describe() const override;

  private:
    PhaseClock clock;
    double fidelity;
    std::uint64_t seed;
    Rng rng;
};

/**
 * Hidden two-mode process: the branch is strongly biased one way,
 * and the bias flips at random intervals drawn from
 * [period_lo, period_hi]. Models program phase changes.
 */
class PhasedBehavior : public BranchBehavior
{
  public:
    PhasedBehavior(unsigned period_lo, unsigned period_hi,
                   double bias_a, double bias_b, std::uint64_t seed);
    bool nextOutcome(const ArchContext &ctx) override;
    void reset() override;
    BranchBehaviorPtr clone() const override
    {
        return std::make_unique<PhasedBehavior>(*this);
    }
    std::string describe() const override;

  private:
    void rollPhaseLength();

    unsigned periodLo, periodHi;
    double biasA, biasB;
    std::uint64_t seed;
    Rng rng;
    bool inA = true;
    unsigned remaining = 0;
};

} // namespace pcbp

#endif // PCBP_WORKLOAD_BEHAVIOR_HH
