#include "workload/behavior.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pcbp
{

// ---------------------------------------------------------------- Biased

BiasedBehavior::BiasedBehavior(double p, std::uint64_t seed_)
    : prob(p), seed(seed_), rng(seed_)
{
    pcbp_assert(p >= 0.0 && p <= 1.0);
}

bool
BiasedBehavior::nextOutcome(const ArchContext &)
{
    return rng.nextBool(prob);
}

void
BiasedBehavior::reset()
{
    rng = Rng(seed);
}

std::string
BiasedBehavior::describe() const
{
    return "biased(" + std::to_string(prob) + ")";
}

// ------------------------------------------------------------------ Loop

LoopBehavior::LoopBehavior(unsigned period_) : period(period_)
{
    pcbp_assert(period >= 2, "loop period must be >= 2");
}

bool
LoopBehavior::nextOutcome(const ArchContext &)
{
    ++count;
    if (count == period) {
        count = 0;
        return false; // loop exit
    }
    return true; // loop back
}

void
LoopBehavior::reset()
{
    count = 0;
}

std::string
LoopBehavior::describe() const
{
    return "loop(" + std::to_string(period) + ")";
}

// --------------------------------------------------------------- Pattern

PatternBehavior::PatternBehavior(std::vector<bool> pattern_, double noise_,
                                 std::uint64_t seed_)
    : pattern(std::move(pattern_)), noise(noise_), seed(seed_), rng(seed_)
{
    pcbp_assert(!pattern.empty());
}

bool
PatternBehavior::nextOutcome(const ArchContext &)
{
    bool out = pattern[cursor];
    cursor = (cursor + 1) % pattern.size();
    if (noise > 0.0 && rng.nextBool(noise))
        out = !out;
    return out;
}

void
PatternBehavior::reset()
{
    cursor = 0;
    rng = Rng(seed);
}

std::string
PatternBehavior::describe() const
{
    std::string s = "pattern(";
    for (bool b : pattern)
        s.push_back(b ? 'T' : 'N');
    return s + ")";
}

// ----------------------------------------------------------- LocalParity

LocalParityBehavior::LocalParityBehavior(unsigned width_, double noise_,
                                         std::uint64_t seed_)
    : width(width_), noise(noise_), seed(seed_), rng(seed_)
{
    pcbp_assert(width >= 1 && width <= 63);
}

bool
LocalParityBehavior::nextOutcome(const ArchContext &)
{
    const std::uint64_t window = own & maskBits(width);
    bool out = (__builtin_popcountll(window) % 2 == 0);
    if (noise > 0.0 && rng.nextBool(noise))
        out = !out;
    own = (own << 1) | (out ? 1 : 0);
    return out;
}

void
LocalParityBehavior::reset()
{
    own = 0;
    rng = Rng(seed);
}

std::string
LocalParityBehavior::describe() const
{
    return "local-parity(" + std::to_string(width) + ")";
}

// ---------------------------------------------------------- GlobalParity

GlobalParityBehavior::GlobalParityBehavior(unsigned lag_, unsigned width_,
                                           bool invert_, double noise_,
                                           std::uint64_t seed_)
    : lag(lag_), width(width_), invert(invert_), noise(noise_),
      seed(seed_), rng(seed_)
{
    pcbp_assert(width >= 1);
    pcbp_assert(lag + width <= HistoryRegister::capacity);
}

bool
GlobalParityBehavior::nextOutcome(const ArchContext &ctx)
{
    unsigned ones = 0;
    for (unsigned i = 0; i < width; ++i)
        ones += ctx.committed.bit(lag + i) ? 1 : 0;
    bool out = (ones % 2 == 1) != invert;
    if (noise > 0.0 && rng.nextBool(noise))
        out = !out;
    return out;
}

void
GlobalParityBehavior::reset()
{
    rng = Rng(seed);
}

std::string
GlobalParityBehavior::describe() const
{
    return "global-parity(lag=" + std::to_string(lag) + ",w=" +
           std::to_string(width) + ")";
}

// ------------------------------------------------------------- GlobalXor

GlobalXorBehavior::GlobalXorBehavior(unsigned lag_a, unsigned lag_b,
                                     bool invert_, double noise_,
                                     std::uint64_t seed_)
    : lagA(lag_a), lagB(lag_b), invert(invert_), noise(noise_),
      seed(seed_), rng(seed_)
{
    pcbp_assert(lagA != lagB);
    pcbp_assert(lagA < HistoryRegister::capacity &&
                lagB < HistoryRegister::capacity);
}

bool
GlobalXorBehavior::nextOutcome(const ArchContext &ctx)
{
    bool out =
        (ctx.committed.bit(lagA) != ctx.committed.bit(lagB)) != invert;
    if (noise > 0.0 && rng.nextBool(noise))
        out = !out;
    return out;
}

void
GlobalXorBehavior::reset()
{
    rng = Rng(seed);
}

std::string
GlobalXorBehavior::describe() const
{
    return "global-xor(" + std::to_string(lagA) + "," +
           std::to_string(lagB) + ")";
}

// ------------------------------------------------------------ GlobalEcho

GlobalEchoBehavior::GlobalEchoBehavior(unsigned lag_, bool invert_,
                                       double noise_, std::uint64_t seed_)
    : lag(lag_), invert(invert_), noise(noise_), seed(seed_), rng(seed_)
{
    pcbp_assert(lag < HistoryRegister::capacity);
}

bool
GlobalEchoBehavior::nextOutcome(const ArchContext &ctx)
{
    bool out = ctx.committed.bit(lag) != invert;
    if (noise > 0.0 && rng.nextBool(noise))
        out = !out;
    return out;
}

void
GlobalEchoBehavior::reset()
{
    rng = Rng(seed);
}

std::string
GlobalEchoBehavior::describe() const
{
    return "global-echo(lag=" + std::to_string(lag) +
           (invert ? ",inv" : "") + ")";
}

// ------------------------------------------------------------ PhaseClock

PhaseClock::PhaseClock(const PhaseClockSpec &spec_)
    : spec(spec_), rng(spec_.seed ^ 0x9ca5eULL)
{
    pcbp_assert(spec.lo >= 1 && spec.lo <= spec.hi);
    nextBoundary = static_cast<std::uint64_t>(
        rng.nextRange(spec.lo, spec.hi));
}

bool
PhaseClock::phaseAt(std::uint64_t t)
{
    while (t >= nextBoundary) {
        phase = !phase;
        nextBoundary += static_cast<std::uint64_t>(
            rng.nextRange(spec.lo, spec.hi));
    }
    return phase;
}

void
PhaseClock::reset()
{
    rng = Rng(spec.seed ^ 0x9ca5eULL);
    phase = false;
    nextBoundary = static_cast<std::uint64_t>(
        rng.nextRange(spec.lo, spec.hi));
}

// ----------------------------------------------------------- PhaseReveal

PhaseRevealBehavior::PhaseRevealBehavior(const PhaseClockSpec &clock_,
                                         double fidelity_,
                                         std::uint64_t seed_)
    : clock(clock_), fidelity(fidelity_), seed(seed_), rng(seed_)
{
    pcbp_assert(fidelity >= 0.5 && fidelity <= 1.0);
}

bool
PhaseRevealBehavior::nextOutcome(const ArchContext &ctx)
{
    const bool ph = clock.phaseAt(ctx.commitIndex);
    return rng.nextBool(fidelity) ? ph : !ph;
}

void
PhaseRevealBehavior::reset()
{
    clock.reset();
    rng = Rng(seed);
}

std::string
PhaseRevealBehavior::describe() const
{
    return "phase-reveal(" + std::to_string(fidelity) + ")";
}

// ---------------------------------------------------------------- Phased

PhasedBehavior::PhasedBehavior(unsigned period_lo, unsigned period_hi,
                               double bias_a, double bias_b,
                               std::uint64_t seed_)
    : periodLo(period_lo), periodHi(period_hi), biasA(bias_a),
      biasB(bias_b), seed(seed_), rng(seed_)
{
    pcbp_assert(period_lo >= 1 && period_lo <= period_hi);
    rollPhaseLength();
}

void
PhasedBehavior::rollPhaseLength()
{
    remaining = static_cast<unsigned>(
        rng.nextRange(periodLo, periodHi));
}

bool
PhasedBehavior::nextOutcome(const ArchContext &)
{
    if (remaining == 0) {
        inA = !inA;
        rollPhaseLength();
    } else {
        --remaining;
    }
    return rng.nextBool(inA ? biasA : biasB);
}

void
PhasedBehavior::reset()
{
    rng = Rng(seed);
    inA = true;
    rollPhaseLength();
}

std::string
PhasedBehavior::describe() const
{
    return "phased(" + std::to_string(periodLo) + ".." +
           std::to_string(periodHi) + ")";
}

} // namespace pcbp
