#include "workload/behavior.hh"

#include "common/logging.hh"

namespace pcbp
{

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

// ------------------------------------------------------------- factories

namespace
{

BranchBehavior
make(BehaviorKind kind, std::uint32_t n0, std::uint32_t n1, double p0,
     std::uint64_t seed)
{
    BranchBehavior b;
    b.kind = kind;
    b.n0 = n0;
    b.n1 = n1;
    b.p0 = p0;
    b.seed = seed;
    return b;
}

} // namespace

BranchBehavior
BranchBehavior::biased(double p, std::uint64_t seed)
{
    pcbp_assert(p >= 0.0 && p <= 1.0);
    return make(BehaviorKind::Biased, 0, 0, p, seed);
}

BranchBehavior
BranchBehavior::loop(unsigned period)
{
    pcbp_assert(period >= 2, "loop period must be >= 2");
    return make(BehaviorKind::Loop, period, 0, 0.0, 0);
}

BranchBehavior
BranchBehavior::pattern(const std::vector<bool> &pattern, double noise,
                        std::uint64_t seed)
{
    pcbp_assert(!pattern.empty() && pattern.size() <= 32);
    std::uint32_t bits = 0;
    for (std::size_t i = 0; i < pattern.size(); ++i)
        bits |= std::uint32_t(pattern[i]) << i;
    return make(BehaviorKind::Pattern,
                static_cast<std::uint32_t>(pattern.size()), bits, noise,
                seed);
}

BranchBehavior
BranchBehavior::localParity(unsigned width, double noise,
                            std::uint64_t seed)
{
    pcbp_assert(width >= 1 && width <= 63);
    return make(BehaviorKind::LocalParity, width, 0, noise, seed);
}

BranchBehavior
BranchBehavior::globalParity(unsigned lag, unsigned width, bool invert,
                             double noise, std::uint64_t seed)
{
    pcbp_assert(width >= 1 && width <= 64);
    pcbp_assert(lag + width <= HistoryRegister::capacity);
    BranchBehavior b =
        make(BehaviorKind::GlobalParity, lag, width, noise, seed);
    b.invert = invert;
    return b;
}

BranchBehavior
BranchBehavior::globalXor(unsigned lag_a, unsigned lag_b, bool invert,
                          double noise, std::uint64_t seed)
{
    pcbp_assert(lag_a != lag_b);
    pcbp_assert(lag_a < HistoryRegister::capacity &&
                lag_b < HistoryRegister::capacity);
    BranchBehavior b =
        make(BehaviorKind::GlobalXor, lag_a, lag_b, noise, seed);
    b.invert = invert;
    return b;
}

BranchBehavior
BranchBehavior::globalEcho(unsigned lag, bool invert, double noise,
                           std::uint64_t seed)
{
    pcbp_assert(lag < HistoryRegister::capacity);
    BranchBehavior b = make(BehaviorKind::GlobalEcho, lag, 0, noise, seed);
    b.invert = invert;
    return b;
}

BranchBehavior
BranchBehavior::phaseReveal(unsigned clock, double fidelity,
                            std::uint64_t seed)
{
    pcbp_assert(fidelity >= 0.5 && fidelity <= 1.0);
    return make(BehaviorKind::PhaseReveal, clock, 0, fidelity, seed);
}

BranchBehavior
BranchBehavior::phased(unsigned period_lo, unsigned period_hi,
                       double bias_a, double bias_b, std::uint64_t seed)
{
    pcbp_assert(period_lo >= 1 && period_lo <= period_hi);
    BranchBehavior b =
        make(BehaviorKind::Phased, period_lo, period_hi, bias_a, seed);
    b.p1 = bias_b;
    return b;
}

// ------------------------------------------------------------------ walk

BehaviorState
initialState(const BranchBehavior &b)
{
    BehaviorState s{Rng(b.seed)};
    if (b.kind == BehaviorKind::Phased)
        s.word = static_cast<std::uint64_t>(s.rng.nextRange(b.n0, b.n1));
    return s;
}

bool
nextOutcome(const BranchBehavior &b, BehaviorState &s,
            const ArchContext &ctx)
{
    // Flip @p out with probability p0 (the kinds that take noise).
    const auto noisy = [&](bool out) {
        return b.p0 > 0.0 && s.rng.nextBool(b.p0) ? !out : out;
    };
    switch (b.kind) {
      case BehaviorKind::Biased:
        return s.rng.nextBool(b.p0);
      case BehaviorKind::Loop:
        if (++s.word == b.n0) {
            s.word = 0;
            return false; // loop exit
        }
        return true; // loop back
      case BehaviorKind::Pattern: {
        const bool out = (b.n1 >> s.word) & 1;
        s.word = (s.word + 1) % b.n0;
        return noisy(out);
      }
      case BehaviorKind::LocalParity: {
        const bool out =
            noisy(__builtin_popcountll(s.word & maskBits(b.n0)) % 2 == 0);
        s.word = (s.word << 1) | (out ? 1 : 0);
        return out;
      }
      case BehaviorKind::GlobalParity:
        return noisy(
            (__builtin_popcountll(ctx.committed.window(b.n0, b.n1)) % 2 ==
             1) != b.invert);
      case BehaviorKind::GlobalXor:
        return noisy(
            (ctx.committed.bit(b.n0) != ctx.committed.bit(b.n1)) !=
            b.invert);
      case BehaviorKind::GlobalEcho:
        return noisy(ctx.committed.bit(b.n0) != b.invert);
      case BehaviorKind::PhaseReveal: {
        const bool ph = ctx.clocks[b.n0].phaseAt(ctx.commitIndex);
        return s.rng.nextBool(b.p0) ? ph : !ph;
      }
      case BehaviorKind::Phased:
        if (s.word == 0) {
            s.inA = !s.inA;
            s.word =
                static_cast<std::uint64_t>(s.rng.nextRange(b.n0, b.n1));
        } else {
            --s.word;
        }
        return s.rng.nextBool(s.inA ? b.p0 : b.p1);
    }
    pcbp_panic("unknown behavior kind");
}

std::string
describe(const BranchBehavior &b)
{
    const auto n = [](std::uint32_t v) { return std::to_string(v); };
    switch (b.kind) {
      case BehaviorKind::Biased:
        return "biased(" + std::to_string(b.p0) + ")";
      case BehaviorKind::Loop:
        return "loop(" + n(b.n0) + ")";
      case BehaviorKind::Pattern: {
        std::string s = "pattern(";
        for (std::uint32_t i = 0; i < b.n0; ++i)
            s.push_back((b.n1 >> i) & 1 ? 'T' : 'N');
        return s + ")";
      }
      case BehaviorKind::LocalParity:
        return "local-parity(" + n(b.n0) + ")";
      case BehaviorKind::GlobalParity:
        return "global-parity(lag=" + n(b.n0) + ",w=" + n(b.n1) + ")";
      case BehaviorKind::GlobalXor:
        return "global-xor(" + n(b.n0) + "," + n(b.n1) + ")";
      case BehaviorKind::GlobalEcho:
        return "global-echo(lag=" + n(b.n0) + (b.invert ? ",inv" : "") +
               ")";
      case BehaviorKind::PhaseReveal:
        return "phase-reveal(" + std::to_string(b.p0) + ")";
      case BehaviorKind::Phased:
        return "phased(" + n(b.n0) + ".." + n(b.n1) + ")";
    }
    pcbp_panic("unknown behavior kind");
}

} // namespace pcbp
