/**
 * @file
 * Experiment driver: builds hybrids from specs and runs one workload
 * through the accuracy engine or the timing model — the single-run
 * layer under the sweep runner, the CLIs and the examples.
 */

#ifndef PCBP_SIM_DRIVER_HH
#define PCBP_SIM_DRIVER_HH

#include <optional>
#include <string>
#include <vector>

#include "core/presets.hh"
#include "sim/engine.hh"
#include "sim/metrics.hh"
#include "sim/timing.hh"
#include "workload/suites.hh"

namespace pcbp
{

/**
 * A full predictor configuration under test.
 *
 * A HybridSpec is a pure value: build() constructs a fresh, fully
 * owned predictor every time, so two runs of the same spec share no
 * state and a spec can be copied freely across threads (the sweep
 * runner depends on this for its any-`--jobs` determinism contract).
 */
struct HybridSpec
{
    ProphetKind prophet = ProphetKind::Perceptron;
    Budget prophetBudget = Budget::B8KB;

    /** No critic = prophet-alone baseline. */
    std::optional<CriticKind> critic;
    Budget criticBudget = Budget::B8KB;

    unsigned futureBits = 8;

    /** Ablation knobs (§3.2 / §3.3); both on in the paper's design. */
    bool speculativeHistory = true;
    bool repairHistory = true;

    /**
     * Ablation knob (§4): override the critic filter's tag width
     * (paper: 8-10 bits suffice). 0 keeps the Table-3 default; only
     * meaningful for filtered critics (t.gshare, f.perceptron).
     */
    unsigned filterTagBits = 0;

    /** Human-readable label, e.g.\ "8KB perceptron + 8KB t.gshare". */
    std::string label() const;

    /** Instantiate the predictor. */
    std::unique_ptr<ProphetCriticHybrid> build() const;
};

/** Prophet-alone spec helper. */
HybridSpec prophetAlone(ProphetKind kind, Budget budget);

/** Full hybrid spec helper. */
HybridSpec hybridSpec(ProphetKind prophet, Budget prophet_budget,
                      CriticKind critic, Budget critic_budget,
                      unsigned future_bits);

/**
 * Global bench scale factor from the PCBP_BENCH_SCALE environment
 * variable (parseBenchScale, read once). Applied to simulated branch
 * counts through scaleCount.
 */
double benchScale();

/**
 * Parse a PCBP_BENCH_SCALE value; null (unset) means 1. Anything but
 * a whole, finite decimal above 0 exits 1 naming the variable.
 */
double parseBenchScale(const char *value);

/**
 * The one way a branch count is scaled: std::uint64_t(@p count *
 * @p scale). A product that does not fit in 64 bits exits 1 naming
 * @p what (a sweep key, or a workload budget) and the variable.
 */
std::uint64_t scaleCount(double count, double scale, const char *what);

/** Engine configuration for a workload, with benchScale applied. */
EngineConfig engineConfigFor(const Workload &w);

/**
 * Exclusive bound on future bits: a critique waits for its bits
 * inside the accuracy engine's pipeline (EngineConfig::pipelineDepth)
 * or, with @p timing, the timing model's FTQ (TimingConfig::ftqSize),
 * so the count must be below that depth. Sweep specs and CLIs check
 * against it before any simulator asserts.
 */
unsigned futureBitsLimit(bool timing);

/** Run one workload under one spec. */
EngineStats runAccuracy(const Workload &w, const HybridSpec &spec);

/**
 * Run one workload with explicit engine configuration: the fork chain
 * of this one config (runAccuracyChain) over a program built for this
 * call, so any config is legal here, a commit sink or oracle future
 * bits included.
 */
EngineStats runAccuracy(const Workload &w, const HybridSpec &spec,
                        const EngineConfig &config);

/**
 * Run one workload with per-branch H2P profiling tapped into the
 * commit path (warmup commits excluded) and return the ranked
 * report, labeled with the workload and spec. With config.statsOut
 * set, the profiler's `h2p.*` section lands in that registry next to
 * the engine's counters; @p stats, if given, receives the run's
 * engine stats.
 */
H2PReport runH2P(const Workload &w, const HybridSpec &spec,
                 const EngineConfig &config, const H2PConfig &h2p = {},
                 EngineStats *stats = nullptr);

/** runH2P with the workload's default engine configuration. */
H2PReport runH2P(const Workload &w, const HybridSpec &spec,
                 const H2PConfig &h2p = {});

/**
 * Whether a run with @p config may share a fork chain with other
 * configs (DESIGN.md §11): it has no commit sink (a fork cannot
 * replay the tap's prefix), a warmup of at least one branch (the
 * fork's snapshot lies inside it), and no oracle future bits (the
 * oracle's lookahead cannot be forked). The sweep runner groups cells
 * with it.
 */
bool forkable(const EngineConfig &config);

/**
 * forkable() for the timing model: no commit sink, a warmup of at
 * least one branch, and timingForkable() (timing.hh).
 */
bool forkable(const TimingConfig &config);

/** Per-chain fork observability (the sweep.fork.* host stats). */
struct ChainObs
{
    /** Warmup branches the forks did not have to re-simulate. */
    std::uint64_t warmupBranchesSaved = 0;
};

/**
 * Fork chain (DESIGN.md §11), the one simulation driver: run several
 * (warmup, measure) budgets of the *same* (workload, predictor
 * recipe) as one simulation over the workload's stream (its PCBPTRC2
 * file, or else the CFG walk). Warmup length gates only which events
 * are counted — never the simulated trajectory — so the runs are
 * prefixes of one another: the longest runs once (the canonical), and
 * each shorter budget forks cloned predictor, stream and simulator
 * state at a snapshot inside its own warmup, then runs just its
 * remainder. Stats are bit-identical to one independent run per
 * config; wall clock pays each shared warmup prefix once. @p program
 * is buildProgram(@p w), read only by the canonical and every fork,
 * so one build may serve any number of chains on any threads (the
 * sweep runner builds one per workload). @p configs must agree on
 * everything except run lengths and stats plumbing; with more than
 * one, each must be forkable(). A chain of one forks nothing, so its
 * config is unrestricted. Results come back in @p configs order.
 */
std::vector<EngineStats> runAccuracyChain(
    const Workload &w, const Program &program, const HybridSpec &spec,
    const std::vector<EngineConfig> &configs, ChainObs *obs = nullptr);

/** runAccuracyChain for the timing model. */
std::vector<TimingStats> runTimingChain(
    const Workload &w, const Program &program, const HybridSpec &spec,
    const std::vector<TimingConfig> &configs, ChainObs *obs = nullptr);

/** Timing configuration for a workload, with benchScale applied. */
TimingConfig timingConfigFor(const Workload &w);

/** Run one workload through the cycle-level timing model. */
TimingStats runTiming(const Workload &w, const HybridSpec &spec);

/**
 * Run the timing model with explicit configuration: the fork chain
 * of this one config (runTimingChain) over a program built for this
 * call, so any config is legal here.
 */
TimingStats runTiming(const Workload &w, const HybridSpec &spec,
                      const TimingConfig &config);

/** Arithmetic mean of per-workload uPC. */
double meanUpc(const std::vector<TimingStats> &runs);

} // namespace pcbp

#endif // PCBP_SIM_DRIVER_HH
