/**
 * @file
 * Cycle-level decoupled front-end + simplified back-end timing model
 * (§5 implementation, Table 2 parameters).
 *
 * Front end: the prophet produces up to 2 predictions/cycle into a
 * 32-entry FTQ; the critic critiques 1 prediction/cycle (oldest
 * uncriticized first) once its future bits are available, flushing
 * uncriticized FTQ entries and redirecting the prophet on a
 * disagreement; the cache consumes 6 uops/cycle from criticized head
 * entries (forcing a partial critique when it reaches an
 * uncriticized one, as §5 describes).
 *
 * The speculative protocol (checkpointed predict, future-bit gather,
 * critique/override, recover, commit-train) is the shared SpecCore
 * (sim/spec_core.hh); the FTQ is its speculation queue, bounded by
 * ftqSize here, and the instruction window is the consumed records
 * the core's ring keeps behind the FTQ head. This file adds only the
 * clock: bandwidths, the window bound, and resolve/retire latency.
 * The committed path arrives through a CommittedStream with a
 * pipeline-bounded resident window, so run length does not affect
 * memory.
 *
 * Back end: consumed blocks enter a 2048-uop window; every uop
 * becomes ready resolveDepth (30) cycles after it is fetched
 * (modeling the Pentium 4-derived pipeline depth); retirement is
 * in-order at 6 uops/cycle; a branch resolves when ready, and a
 * final-prediction mispredict flushes everything younger plus the
 * whole FTQ.
 *
 * Simplifications versus the paper's simulator (documented in
 * DESIGN.md §2): ideal caches and no data-dependence stalls, so
 * absolute uPC is higher than the paper's, but the branch-mispredict
 * exposure that drives the uPC deltas of Figs. 9-10 is modeled
 * directly.
 */

#ifndef PCBP_SIM_TIMING_HH
#define PCBP_SIM_TIMING_HH

#include "core/prophet_critic.hh"
#include "sim/committed_stream.hh"
#include "sim/spec_core.hh"
#include "workload/cfg.hh"

namespace pcbp
{

/**
 * Timing-model configuration (defaults from Table 2, doubled P4).
 * The Table 2 parameters no experiment varies are constants.
 */
struct TimingConfig
{
    std::size_t ftqSize = 32;
    static constexpr unsigned fetchWidth = 6; //!< FTQ uops read/cycle
    unsigned retireWidth = 6;                 //!< uops retired/cycle
    static constexpr unsigned prophetBw = 2;  //!< predictions/cycle
    static constexpr unsigned criticBw = 1;   //!< critiques/cycle
    static constexpr unsigned resolveDepth = 30; //!< fetch to resolve
    static constexpr std::size_t windowSize = 2048; //!< window (uops)
    static constexpr unsigned redirectPenalty = 1;  //!< restart cycles
    /**
     * Cycles after a pipeline flush before the cache consumes again,
     * modeling front-end refill depth. Gives the critic time to
     * critique the FTQ head after a restart, as in a real pipeline.
     */
    static constexpr unsigned frontEndRefill = 12;

    bool useBtb = true;
    std::size_t btbEntries = 4096;

    /**
     * Optional commit-path tap (H2P analytics, differential tests):
     * receives every committed branch in commit order, warmup
     * included. Not owned; must outlive the simulator.
     */
    CommitSink *commitSink = nullptr;

    std::uint64_t measureBranches = 100000;
    std::uint64_t warmupBranches = 10000;

    /**
     * Optional stats registry: when set, the run exports timing.*,
     * core.*, stream.* and predictor.* counters into it at end of
     * run (see EngineConfig::statsOut). Not owned; null = off.
     */
    StatRegistry *statsOut = nullptr;
};

/** Counters from a timing run (measured window only). */
struct TimingStats
{
    Cycle cycles = 0;
    std::uint64_t committedUops = 0;
    std::uint64_t committedBranches = 0;
    std::uint64_t finalMispredicts = 0;

    /** Uops consumed by the cache, correct and wrong path. */
    std::uint64_t fetchedUops = 0;

    /** Fetched uops later squashed by a pipeline flush. */
    std::uint64_t wrongPathFetchedUops = 0;

    std::uint64_t criticOverrides = 0;
    std::uint64_t ftqEntriesFlushedByCritic = 0;
    std::uint64_t partialCritiques = 0;

    /** Cycles the cache wanted a prediction but the FTQ was empty. */
    std::uint64_t ftqEmptyCycles = 0;

    double
    upc() const
    {
        return cycles == 0 ? 0.0
                           : double(committedUops) / double(cycles);
    }

    double
    uopsPerFlush() const
    {
        return finalMispredicts == 0
                   ? double(committedUops)
                   : double(committedUops) / double(finalMispredicts);
    }
};

class TimingSim
{
  public:
    /** @p program is read only and must outlive the model. */
    TimingSim(const Program &program, ProphetCriticHybrid &hybrid,
              const TimingConfig &config);
    TimingSim(Program &&, ProphetCriticHybrid &, const TimingConfig &) =
        delete;

    /**
     * Fork (DESIGN.md §11): duplicate @p other's mid-run state — FTQ
     * and BTB (via the spec core), instruction window, clock, stall
     * deadlines, cursors — onto @p hybrid, which must be a clone() of
     * @p other's at the same point, and adopt @p committed, a fork of
     * @p other's stream at that point. The fork walks @p other's
     * program.
     * @p config supplies this fork's own warmup/measure budget, stats
     * registry, and commit sink; everything it sets that shapes
     * simulated behavior (FTQ size, retire width, BTB) must match
     * @p other's. The fork point must still be inside this
     * fork's warmup, and its budget must satisfy timingForkable().
     * Continue with finishRun(@p committed).
     */
    TimingSim(const TimingSim &other, ProphetCriticHybrid &hybrid,
              const TimingConfig &config, CommittedStream &committed);

    /** Run over a fresh walk of the program (streamed). */
    TimingStats run();

    /** Run against an explicit committed stream (trace replay). */
    TimingStats run(CommittedStream &committed);

    /** @name Split-phase execution (fork-based sweeps, DESIGN.md §11)
     *
     * run(committed) == beginRun(); stepUntil(...); finishRun();.
     * Pauses land on cycle boundaries, so a stop is "at least N
     * commits" rather than exactly N: up to retireWidth branches can
     * commit per cycle, and the chain runner accounts for that margin
     * when it picks snapshot targets. A fork is constructed in place
     * of beginRun().
     */
    /// @{

    /** Arm a run over @p committed (resets clock, cursors, stats). */
    void beginRun(CommittedStream &committed);

    /**
     * Advance whole cycles until at least @p commit_target branches
     * have committed (or the run ends). Stops at a cycle boundary
     * with committedSoFar() in [commit_target,
     * commit_target + retireWidth - 1]. @return false once the run
     * ended.
     */
    bool stepUntil(std::uint64_t commit_target,
                   CommittedStream &committed);

    /** Run to completion and export/return the stats. */
    TimingStats finishRun(CommittedStream &committed);

    /** Committed branches so far (the fork/snapshot cursor). */
    std::uint64_t committedSoFar() const { return commitIdx; }
    /// @}

  private:
    using FtqRecord = SpecRecord<FtqPayload>;

    void stepResolve(CommittedStream &committed);
    void stepRetire(CommittedStream &committed);
    void stepCritic();
    void stepFetch();
    void stepProphet();

    void critiqueFtqEntry(std::size_t idx, bool partial);
    void flushPipeline(std::size_t mispredicted, bool outcome);
    void exportStats(CommittedStream &committed);

    bool measuring() const { return commitIdx >= cfg.warmupBranches; }

    const Program &program;
    ProphetCriticHybrid &hybrid;
    TimingConfig cfg;
    SpecCore<FtqPayload> core;
    SpecCoreObs coreObs;

    /** Uops in the window (the core's consumed, unretired records). */
    std::size_t windowUops = 0;
    /**
     * Window index of the oldest unresolved record: resolution is in
     * order, so every record before it is resolved and waits to
     * retire.
     */
    std::size_t firstUnresolved = 0;

    std::uint64_t resolveIdx = 0; //!< next trace index to resolve
    std::uint64_t commitIdx = 0;  //!< next trace index to retire
    Cycle now = 0;
    Cycle prophetStalledUntil = 0;
    Cycle cacheStalledUntil = 0;
    std::uint64_t totalBranches = 0;

    TimingStats stats;
    Cycle measureStartCycle = 0;
};

/**
 * Whether a timing cell with this budget may be forked mid-run
 * (DESIGN.md §11). stepResolve stops at speculative blocks past the
 * run's branch budget, so a short-budget run can diverge from a
 * longer canonical one while the instruction window is still inside
 * warmup lookahead; covering the window depth (>= 1 uop per block)
 * plus one retire burst makes the trajectories provably identical up
 * to any in-warmup snapshot. A short-measure cell runs as a chain
 * of its own.
 */
inline bool
timingForkable(const TimingConfig &cfg)
{
    return cfg.measureBranches >= cfg.windowSize + cfg.retireWidth;
}

} // namespace pcbp

#endif // PCBP_SIM_TIMING_HH
