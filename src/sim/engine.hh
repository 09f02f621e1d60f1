/**
 * @file
 * The wrong-path-capable branch-prediction engine.
 *
 * This is the accuracy simulator (no timing): it models an in-order
 * speculative front end with a bounded number of in-flight branches.
 * The prophet runs ahead along its own predicted path through the
 * *CFG* — so, when the final prediction of a branch turns out wrong,
 * the future bits the critic consumed were genuinely produced on the
 * wrong path, exactly as §6 of the paper requires. Recovery restores
 * the checkpointed history and redirects fetch; the mispredicted
 * branch itself commits and trains the critic with its critique-time
 * BOR (§3.3).
 *
 * The speculative protocol itself — predict, gather, critique,
 * recover, commit-train — lives in the shared SpecCore
 * (sim/spec_core.hh); the engine layers the accuracy-run policy and
 * statistics on top. The committed (architectural) path arrives
 * through a CommittedStream (branch behaviors read only committed
 * state, so the correct path is provably independent of the
 * predictor, as in real hardware): by default an on-the-fly CFG
 * walk, optionally any other stream — and only a pipeline-deep
 * window of it is ever resident, so run length does not affect
 * memory.
 */

#ifndef PCBP_SIM_ENGINE_HH
#define PCBP_SIM_ENGINE_HH

#include "common/stats.hh"
#include "core/critique.hh"
#include "core/prophet_critic.hh"
#include "sim/committed_stream.hh"
#include "sim/spec_core.hh"
#include "workload/cfg.hh"

namespace pcbp
{

/** Accuracy-engine configuration. */
struct EngineConfig
{
    /** Maximum in-flight branches (models pipeline depth). */
    unsigned pipelineDepth = 24;

    /** Model the BTB of §5 (miss = fall-through, allocate at commit). */
    bool useBtb = true;
    std::size_t btbEntries = 4096;

    /**
     * Ablation: feed the critic correct-path outcomes as future bits
     * instead of the prophet's wrong-path predictions. §6 argues this
     * is oracle information a real machine does not have; the
     * ablation bench quantifies the inflation.
     */
    bool oracleFutureBits = false;

    /**
     * Optional commit-path tap (H2P analytics, differential tests):
     * receives every committed branch in commit order, warmup
     * included. Not owned; must outlive the engine.
     */
    CommitSink *commitSink = nullptr;

    /** Committed branches measured (after warmup). */
    std::uint64_t measureBranches = 250000;

    /** Committed branches of warmup before measuring. */
    std::uint64_t warmupBranches = 25000;

    /**
     * Optional stats registry: when set, the run exports its
     * counters — engine.*, core.* (spec-core protocol events),
     * stream.*, predictor.* — into it at end of run, and the spec
     * core counts protocol events as it goes (obs/probes.hh; off the
     * hot path either way). Not owned; null = no collection.
     */
    StatRegistry *statsOut = nullptr;
};

/** Counters produced by an engine run (measured window only). */
struct EngineStats
{
    std::uint64_t committedBranches = 0;
    std::uint64_t committedUops = 0;

    /** Final-prediction mispredicts == pipeline flushes. */
    std::uint64_t finalMispredicts = 0;

    /** Prophet-prediction mispredicts on committed branches. */
    std::uint64_t prophetMispredicts = 0;

    /** Committed branches that missed the BTB when fetched. */
    std::uint64_t btbMisses = 0;

    /** Explicit disagree critiques. */
    std::uint64_t criticOverrides = 0;

    /** Prophet predictions flushed from the FTQ by overrides. */
    std::uint64_t squashedPredictions = 0;

    /** Branches/uops squashed by pipeline flushes (wrong path). */
    std::uint64_t wrongPathBranches = 0;
    std::uint64_t wrongPathUops = 0;

    /** Critiques generated with fewer than the configured bits. */
    std::uint64_t partialCritiques = 0;

    /** §7.3 critique distribution. */
    CritiqueCounts critiques;

    /** Distribution of uops between pipeline flushes. */
    Histogram flushDistance{64, 512};

    double
    mispPerKuops() const
    {
        return committedUops == 0
                   ? 0.0
                   : 1000.0 * double(finalMispredicts) /
                         double(committedUops);
    }

    double
    mispRate() const
    {
        return committedBranches == 0
                   ? 0.0
                   : double(finalMispredicts) / double(committedBranches);
    }

    double
    prophetMispRate() const
    {
        return committedBranches == 0
                   ? 0.0
                   : double(prophetMispredicts) /
                         double(committedBranches);
    }

    double
    uopsPerFlush() const
    {
        return finalMispredicts == 0
                   ? double(committedUops)
                   : double(committedUops) / double(finalMispredicts);
    }
};

class Engine
{
  public:
    /**
     * @param program The CFG speculation runs through (read only;
     *        it must outlive the engine).
     * @param hybrid The predictor under test (prophet-only or full
     *        prophet/critic).
     * @param config Engine configuration.
     */
    Engine(const Program &program, ProphetCriticHybrid &hybrid,
           const EngineConfig &config);
    Engine(Program &&, ProphetCriticHybrid &, const EngineConfig &) =
        delete;

    /**
     * Fork (DESIGN.md §11): duplicate @p other's mid-run state —
     * spec core (queue, BTB, fetch pointer), commit cursor, flush
     * distance, protocol counters — onto @p hybrid, which must be a
     * clone() of @p other's at the same point, and adopt
     * @p committed, a fork of @p other's stream at that point. The
     * fork walks @p other's program.
     * @p config supplies this fork's own warmup/measure budget, stats
     * registry, and commit sink; it must agree with @p other's
     * configuration on everything that shapes simulated behavior
     * (pipeline depth, BTB; oracle mode cannot fork). The
     * fork point must still be inside this fork's warmup, so every
     * measured stat is identical to what an uninterrupted run would
     * have produced. Continue with finishRun(@p committed).
     */
    Engine(const Engine &other, ProphetCriticHybrid &hybrid,
           const EngineConfig &config, CommittedStream &committed);

    /**
     * Run the configured number of branches over a fresh walk of the
     * program (streamed, O(pipeline) memory) and return stats.
     */
    EngineStats run();

    /**
     * Run against an explicit committed stream (trace replay, tests,
     * equivalence checks). @p committed must agree with the CFG:
     * successor(block, outcome) is the next committed block. The run
     * length is the configured branch budget capped by the stream.
     */
    EngineStats run(CommittedStream &committed);

    /** @name Split-phase execution (fork-based sweeps, DESIGN.md §11)
     *
     * run(committed) == beginRun(); stepUntil(...); finishRun();.
     * The split exists so a chain runner can pause a canonical run at
     * a loop boundary (every state transition complete, commit cursor
     * exact), fork clones, and finish each: a fork is constructed in
     * place of beginRun().
     */
    /// @{

    /** Arm a run over @p committed (resets cursors and stats). */
    void beginRun(CommittedStream &committed);

    /**
     * Advance until @p commit_target branches have committed (or the
     * run ends). Stops at the top of the commit loop: exactly
     * @p commit_target commits have happened, nothing of commit
     * @p commit_target itself has. @return false once the run ended.
     */
    bool stepUntil(std::uint64_t commit_target,
                   CommittedStream &committed);

    /** Run to completion and export/return the stats. */
    EngineStats finishRun(CommittedStream &committed);

    /** Committed branches so far (the fork/snapshot cursor). */
    std::uint64_t committedSoFar() const { return commitIdx; }
    /// @}

  private:
    using Inflight = SpecRecord<EnginePayload>;

    bool critiqueAt(std::size_t idx);
    void critiqueReady();
    void resolveOldest(CommittedStream &committed);
    void exportStats(CommittedStream &committed);

    bool measuring() const { return commitIdx >= cfg.warmupBranches; }

    const Program &program;
    ProphetCriticHybrid &hybrid;
    EngineConfig cfg;
    SpecCore<EnginePayload> core;
    SpecCoreObs coreObs;

    std::uint64_t totalBranches = 0;
    std::uint64_t commitIdx = 0;
    std::uint64_t uopsSinceFlush = 0;

    EngineStats stats;
};

} // namespace pcbp

#endif // PCBP_SIM_ENGINE_HH
