#include "sim/timing.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/stat_registry.hh"

namespace pcbp
{

namespace
{

SpecCoreConfig
coreConfig(const TimingConfig &cfg)
{
    SpecCoreConfig c;
    c.useBtb = cfg.useBtb;
    c.btbEntries = cfg.btbEntries;
    c.commitSink = cfg.commitSink;
    return c;
}

} // namespace

TimingSim::TimingSim(const Program &program_,
                     ProphetCriticHybrid &hybrid_,
                     const TimingConfig &config)
    : program(program_), hybrid(hybrid_), cfg(config),
      core(program_, hybrid_, coreConfig(config))
{
    pcbp_assert(cfg.retireWidth >= 1);
    pcbp_assert(cfg.ftqSize > hybrid.numFutureBits(),
                "FTQ must be deeper than the future-bit count");
}

TimingSim::TimingSim(const TimingSim &other, ProphetCriticHybrid &hybrid_,
                     const TimingConfig &config, CommittedStream &committed)
    : program(other.program), hybrid(hybrid_), cfg(config),
      core(other.core, hybrid_, config.commitSink),
      coreObs(other.coreObs), windowUops(other.windowUops),
      firstUnresolved(other.firstUnresolved),
      resolveIdx(other.resolveIdx), commitIdx(other.commitIdx),
      now(other.now),
      prophetStalledUntil(other.prophetStalledUntil),
      cacheStalledUntil(other.cacheStalledUntil),
      measureStartCycle(other.measureStartCycle)
{
    // Differing warmup/measure budgets (and per-fork stats/sink
    // plumbing) are the point of forking; anything that shapes the
    // simulated trajectory must match, or the fork would not be
    // equivalent to an uninterrupted run.
    pcbp_assert(cfg.ftqSize == other.cfg.ftqSize &&
                    cfg.retireWidth == other.cfg.retireWidth &&
                    cfg.useBtb == other.cfg.useBtb &&
                    cfg.btbEntries == other.cfg.btbEntries,
                "fork configuration changes simulated behavior");
    totalBranches = std::min(cfg.warmupBranches + cfg.measureBranches,
                             committed.length());
    // Every measured counter gates on measuring(), and the measured
    // clock starts the cycle commitIdx reaches warmupBranches —
    // neither has fired while the snapshot is still inside warmup, so
    // the fork reproduces an uninterrupted run's stats exactly.
    pcbp_assert(commitIdx < cfg.warmupBranches,
                "fork past the start of its measured window");
    pcbp_assert(timingForkable(cfg),
                "forked a run whose budget does not cover the window");
    pcbp_assert(committed.produced() <= totalBranches,
                "forked stream ahead of this fork's budget");
    core.attachObs(cfg.statsOut ? &coreObs : nullptr);
}

void
TimingSim::critiqueFtqEntry(std::size_t idx, bool partial)
{
    const CritiqueOutcome out = core.critique(idx);
    if (partial && out.bitsGathered < hybrid.numFutureBits() &&
        measuring()) {
        ++stats.partialCritiques;
    }
    if (out.overrode) {
        if (measuring()) {
            ++stats.criticOverrides;
            stats.ftqEntriesFlushedByCritic += out.squashed;
        }
        prophetStalledUntil = now + cfg.redirectPenalty;
    }
}

void
TimingSim::flushPipeline(std::size_t mispredicted, bool outcome)
{
    // Squash everything younger than the mispredicted branch (window
    // index @p mispredicted): the tail of the window, plus the whole
    // FTQ (consumed-but-unretired uops were fetched down the wrong
    // path).
    std::uint64_t squashed_uops = 0;
    for (std::size_t i = mispredicted + 1; i < core.windowDepth(); ++i)
        squashed_uops += core.windowAt(i).numUops;
    windowUops -= squashed_uops;
    for (std::size_t i = 0; i < core.queueSize(); ++i) {
        const FtqRecord &e = core.at(i);
        squashed_uops += e.numUops - e.payload.uopsLeft;
    }
    core.truncateAfter(mispredicted);

    if (measuring())
        stats.wrongPathFetchedUops += squashed_uops;

    core.recoverAndRedirect(core.windowAt(mispredicted), outcome);
    prophetStalledUntil = now + cfg.redirectPenalty;
    cacheStalledUntil = now + cfg.frontEndRefill;
}

void
TimingSim::stepResolve(CommittedStream &committed)
{
    while (firstUnresolved < core.windowDepth()) {
        const FtqRecord &r = core.windowAt(firstUnresolved);
        if (r.payload.readyCycle > now)
            break; // in-order: younger blocks are not ready either
        if (r.traceIdx >= totalBranches)
            break; // speculative past the end of the run
        const CommittedBranch *cb = committed.at(r.traceIdx);
        pcbp_assert(cb != nullptr, "committed stream ended mid-run");
        pcbp_assert(r.traceIdx == resolveIdx,
                    "resolution diverged from the architectural path");
        pcbp_assert(r.block == cb->block);
        const bool outcome = cb->taken;
        ++resolveIdx;
        const std::size_t idx = firstUnresolved++;
        if (r.finalPred != outcome) {
            if (measuring())
                ++stats.finalMispredicts;
            flushPipeline(idx, outcome);
            break; // everything younger is gone
        }
    }
}

void
TimingSim::stepRetire(CommittedStream &committed)
{
    unsigned budget = cfg.retireWidth;
    while (budget > 0 && firstUnresolved > 0 &&
           commitIdx < totalBranches) {
        FtqRecord &r = core.windowAt(0);
        const std::uint32_t chunk =
            std::min<std::uint32_t>(budget, r.payload.uopsLeft);
        r.payload.uopsLeft -= chunk;
        budget -= chunk;
        if (measuring()) {
            stats.committedUops += chunk;
        }
        if (r.payload.uopsLeft > 0)
            break;

        // Whole block retired: the branch commits.
        pcbp_assert(r.traceIdx == commitIdx);
        const CommittedBranch *cb = committed.at(commitIdx);
        pcbp_assert(cb != nullptr, "committed stream ended mid-run");
        core.commitTrain(r, cb->taken);
        if (measuring())
            ++stats.committedBranches;
        ++commitIdx;
        if (commitIdx == cfg.warmupBranches)
            measureStartCycle = now;
        windowUops -= r.numUops;
        core.releaseOldest();
        --firstUnresolved;
        committed.release(commitIdx);
    }
}

void
TimingSim::stepCritic()
{
    if (!hybrid.hasCritic())
        return;
    for (unsigned i = 0; i < cfg.criticBw; ++i) {
        const auto idx = core.oldestUncriticized();
        if (!idx)
            return;
        const unsigned want = std::max(1u, hybrid.numFutureBits());
        if (core.futureBitsAvailable(*idx) < want)
            return; // wait for the prophet to run further ahead
        critiqueFtqEntry(*idx, false);
    }
}

void
TimingSim::stepFetch()
{
    unsigned budget = cfg.fetchWidth;
    if (now < cacheStalledUntil)
        return;
    if (core.queueEmpty()) {
        if (measuring())
            ++stats.ftqEmptyCycles;
        return;
    }
    while (budget > 0 && !core.queueEmpty()) {
        FtqRecord &e = core.front();
        if (windowUops + e.numUops > cfg.windowSize)
            break; // window full
        if (!e.critiqued && e.btbHit && hybrid.hasCritic()) {
            // §5: the cache requires this prediction before the
            // critique gathered all its future bits.
            critiqueFtqEntry(0, true);
        }
        FtqRecord &h = core.front(); // critique may have flushed others
        const std::uint32_t chunk =
            std::min<std::uint32_t>(budget, h.payload.uopsLeft);
        h.payload.uopsLeft -= chunk;
        budget -= chunk;
        if (measuring())
            stats.fetchedUops += chunk;
        if (h.payload.uopsLeft > 0)
            break;

        // Consumed whole: the record enters the window, where
        // uopsLeft counts the uops still to retire.
        h.payload.uopsLeft = h.numUops;
        h.payload.readyCycle = now + cfg.resolveDepth;
        windowUops += h.numUops;
        core.consumeFront();
    }
}

void
TimingSim::stepProphet()
{
    if (now < prophetStalledUntil)
        return;
    for (unsigned i = 0; i < cfg.prophetBw; ++i) {
        if (core.queueSize() >= cfg.ftqSize)
            return; // FTQ full
        FtqRecord &e = core.fetchNext();
        e.payload.uopsLeft = e.numUops;
    }
}

TimingStats
TimingSim::run()
{
    ProgramWalkStream stream(program,
                             cfg.warmupBranches + cfg.measureBranches);
    return run(stream);
}

TimingStats
TimingSim::run(CommittedStream &committed)
{
    beginRun(committed);
    return finishRun(committed);
}

void
TimingSim::beginRun(CommittedStream &committed)
{
    totalBranches = std::min(cfg.warmupBranches + cfg.measureBranches,
                             committed.length());

    const CommittedBranch *first = committed.at(0);
    coreObs = SpecCoreObs{};
    core.attachObs(cfg.statsOut ? &coreObs : nullptr);
    core.beginRun(nullptr, 0,
                  first ? first->block : program.entry());
    resolveIdx = 0;
    commitIdx = 0;
    now = 0;
    prophetStalledUntil = 0;
    cacheStalledUntil = 0;
    windowUops = 0;
    firstUnresolved = 0;
    stats = TimingStats{};
    measureStartCycle = 0;
}

bool
TimingSim::stepUntil(std::uint64_t commit_target,
                     CommittedStream &committed)
{
    while (commitIdx < totalBranches && commitIdx < commit_target) {
        stepResolve(committed);
        stepRetire(committed);
        stepCritic();
        stepFetch();
        stepProphet();
        ++now;
    }
    return commitIdx < totalBranches;
}

TimingStats
TimingSim::finishRun(CommittedStream &committed)
{
    stepUntil(totalBranches, committed);

    // A stream that ends inside warmup never opens the measured
    // window: its cycles were all warmup.
    stats.cycles = measuring() ? now - measureStartCycle : 0;
    if (cfg.statsOut)
        exportStats(committed);
    return stats;
}

void
TimingSim::exportStats(CommittedStream &committed)
{
    StatRegistry &reg = *cfg.statsOut;

    reg.add("timing.cycles", stats.cycles);
    reg.add("timing.committed_uops", stats.committedUops);
    reg.add("timing.committed_branches", stats.committedBranches);
    reg.add("timing.final_mispredicts", stats.finalMispredicts);
    reg.add("timing.fetched_uops", stats.fetchedUops);
    reg.add("timing.wrong_path_fetched_uops",
            stats.wrongPathFetchedUops);
    reg.add("timing.critic_overrides", stats.criticOverrides);
    reg.add("timing.ftq_flushed_by_critic",
            stats.ftqEntriesFlushedByCritic);
    reg.add("timing.partial_critiques", stats.partialCritiques);
    reg.add("timing.ftq_empty_cycles", stats.ftqEmptyCycles);

    exportFrontEndStats(reg, coreObs, committed, hybrid);
}

} // namespace pcbp
