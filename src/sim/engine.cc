#include "sim/engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/stat_registry.hh"

namespace pcbp
{

namespace
{

SpecCoreConfig
coreConfig(const EngineConfig &cfg)
{
    SpecCoreConfig c;
    c.useBtb = cfg.useBtb;
    c.btbEntries = cfg.btbEntries;
    c.oracleFutureBits = cfg.oracleFutureBits;
    c.commitSink = cfg.commitSink;
    return c;
}

} // namespace

Engine::Engine(const Program &program_, ProphetCriticHybrid &hybrid_,
               const EngineConfig &config)
    : program(program_), hybrid(hybrid_), cfg(config),
      core(program_, hybrid_, coreConfig(config))
{
    pcbp_assert(cfg.pipelineDepth >= 2);
    pcbp_assert(cfg.pipelineDepth > hybrid.numFutureBits(),
                "pipeline depth must exceed the future-bit count");
}

Engine::Engine(const Engine &other, ProphetCriticHybrid &hybrid_,
               const EngineConfig &config, CommittedStream &committed)
    : program(other.program), hybrid(hybrid_), cfg(config),
      core(other.core, hybrid_, config.commitSink),
      coreObs(other.coreObs), commitIdx(other.commitIdx),
      uopsSinceFlush(other.uopsSinceFlush)
{
    // Differing warmup/measure budgets (and per-fork stats/sink
    // plumbing) are the point of forking; anything that shapes the
    // simulated state trajectory must match, or the fork would not
    // be equivalent to an uninterrupted run.
    pcbp_assert(cfg.pipelineDepth == other.cfg.pipelineDepth &&
                    cfg.useBtb == other.cfg.useBtb &&
                    cfg.btbEntries == other.cfg.btbEntries &&
                    !cfg.oracleFutureBits,
                "fork configuration changes simulated behavior");
    totalBranches = std::min(cfg.warmupBranches + cfg.measureBranches,
                             committed.length());
    // Landing inside this fork's warmup is what keeps its measured
    // stats identical to an uninterrupted run: commit-side stats of
    // branch N are recorded before the commit cursor advances, but
    // flush-side stats after, so the newest branch a fork may have
    // missed is warmupBranches - 1.
    pcbp_assert(commitIdx < cfg.warmupBranches,
                "fork past the start of its measured window");
    pcbp_assert(committed.produced() <= totalBranches,
                "forked stream ahead of this fork's budget");
    core.attachObs(cfg.statsOut ? &coreObs : nullptr);
}

bool
Engine::critiqueAt(std::size_t idx)
{
    const CritiqueOutcome out = core.critique(idx);
    if (out.bitsGathered < hybrid.numFutureBits() && measuring())
        ++stats.partialCritiques;
    if (out.overrode && measuring()) {
        ++stats.criticOverrides;
        stats.squashedPredictions += out.squashed;
    }
    return out.overrode;
}

void
Engine::critiqueReady()
{
    if (!hybrid.hasCritic())
        return;
    const unsigned want = std::max(1u, hybrid.numFutureBits());

    // Issue critiques oldest-first, resuming at the core's cached
    // oldest-uncritiqued cursor instead of rescanning the pipeline.
    for (std::optional<std::size_t> idx = core.oldestUncriticized();
         idx; idx = core.nextUncritiqued(*idx + 1)) {
        if (core.futureBitsAvailable(*idx) < want)
            break; // younger branches have even fewer bits
        if (critiqueAt(*idx))
            break; // override squashed the younger entries
    }
}

void
Engine::resolveOldest(CommittedStream &committed)
{
    pcbp_assert(!core.queueEmpty());

    // §5: the consumer needs this prediction now; if the critique is
    // still pending, generate it from the future bits available.
    if (!core.front().critiqued && core.front().btbHit &&
        hybrid.hasCritic()) {
        critiqueAt(0);
    }

    // Read the record in place and drop it: the pooled slot (and this
    // reference) stays valid until the next fetchNext(), so the commit
    // never copies the checkpoint out of the arena.
    const Inflight &r = core.front();
    core.dropFront();

    const CommittedBranch *cb = committed.at(commitIdx);
    pcbp_assert(cb != nullptr, "committed stream ended mid-run");

    // Invariant: the oldest in-flight branch is on the correct path.
    pcbp_assert(r.traceIdx == commitIdx,
                "oldest branch not at the commit point");
    pcbp_assert(r.block == cb->block,
                "oldest branch diverged from the architectural path");

    const bool outcome = cb->taken;
    const bool prophet_correct =
        r.btbHit ? (r.prophetPred == outcome) : !outcome;

    // Non-speculative commit-time training (§3.2); for critiqued
    // branches this uses the critique-time BOR, wrong-path future
    // bits included (§3.3).
    core.commitTrain(r, outcome);

    const bool mispredicted = r.finalPred != outcome;

    if (measuring()) {
        ++stats.committedBranches;
        stats.committedUops += r.numUops;
        if (!r.btbHit)
            ++stats.btbMisses;
        if (r.btbHit && !prophet_correct)
            ++stats.prophetMispredicts;
        if (r.btbHit && hybrid.hasCritic() && r.decision) {
            const bool provided = r.decision->provided;
            const bool agreed =
                !provided || r.decision->finalPrediction == r.prophetPred;
            stats.critiques.record(
                classifyCritique(prophet_correct, provided, agreed));
        }
    }

    ++commitIdx;

    if (mispredicted) {
        if (measuring()) {
            ++stats.finalMispredicts;
            stats.flushDistance.sample(uopsSinceFlush);
            stats.wrongPathBranches += core.queueSize();
            for (std::size_t i = 0; i < core.queueSize(); ++i)
                stats.wrongPathUops += core.at(i).numUops;
        }
        uopsSinceFlush = 0;
        core.clearQueue();
        core.recoverAndRedirect(r, outcome);
    } else {
        uopsSinceFlush += r.numUops;
    }

    // Everything at or above commitIdx may still be read (oracle
    // lookahead); older records are dead.
    committed.release(commitIdx);
}

EngineStats
Engine::run()
{
    ProgramWalkStream stream(program,
                             cfg.warmupBranches + cfg.measureBranches);
    return run(stream);
}

EngineStats
Engine::run(CommittedStream &committed)
{
    beginRun(committed);
    return finishRun(committed);
}

void
Engine::beginRun(CommittedStream &committed)
{
    totalBranches = std::min(cfg.warmupBranches + cfg.measureBranches,
                             committed.length());

    const CommittedBranch *first = committed.at(0);
    coreObs = SpecCoreObs{};
    core.attachObs(cfg.statsOut ? &coreObs : nullptr);
    core.beginRun(cfg.oracleFutureBits ? &committed : nullptr,
                  totalBranches,
                  first ? first->block : program.entry());
    commitIdx = 0;
    uopsSinceFlush = 0;
    stats = EngineStats{};
}

bool
Engine::stepUntil(std::uint64_t commit_target,
                  CommittedStream &committed)
{
    while (commitIdx < totalBranches && commitIdx < commit_target) {
        while (core.queueSize() < cfg.pipelineDepth)
            core.fetchNext();
        critiqueReady();
        resolveOldest(committed);
    }
    return commitIdx < totalBranches;
}

EngineStats
Engine::finishRun(CommittedStream &committed)
{
    stepUntil(totalBranches, committed);

    if (cfg.statsOut)
        exportStats(committed);
    return stats;
}

void
Engine::exportStats(CommittedStream &committed)
{
    StatRegistry &reg = *cfg.statsOut;

    reg.add("engine.committed_branches", stats.committedBranches);
    reg.add("engine.committed_uops", stats.committedUops);
    reg.add("engine.final_mispredicts", stats.finalMispredicts);
    reg.add("engine.prophet_mispredicts", stats.prophetMispredicts);
    reg.add("engine.btb_misses", stats.btbMisses);
    reg.add("engine.critic_overrides", stats.criticOverrides);
    reg.add("engine.squashed_predictions", stats.squashedPredictions);
    reg.add("engine.wrong_path_branches", stats.wrongPathBranches);
    reg.add("engine.wrong_path_uops", stats.wrongPathUops);
    reg.add("engine.partial_critiques", stats.partialCritiques);
    for (std::size_t c = 0; c < numCritiqueClasses; ++c) {
        reg.add("engine.critique." +
                    critiqueClassName(static_cast<CritiqueClass>(c)),
                stats.critiques.counts[c]);
    }
    reg.hist("engine.flush_distance_uops", stats.flushDistance);

    exportFrontEndStats(reg, coreObs, committed, hybrid);
}

} // namespace pcbp
