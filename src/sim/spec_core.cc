#include "sim/spec_core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/probes.hh"
#include "obs/stat_registry.hh"

namespace pcbp
{

namespace
{

/** Initial checkpoint-arena capacity (grows on demand, stays 2^n). */
constexpr std::size_t kInitialSlabSize = 64;

} // namespace

void
SpecCoreObs::exportTo(StatRegistry &reg,
                      const std::string &prefix) const
{
    reg.add(prefix + ".fetches", fetches);
    reg.add(prefix + ".btb_hits", btbHits);
    reg.add(prefix + ".btb_allocs", btbAllocs);
    reg.add(prefix + ".critiques", critiques);
    reg.add(prefix + ".overrides", overrides);
    reg.add(prefix + ".squashed", squashed);
    reg.add(prefix + ".recoveries", recoveries);
    reg.add(prefix + ".commits", commits);
    reg.add(prefix + ".future_bits_gathered", fbGathered);
    reg.add(prefix + ".partial_gathers", partialGathers);
    reg.add(prefix + ".slab_growths", slabGrowths);
    reg.setMax(prefix + ".queue_peak", queuePeak);
}

template <typename Payload>
SpecCore<Payload>::SpecCore(Program &program_,
                            ProphetCriticHybrid &hybrid_,
                            const SpecCoreConfig &config)
    : program(program_), hybrid(hybrid_), cfg(config),
      btb(config.btbEntries, config.btbWays),
      slab(kInitialSlabSize), hitBits(kInitialSlabSize / 64, 0)
{
}

template <typename Payload>
SpecCore<Payload>::SpecCore(const SpecCore &other, Program &program_,
                            ProphetCriticHybrid &hybrid_,
                            CommitSink *sink)
    : program(program_), hybrid(hybrid_), cfg(other.cfg),
      btb(other.btb), slab(other.slab), floorAbs(other.floorAbs),
      headAbs(other.headAbs), tailAbs(other.tailAbs),
      firstUncritAbs(other.firstUncritAbs),
      hitsFetched(other.hitsFetched), hitBits(other.hitBits),
      fetchBlock(other.fetchBlock), specTraceIdx(other.specTraceIdx)
{
    // The oracle stream belongs to the forked-from run and cannot be
    // duplicated from here; oracle-mode cells take the replay path.
    pcbp_assert(!cfg.oracleFutureBits && other.oracle == nullptr,
                "cannot fork an oracle-future-bits core");
    cfg.commitSink = sink;
}

template <typename Payload>
void
SpecCore<Payload>::beginRun(CommittedStream *oracle_,
                            std::uint64_t oracle_limit,
                            BlockId start_block)
{
    pcbp_assert(!cfg.oracleFutureBits || oracle_ != nullptr,
                "oracle future bits need a committed stream");
    oracle = oracle_;
    oracleLimit = oracle_limit;
    fetchBlock = start_block;
    specTraceIdx = 0;
    floorAbs = 0;
    headAbs = 0;
    tailAbs = 0;
    firstUncritAbs = 0;
    hitsFetched = 0;
    // Not strictly required — gathers never read ordinals >=
    // hitsFetched — but a clean ring keeps forked/reused cores
    // bit-for-bit comparable in memory dumps.
    std::fill(hitBits.begin(), hitBits.end(), 0);
}

template <typename Payload>
void
SpecCore<Payload>::growSlab()
{
    // Re-linearize the window and the live queue into a doubled
    // slab; absolute indices keep their meaning because the new size
    // is still a power of two and every live record lands at the
    // slot its absolute index selects.
    pcbp_obs_inc(obs, slabGrowths);
    std::vector<Record> bigger(slab.size() * 2);
    for (std::size_t abs = floorAbs; abs != tailAbs; ++abs) {
        bigger[abs & (bigger.size() - 1)] =
            std::move(slab[abs & (slab.size() - 1)]);
    }
    slab = std::move(bigger);

    // The hit-bit ring is addressed mod the slab size, so every live
    // bit moves: rebuild it from the queued records' own (hitsCum -
    // 1, prophetPred) pairs. Gathers start at queued records, so the
    // window's bits are dead.
    hitBits.assign(slab.size() / 64, 0);
    for (std::size_t abs = headAbs; abs != tailAbs; ++abs) {
        const Record &r = rec(abs);
        if (r.btbHit)
            setHitBit(r.hitsCum - 1, r.prophetPred);
    }
}

template <typename Payload>
typename SpecCore<Payload>::Record &
SpecCore<Payload>::fetchNext()
{
    if (tailAbs - floorAbs == slab.size())
        growSlab();

    const BasicBlock &b = program.block(fetchBlock);

    // Reuse the pooled slot in place: no construction, no allocation.
    Record &r = rec(tailAbs);
    r.block = fetchBlock;
    r.pc = b.branchPc;
    r.numUops = b.numUops;
    r.traceIdx = specTraceIdx++;
    r.btbHit = !cfg.useBtb || btb.lookup(r.pc);
    r.critiqued = false;
    r.decision.reset();
    r.payload = Payload{};

    if (r.btbHit) {
        r.prophetPred = hybrid.predictBranch(r.pc, r.ctx);
        r.finalPred = r.prophetPred;
    } else {
        // The front end does not see the branch: implicit
        // fall-through, no history insertion, no critique. Keep a
        // checkpoint of the (unmodified) registers for repair.
        r.prophetPred = false;
        r.finalPred = false;
        r.critiqued = true;
        r.ctx.bhrBefore = hybrid.bhr();
        r.ctx.borBefore = hybrid.bor();
    }

    if (r.btbHit)
        setHitBit(hitsFetched, r.prophetPred);
    hitsFetched += r.btbHit ? 1 : 0;
    r.hitsCum = hitsFetched;

    fetchBlock = program.successor(fetchBlock, r.finalPred);
    ++tailAbs;

    pcbp_obs_inc(obs, fetches);
    pcbp_obs_add(obs, btbHits, r.btbHit ? 1 : 0);
    pcbp_obs_max(obs, queuePeak, tailAbs - headAbs);
    return r;
}

template <typename Payload>
unsigned
SpecCore<Payload>::futureBitsAvailable(std::size_t idx) const
{
    const unsigned want = std::max(1u, hybrid.numFutureBits());
    if (hybrid.numFutureBits() == 0)
        return want;
    // 1 (the entry's own prediction) + the BTB-hitting fetches
    // younger than it, saturated at the requirement — a counter
    // difference instead of a queue walk.
    const std::uint64_t younger_hits =
        hitsFetched - rec(headAbs + idx).hitsCum;
    const std::uint64_t avail = 1 + younger_hits;
    return avail >= want ? want : static_cast<unsigned>(avail);
}

template <typename Payload>
CritiqueOutcome
SpecCore<Payload>::critique(std::size_t idx)
{
    Record &r = rec(headAbs + idx);
    pcbp_dassert(!r.critiqued && r.btbHit);

    const unsigned want = hybrid.numFutureBits();
    fbScratch.clear();
    if (want > 0) {
        if (cfg.oracleFutureBits) {
            // Ablation (§6): correct-path outcomes as future bits.
            // Only meaningful for correct-path branches; wrong-path
            // records are squashed before their critique matters.
            for (std::uint64_t t = r.traceIdx;
                 fbScratch.size() < want && t < oracleLimit; ++t) {
                const CommittedBranch *cb = oracle->at(t);
                if (!cb)
                    break;
                fbScratch.push(cb->taken);
            }
            if (fbScratch.empty())
                fbScratch.push(r.prophetPred);
        } else {
            // Real mode: the prophet's predictions for this branch
            // and the (BTB-identified) branches fetched after it,
            // oldest first. The hit-bit ring already holds exactly
            // those bits contiguously by hit ordinal, so the gather
            // is a two-word window read instead of a queue walk.
            const std::uint64_t start = r.hitsCum - 1;
            const unsigned count = static_cast<unsigned>(
                std::min<std::uint64_t>(want,
                                        hitsFetched - start));
            fbScratch.assign(readHitBits(start), count);
        }
    }

    CritiqueDecision d =
        hybrid.critiqueBranch(r.pc, r.ctx, r.prophetPred, fbScratch);
    r.critiqued = true;
    r.finalPred = d.finalPrediction;

    CritiqueOutcome out;
    out.overrode = d.overrode;
    out.bitsGathered = fbScratch.size();
    r.decision = std::move(d);

    pcbp_obs_inc(obs, critiques);
    pcbp_obs_add(obs, fbGathered, out.bitsGathered);
    pcbp_obs_add(obs, partialGathers,
                 (want > 0 && out.bitsGathered < want) ? 1 : 0);

    if (out.overrode) {
        out.squashed = queueSize() - idx - 1;
        pcbp_obs_inc(obs, overrides);
        pcbp_obs_add(obs, squashed, out.squashed);
#if !defined(NDEBUG) || defined(PCBP_FORCE_DASSERT)
        // Queue-only flush: every younger prediction is uncritiqued
        // (critiques are issued oldest-first), so the flush is
        // confined to the queue (§5).
        for (std::size_t j = idx + 1; j < queueSize(); ++j) {
            const Record &y = rec(headAbs + j);
            pcbp_assert(!y.btbHit || !y.critiqued);
        }
#endif
        tailAbs = headAbs + idx + 1;
        hitsFetched = r.hitsCum;
        if (firstUncritAbs > tailAbs)
            firstUncritAbs = tailAbs;
        hybrid.overrideRedirect(r.ctx, r.finalPred);
        fetchBlock = program.successor(r.block, r.finalPred);
        specTraceIdx = r.traceIdx + 1;
    }
    return out;
}

template <typename Payload>
void
SpecCore<Payload>::recoverAndRedirect(const Record &r, bool outcome)
{
    pcbp_obs_inc(obs, recoveries);
    hybrid.recoverMispredict(r.ctx, outcome);
    fetchBlock = program.successor(r.block, outcome);
    specTraceIdx = r.traceIdx + 1;
}

template <typename Payload>
void
SpecCore<Payload>::commitTrain(const Record &r, bool outcome)
{
    pcbp_obs_inc(obs, commits);
    hybrid.commitBranch(r.pc, r.ctx, r.decision, outcome);
    if (cfg.useBtb && !r.btbHit) {
        btb.allocate(r.pc);
        pcbp_obs_inc(obs, btbAllocs);
    }
    if (cfg.commitSink) {
        CommitEvent e;
        e.index = r.traceIdx;
        e.block = r.block;
        e.pc = r.pc;
        e.numUops = r.numUops;
        e.btbHit = r.btbHit;
        e.prophetPred = r.prophetPred;
        e.finalPred = r.finalPred;
        e.critiqueProvided = r.decision && r.decision->provided;
        e.criticOverrode = r.decision && r.decision->overrode;
        e.outcome = outcome;
        cfg.commitSink->onCommit(e);
    }
}

template <typename Payload>
typename SpecCore<Payload>::Record &
SpecCore<Payload>::front()
{
    pcbp_dassert(!queueEmpty());
    return rec(headAbs);
}

template <typename Payload>
std::optional<std::size_t>
SpecCore<Payload>::oldestUncriticized() const
{
    while (firstUncritAbs < tailAbs && rec(firstUncritAbs).critiqued)
        ++firstUncritAbs;
    if (firstUncritAbs == tailAbs)
        return std::nullopt;
    return firstUncritAbs - headAbs;
}

template <typename Payload>
std::optional<std::size_t>
SpecCore<Payload>::nextUncritiqued(std::size_t from) const
{
    for (std::size_t i = from; i < queueSize(); ++i)
        if (!rec(headAbs + i).critiqued)
            return i;
    return std::nullopt;
}

template class SpecCore<EnginePayload>;
template class SpecCore<FtqPayload>;

} // namespace pcbp
