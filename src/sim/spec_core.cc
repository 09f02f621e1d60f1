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
SpecCoreObs::exportTo([[maybe_unused]] StatRegistry &reg,
                      [[maybe_unused]] const std::string &prefix) const
{
    // No key rather than zeros, which would read as "nothing was
    // committed".
#if PCBP_OBS
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
#endif
}

template <typename Payload>
SpecCore<Payload>::SpecCore(const Program &program_,
                            ProphetCriticHybrid &hybrid_,
                            const SpecCoreConfig &config)
    : program(program_), hybrid(hybrid_), cfg(config),
      btb(config.btbEntries, config.btbWays),
      slab(kInitialSlabSize), hitBits(kInitialSlabSize / 64, 0)
{
}

template <typename Payload>
SpecCore<Payload>::SpecCore(const SpecCore &other,
                            ProphetCriticHybrid &hybrid_,
                            CommitSink *sink)
    : program(other.program), hybrid(hybrid_), cfg(other.cfg),
      btb(other.btb), slab(other.slab), floorAbs(other.floorAbs),
      headAbs(other.headAbs), tailAbs(other.tailAbs),
      firstUncritAbs(other.firstUncritAbs),
      hitsFetched(other.hitsFetched), hitBits(other.hitBits),
      fetchBlock(other.fetchBlock), specTraceIdx(other.specTraceIdx)
{
    // The oracle stream belongs to the forked-from run and cannot be
    // duplicated from here; an oracle-mode cell runs as a chain of
    // its own.
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

template class SpecCore<EnginePayload>;
template class SpecCore<FtqPayload>;

} // namespace pcbp
