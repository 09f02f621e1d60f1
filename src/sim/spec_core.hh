/**
 * @file
 * The shared speculative front end (spec core).
 *
 * Both simulators — the wrong-path accuracy Engine and the
 * cycle-level TimingSim — model the same §3/§5 protocol around the
 * prophet/critic hybrid:
 *
 *   checkpointed predict  -> the prophet predicts a fetch block (or
 *                            the BTB misses and fetch falls through),
 *                            speculation advances down the CFG;
 *   future-bit gather     -> a branch's critique consumes the
 *                            prophet's predictions for it and the
 *                            (BTB-identified) branches after it;
 *   critique / override   -> a disagree critique flushes every
 *                            younger queued prediction and redirects
 *                            the prophet down the other path;
 *   resolve / recover     -> a resolved mispredict repairs the
 *                            checkpointed BHR/BOR and redirects;
 *   commit-train          -> the committed branch trains prophet and
 *                            critic (critique-time BOR, §3.3) and
 *                            allocates its BTB entry.
 *
 * SpecCore owns that protocol once: the speculation queue of
 * in-flight SpecRecords (the Engine's whole pipeline, the
 * TimingSim's FTQ), the BTB, the speculative fetch pointer, and a
 * reusable future-bit scratch buffer so the hot critique path does
 * no heap allocation. The queue is a power-of-two ring-buffer arena:
 * records — each carrying its checkpoint, the two registers plus the
 * table coordinates the prophet's predict hashed for the commit-time
 * update to reuse — live in a slab that is allocated once and reused
 * in place, so pushing, popping, and override-flushing a branch are
 * index arithmetic under a mask, never allocation (the slab only
 * grows, rarely, when a caller exceeds its previous high-water
 * window-plus-queue depth).
 * Each record also carries a running count of BTB-hitting fetches,
 * which turns the per-critique "how many future bits could I gather"
 * question from a queue walk into a subtraction. The ring can also
 * keep consumed records behind the queue head as an instruction
 * window (the TimingSim's), released in order at retire. What
 * differs per simulator — when to fetch, when the critic gets
 * bandwidth, when a record leaves the queue and when it retires, and
 * which cycles anything costs — is caller policy layered on these
 * primitives. Per-model state rides along in the Payload type
 * parameter. The methods that run per fetch, critique and commit are
 * defined in this header, so they compile in line into the
 * simulators' loops. See DESIGN.md §4.
 *
 * Ownership and lifetime: a SpecCore borrows everything it is
 * constructed over — the Program (read only, so any number of cores
 * on any threads may share one), the ProphetCriticHybrid, and the
 * optional CommitSink are owned by the caller and must outlive the
 * core; the core owns only its queue, BTB tables, and scratch
 * buffers. One core drives one simulation on one thread.
 *
 * Determinism contract: given the same program, predictor state, and
 * call sequence, every SpecCore operation is bit-reproducible — no
 * clocks, RNG draws, or allocation-dependent behavior on the
 * protocol path. Commit events fire strictly in commit order
 * (warmup included; consumers filter), which is what the
 * differential tests and the sweep/report byte-determinism
 * guarantees are built on.
 */

#ifndef PCBP_SIM_SPEC_CORE_HH
#define PCBP_SIM_SPEC_CORE_HH

#include <algorithm>
#include <optional>
#include <vector>

#include "common/future_bits.hh"
#include "common/logging.hh"
#include "core/prophet_critic.hh"
#include "obs/probes.hh"
#include "sim/btb.hh"
#include "sim/committed_stream.hh"
#include "workload/cfg.hh"

namespace pcbp
{

class StatRegistry;

/**
 * Plain counter slab for one SpecCore, owned by the simulator that
 * owns the core and attached via attachObs(). Probes on the hot
 * fetch/critique/commit paths increment these through the
 * `pcbp_obs_*` macros (obs/probes.hh): a null-checked plain-member
 * increment by default, stripped entirely under `-DPCBP_OBS=0`.
 * Everything here is a pure function of the simulated work, so the
 * counters land in the stats registry's deterministic sim section.
 */
struct SpecCoreObs
{
    std::uint64_t fetches = 0;        //!< fetchNext() calls
    std::uint64_t btbHits = 0;        //!< fetches that hit the BTB
    std::uint64_t btbAllocs = 0;      //!< commit-time BTB allocations
    std::uint64_t critiques = 0;      //!< critique() calls
    std::uint64_t overrides = 0;      //!< disagree critiques
    std::uint64_t squashed = 0;       //!< queue records override-flushed
    std::uint64_t recoveries = 0;     //!< resolved-mispredict repairs
    std::uint64_t commits = 0;        //!< commitTrain() calls
    std::uint64_t fbGathered = 0;     //!< future bits consumed, total
    std::uint64_t partialGathers = 0; //!< critiques short of the want
    std::uint64_t slabGrowths = 0;    //!< checkpoint-arena doublings
    std::uint64_t queuePeak = 0;      //!< max queue depth observed

    /**
     * Accumulate into @p reg's sim section under `prefix.*`; a no-op
     * under `-DPCBP_OBS=0`, where no probe feeds these counters.
     */
    void exportTo(StatRegistry &reg, const std::string &prefix) const;
};

/**
 * One in-flight speculated branch, shared by both simulators; the
 * payload carries per-model extras (nothing for the accuracy engine,
 * consumption and retirement state for the timing model).
 */
template <typename Payload>
struct SpecRecord
{
    BlockId block = invalidBlock;
    Addr pc = 0;
    std::uint32_t numUops = 0;
    std::uint64_t traceIdx = 0;
    bool btbHit = true;
    bool prophetPred = false;
    bool finalPred = false;
    bool critiqued = false;
    std::optional<CritiqueDecision> decision;
    BranchContext ctx;
    Payload payload{};

    /**
     * Running count of BTB-hitting fetches up to and including this
     * record (arena-internal): the future bits gatherable behind
     * queue entry i are a difference of two of these counters
     * instead of a walk over the younger entries.
     */
    std::uint64_t hitsCum = 0;
};

/** The accuracy engine needs nothing beyond the shared record. */
struct EnginePayload
{
};

/** Timing-model extras: cache consumption, then retirement. */
struct FtqPayload
{
    /**
     * In the FTQ, the uops the cache has not consumed yet; once the
     * record is consumed into the window, the uops not retired yet.
     */
    std::uint32_t uopsLeft = 0;
    /** Cycle a consumed record's branch can resolve. */
    Cycle readyCycle = 0;
};

/**
 * One committed branch, as observed at the commit-train point — the
 * shared tap both simulators feed. Everything downstream of commit
 * (H2P analytics, differential tests) consumes these events instead
 * of poking simulator internals.
 */
struct CommitEvent
{
    /** Commit-order position (== the committed stream index). */
    std::uint64_t index = 0;
    BlockId block = invalidBlock;
    Addr pc = 0;
    std::uint32_t numUops = 0;
    bool btbHit = true;
    /** The prophet's prediction (false on a BTB miss: fall-through). */
    bool prophetPred = false;
    /** Final prediction after any critique. */
    bool finalPred = false;
    /** The critic provided an explicit critique for this branch. */
    bool critiqueProvided = false;
    /** The critique overrode the prophet. */
    bool criticOverrode = false;
    /** Architectural outcome. */
    bool outcome = false;
};

/** Receiver of commit events (per-branch analytics, test probes). */
class CommitSink
{
  public:
    virtual ~CommitSink() = default;

    /** Called once per committed branch, in commit order. */
    virtual void onCommit(const CommitEvent &e) = 0;
};

/** Spec-core configuration (the sim-config subset it implements). */
struct SpecCoreConfig
{
    /** Model the BTB of §5 (miss = fall-through, allocate at commit). */
    bool useBtb = true;
    std::size_t btbEntries = 4096;
    unsigned btbWays = 4;

    /**
     * Ablation (§6): feed critiques correct-path outcomes from the
     * committed stream instead of the prophet's wrong-path
     * predictions. Requires an oracle stream in beginRun().
     */
    bool oracleFutureBits = false;

    /**
     * Optional tap on the commit path: commitTrain() reports every
     * committed branch here, in commit order. Not owned; must
     * outlive the core. Null = no reporting.
     */
    CommitSink *commitSink = nullptr;
};

/** What one critique did, for the caller's stats/timing policy. */
struct CritiqueOutcome
{
    /** The critic overrode; younger queue entries were squashed. */
    bool overrode = false;

    /** Queue records flushed by the override. */
    std::size_t squashed = 0;

    /** Future bits the critique actually consumed. */
    unsigned bitsGathered = 0;
};

template <typename Payload>
class SpecCore
{
  public:
    using Record = SpecRecord<Payload>;

    SpecCore(const Program &program, ProphetCriticHybrid &hybrid,
             const SpecCoreConfig &config);

    /**
     * Fork (DESIGN.md §11): duplicate @p other's mid-run state — the
     * queue slab with every checkpoint, BTB, fetch pointer, cursors —
     * onto a caller-supplied clone of its hybrid. The fork walks
     * @p other's program and borrows @p hybrid exactly as the primary
     * constructor does. The commit sink is NOT inherited (@p sink
     * replaces it; forks report to their own consumer or to none),
     * nor is the observability slab (attachObs per fork). An oracle
     * stream cannot be duplicated here, so forking an oracle-mode
     * core is refused.
     */
    SpecCore(const SpecCore &other, ProphetCriticHybrid &hybrid,
             CommitSink *sink);

    /**
     * Arm the core for a run: clear the queue and point speculative
     * fetch at @p start_block. @p oracle (with records below
     * @p oracle_limit readable) is required iff oracleFutureBits is
     * configured. The BTB deliberately persists across runs, as it
     * always has.
     */
    void beginRun(CommittedStream *oracle, std::uint64_t oracle_limit,
                  BlockId start_block);

    /**
     * Fetch the next speculative block: BTB lookup, checkpointed
     * prophet prediction (or implicit fall-through on a BTB miss),
     * advance fetch down the predicted edge, append to the queue.
     * The caller enforces its own queue bound before calling.
     *
     * @return The queued record (valid until the queue changes), so
     *         callers can fill in payload fields.
     */
    Record &fetchNext();

    /**
     * Future bits obtainable for queue entry @p idx right now: its
     * own prediction plus the predictions of younger BTB-hit entries
     * (saturating at the configured requirement; always "enough"
     * when no future bits are configured).
     */
    unsigned futureBitsAvailable(std::size_t idx) const;

    /**
     * Critique queue entry @p idx with whatever future bits are
     * gathered (fewer than configured is legal, §5). On a disagree
     * critique, flushes every younger queue entry, repairs the
     * speculative registers, and redirects fetch down the critic's
     * edge. Stats and stall cycles are the caller's business.
     */
    CritiqueOutcome critique(std::size_t idx);

    /**
     * Resolved-mispredict recovery (§3.3): repair the speculative
     * registers from @p r's checkpoint with the architectural
     * @p outcome and redirect fetch down the correct edge. The
     * caller squashes first (clearQueue(), or truncateAfter() when
     * the mispredicted record sits in the window).
     */
    void recoverAndRedirect(const Record &r, bool outcome);

    /**
     * Commit-time training (§3.2/§3.3): non-speculative prophet and
     * critic update, plus BTB allocation if the branch missed.
     */
    void commitTrain(const Record &r, bool outcome);

    /** @name The speculation queue (engine pipeline / timing FTQ).
     *
     * A power-of-two ring over a slab of pooled records (the
     * checkpoint arena): every operation below is mask arithmetic,
     * and references stay valid until the next fetchNext() (which
     * may, rarely, grow the slab).
     */
    /// @{
    bool queueEmpty() const { return headAbs == tailAbs; }
    std::size_t queueSize() const { return tailAbs - headAbs; }
    Record &at(std::size_t i) { return rec(headAbs + i); }
    const Record &at(std::size_t i) const { return rec(headAbs + i); }
    Record &front();

    /**
     * Drop the oldest record, releasing its slot at once (the
     * caller keeps no window). The slot, and any front() reference
     * to it, stays valid until the next fetchNext(): the commit path
     * reads the record in place and then drops it, so no commit
     * copies the checkpoint out of the arena.
     */
    void
    dropFront()
    {
        pcbp_dassert(floorAbs == headAbs);
        consumeFront();
        releaseOldest();
    }

    /**
     * Index of the oldest uncritiqued entry, if any. Amortized O(1):
     * a cached cursor advances monotonically until the next flush.
     */
    std::optional<std::size_t> oldestUncriticized() const;

    /**
     * Index of the first uncritiqued entry at or after @p from
     * (critique-issue scans resume here after critiquing an entry).
     */
    std::optional<std::size_t> nextUncritiqued(std::size_t from) const;

    /** Drop everything queued (pipeline flush); the window stays. */
    void
    clearQueue()
    {
        tailAbs = headAbs;
        firstUncritAbs = headAbs;
    }
    /// @}

    /** @name The instruction window (the TimingSim's).
     *
     * Consumed records stay in the ring, between the floor and the
     * queue head, until they retire: [floor, head) is the window,
     * oldest first, and [head, tail) is the queue. The window needs
     * no copies and no second container; a caller that keeps none
     * uses dropFront(), which holds floor == head.
     */
    /// @{
    std::size_t windowDepth() const { return headAbs - floorAbs; }
    Record &windowAt(std::size_t i) { return rec(floorAbs + i); }

    /** Move the oldest queued record into the window (consumed). */
    void
    consumeFront()
    {
        pcbp_dassert(!queueEmpty());
        ++headAbs;
        if (firstUncritAbs < headAbs)
            firstUncritAbs = headAbs;
    }

    /** Release the oldest window record (retired). */
    void
    releaseOldest()
    {
        pcbp_dassert(floorAbs != headAbs);
        ++floorAbs;
    }

    /**
     * Squash everything younger than window record @p i — the rest
     * of the window and the whole queue — in one step, as a resolved
     * mispredict at @p i does.
     */
    void
    truncateAfter(std::size_t i)
    {
        pcbp_dassert(i < windowDepth());
        headAbs = tailAbs = floorAbs + i + 1;
        firstUncritAbs = tailAbs;
    }
    /// @}

    /** Next speculative trace index (diagnostics/tests). */
    std::uint64_t specIndex() const { return specTraceIdx; }

    /**
     * Attach an observability counter slab (caller-owned, may be
     * null to detach). Counting is presentation only — attached or
     * not, simulated behavior is identical.
     */
    void attachObs(SpecCoreObs *o) { obs = o; }

  private:
    const Program &program;
    ProphetCriticHybrid &hybrid;
    SpecCoreConfig cfg;
    Btb btb;

    /**
     * The checkpoint arena: a power-of-two slab addressed by
     * absolute record indices under a mask. floorAbs..headAbs are
     * the window, headAbs..tailAbs the live queue; flushes pull
     * tailAbs (and, for a window squash, headAbs) back, which
     * re-pools the flushed slots in place.
     */
    std::vector<Record> slab;
    std::size_t floorAbs = 0;
    std::size_t headAbs = 0;
    std::size_t tailAbs = 0;

    /** Cached oldest-uncritiqued cursor (absolute; advances lazily). */
    mutable std::size_t firstUncritAbs = 0;

    /** BTB-hitting fetches ever appended (hitsCum baseline). */
    std::uint64_t hitsFetched = 0;

    /**
     * The hit-bit ring: bit (h mod slab.size()) holds the prophet's
     * prediction for the h-th BTB-hitting fetch (h = hitsCum - 1 of
     * the record that produced it). The future-bit gather for a
     * critique is then a two-word window read starting at the
     * critiqued record's own hit ordinal — already in oldest-first
     * FutureBits order — instead of a walk over the younger queue
     * records. Ordinals needed by any gather span at most
     * queueSize() <= slab.size() consecutive values, so live bits
     * never collide mod the ring size; squashes need no cleanup
     * because reclaimed ordinals are rewritten at the next fetch.
     */
    std::vector<std::uint64_t> hitBits;

    CommittedStream *oracle = nullptr;
    std::uint64_t oracleLimit = 0;
    BlockId fetchBlock = 0;
    std::uint64_t specTraceIdx = 0;

    /** Reusable gather buffer: no allocation on the critique path. */
    FutureBits fbScratch;

    /** Observability counters; null (the default) = not counting. */
    SpecCoreObs *obs = nullptr;

    Record &rec(std::size_t abs) { return slab[abs & (slab.size() - 1)]; }
    const Record &
    rec(std::size_t abs) const
    {
        return slab[abs & (slab.size() - 1)];
    }

    /** Record hit ordinal @p ord's prediction in the hit-bit ring. */
    void
    setHitBit(std::uint64_t ord, bool pred)
    {
        const std::size_t pos = ord & (slab.size() - 1);
        const std::uint64_t m = std::uint64_t(1) << (pos & 63);
        if (pred)
            hitBits[pos >> 6] |= m;
        else
            hitBits[pos >> 6] &= ~m;
    }

    /**
     * Read up to 64 ring bits starting at hit ordinal @p start_ord,
     * oldest first in bit 0. Bits past the caller's count are
     * garbage; the caller masks (FutureBits::assign).
     */
    std::uint64_t
    readHitBits(std::uint64_t start_ord) const
    {
        const std::size_t pos = start_ord & (slab.size() - 1);
        const std::size_t wi = pos >> 6;
        const unsigned off = pos & 63;
        std::uint64_t v = hitBits[wi] >> off;
        if (off != 0) {
            v |= hitBits[(wi + 1) & (hitBits.size() - 1)]
                 << (64 - off);
        }
        return v;
    }

    /** Double the slab (record order preserved); stays power-of-two. */
    void growSlab();
};

template <typename Payload>
inline typename SpecCore<Payload>::Record &
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
        // No predict hashed this checkpoint: the slot's key is a
        // previous record's, so commit must hash afresh.
        r.ctx.key.valid = false;
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
inline unsigned
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
inline CritiqueOutcome
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
inline void
SpecCore<Payload>::recoverAndRedirect(const Record &r, bool outcome)
{
    pcbp_obs_inc(obs, recoveries);
    hybrid.recoverMispredict(r.ctx, outcome);
    fetchBlock = program.successor(r.block, outcome);
    specTraceIdx = r.traceIdx + 1;
}

template <typename Payload>
inline void
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
inline typename SpecCore<Payload>::Record &
SpecCore<Payload>::front()
{
    pcbp_dassert(!queueEmpty());
    return rec(headAbs);
}

template <typename Payload>
inline std::optional<std::size_t>
SpecCore<Payload>::oldestUncriticized() const
{
    while (firstUncritAbs < tailAbs && rec(firstUncritAbs).critiqued)
        ++firstUncritAbs;
    if (firstUncritAbs == tailAbs)
        return std::nullopt;
    return firstUncritAbs - headAbs;
}

template <typename Payload>
inline std::optional<std::size_t>
SpecCore<Payload>::nextUncritiqued(std::size_t from) const
{
    for (std::size_t i = from; i < queueSize(); ++i)
        if (!rec(headAbs + i).critiqued)
            return i;
    return std::nullopt;
}

extern template class SpecCore<EnginePayload>;
extern template class SpecCore<FtqPayload>;

} // namespace pcbp

#endif // PCBP_SIM_SPEC_CORE_HH
