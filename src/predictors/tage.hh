/**
 * @file
 * TAGE predictor (Seznec & Michaud, "A case for (partially) TAgged
 * GEometric history length branch predictors", JILP 2006): a bimodal
 * base predictor backed by several partially-tagged tables indexed
 * with geometrically increasing global history lengths.
 *
 * Prediction comes from the *provider* — the longest-history table
 * whose tag matches — with the next matching table (or the base) as
 * the *alternate*. Each tagged entry carries a signed prediction
 * counter, a tag, and a usefulness counter; allocation on a
 * mispredict claims a not-useful entry in a longer-history table,
 * and the usefulness counters age away periodically so the tables
 * keep adapting across program phases.
 *
 * This is the repro's "modern baseline" prophet ("Branch Prediction
 * Is Not a Solved Problem" measures H2P misses against exactly this
 * class of predictor); it plugs into the factory/budget machinery
 * like every other DirectionPredictor and can serve as the prophet
 * inside the prophet/critic hybrid unchanged.
 */

#ifndef PCBP_PREDICTORS_TAGE_HH
#define PCBP_PREDICTORS_TAGE_HH

#include <vector>

#include "common/sat_counter.hh"
#include "predictors/predictor.hh"
#include "predictors/simd.hh"

namespace pcbp
{

/** One tagged component table's geometry. */
struct TageTableConfig
{
    std::size_t entries = 1024; //!< power of two
    unsigned tagBits = 8;
    unsigned historyLength = 8; //!< global history bits folded in
};

/** Whole-predictor geometry. */
struct TageConfig
{
    /** Bimodal base table entries (2-bit counters); power of two. */
    std::size_t baseEntries = 4096;

    /** Tagged tables, shortest history first (strictly increasing). */
    std::vector<TageTableConfig> tables;

    /** Width of the tagged-entry prediction counters. */
    static constexpr unsigned counterBits = 3;

    /** Width of the per-entry usefulness counters. */
    static constexpr unsigned usefulBits = 2;

    /**
     * Updates between usefulness-aging events; every period the
     * usefulness counters are halved so stale entries become
     * reclaimable. 0 disables aging.
     */
    std::uint64_t usefulResetPeriod = 1u << 18;
};

/**
 * The per-bank (index, tag) hashes of one stream of TAGE calls: the
 * predict stream or the update stream (DESIGN.md §6). A keyed commit
 * reuses the coordinates its predict left in the PredictKey, so only
 * unkeyed updates feed the update stream.
 *
 * A bank hashes the PC with three folds of its history: to the index
 * width, to the tag width, and to the tag width - 1. The PC half
 * folds mix64(pc >> 2) once per width; folding is linear over XOR,
 * so the bank salt in the index hash is folded once, here. The
 * history half keeps the folds as folded registers (Seznec &
 * Michaud), every bank's three as lanes of one simd::TageLanes: a
 * call whose history is the last call's shifted by one bit steps
 * them all at once, an equal history reuses them, and any other
 * history (a flush or a repair jumped) refolds them with
 * HistoryRegister::foldedLow. The check compares every history bit a
 * bank reads, so each result is the same pure function of the call's
 * own (pc, history) as the naive fold; the cache only saves work.
 * The lanes hold up to eight banks that share one table size and one
 * tag width, every fold 2..16 bits wide (every factory geometry); the
 * constructor asserts it.
 */
class TageFolds
{
  public:
    explicit TageFolds(const std::vector<TageTableConfig> &tables);

    /**
     * Hashes of (@p pc, @p hist) for every bank, shortest history
     * first; the array stays valid until the next call.
     */
    const TableCoord *hash(Addr pc, const HistoryRegister &hist);

    /** Forget the last history: the next call refolds. */
    void invalidate() { valid = false; }

  private:
    void refold(const HistoryRegister &hist);

    simd::TageLanes lanes;
    /** What the hash kernel writes: one slot per lane bank. */
    alignas(64) TableCoord coords[simd::TageLanes::maxBanks];
    simd::TageStepFn stepLanes = nullptr;
    simd::TageHashFn hashLanes = nullptr;

    std::vector<unsigned> lengths; //!< each bank's history length
    unsigned indexBits = 0;
    unsigned tagBits = 0;

    /** Low maxHistory bits of the last history, split by word. */
    std::uint64_t mask0 = 0;
    std::uint64_t mask1 = 0;
    std::uint64_t last0 = 0;
    std::uint64_t last1 = 0;
    bool valid = false;
};

class Tage final : public DirectionPredictor
{
  public:
    explicit Tage(const TageConfig &config);

    bool predict(Addr pc, const HistoryRegister &hist) override;
    void update(Addr pc, const HistoryRegister &hist, bool taken) override;
    bool predictKeyed(Addr pc, const HistoryRegister &hist,
                      PredictKey &key) override;
    void updateKeyed(Addr pc, const HistoryRegister &hist, bool taken,
                     const PredictKey &key) override;
    void reset() override;

    DirectionPredictorPtr clone() const override
    {
        return std::make_unique<Tage>(*this);
    }
    std::size_t sizeBits() const override;
    unsigned historyLength() const override { return maxHistory; }
    std::string name() const override;

    /** Geometry plus per-bank provider mix and allocation churn. */
    void exportStats(StatRegistry &reg,
                     const std::string &prefix) const override;

    /** Number of tagged component tables (tests/reporting). */
    std::size_t numTables() const { return tables.size(); }

  private:
    /**
     * One tagged component in structure-of-arrays form (DESIGN.md
     * §12): the lookup walk touches tags only until a match, so a
     * row probe costs a 2-byte load instead of dragging the whole
     * {ctr, tag, useful} struct through the cache.
     */
    struct Table
    {
        TageTableConfig cfg;
        unsigned indexBits = 0;
        SatCounterTable ctrs;            //!< prediction counters
        std::vector<std::uint16_t> tags; //!< tagBits <= 16
        SatCounterTable useful;          //!< replacement victim filter
    };

    /** Provider/alternate lookup shared by predict() and update(). */
    struct Match
    {
        int provider = -1;  //!< table index, -1 = base
        int alternate = -1; //!< next-longest hit, -1 = base
        bool providerPred = false;
        bool alternatePred = false;
        bool prediction = false; //!< final (after use-alt-on-weak)
        /** Provider entry looked weakly/newly allocated. */
        bool providerWeak = false;
    };

    std::size_t baseIndex(Addr pc) const;
    /**
     * Fill @p m, a default Match, from @p h: one coordinate per tagged
     * bank, shortest history first. Filled in place, every field is
     * read back at the width it was written; a returned Match goes
     * through the stack as narrow stores reloaded as one wide word,
     * which cannot be store-forwarded.
     */
    void lookup(Addr pc, const TableCoord *h, Match &m) const;
    void updateAt(Addr pc, const TableCoord *h, bool taken);
    void agePeriodically();

    SatCounterTable base;
    std::vector<Table> tables;
    TageConfig cfg;
    unsigned baseIndexBits;
    unsigned maxHistory = 0;

    /**
     * One fold cache per call stream. Consecutive predicts see the
     * speculative history shifted by one bit, and consecutive
     * commits the committed one, so each stream steps in O(1). A
     * keyed commit reuses its predict's coordinates and never hashes,
     * so the update stream serves unkeyed update() calls only (and
     * keyed ones whose predict left no key).
     */
    TageFolds predictFolds;
    TageFolds updateFolds;

    /** Every bank's coordinates fit in a PredictKey. */
    bool carriesKey = false;

    /**
     * USE_ALT_ON_NA (Seznec): when newly-allocated provider entries
     * have been less accurate than the alternate lately, trust the
     * alternate for weak providers. Single global 4-bit counter.
     */
    SatCounter useAltOnWeak{4, 8};

    std::uint64_t updates = 0;
    /** Updates left until the next aging; 0 when aging is off. */
    std::uint64_t updatesToAging = 0;

    /**
     * Update-path bookkeeping (once per commit — cold next to the
     * predict path, so these stay on unconditionally). All pure
     * functions of the call sequence; exported by exportStats().
     */
    std::vector<std::uint64_t> providerCommits; //!< per tagged table
    std::uint64_t baseCommits = 0;   //!< base was the provider
    std::uint64_t altOnWeakUses = 0; //!< weak provider, alt trusted
    std::uint64_t allocations = 0;   //!< new tagged entries claimed
    std::uint64_t allocFailures = 0; //!< every candidate useful: decay
    std::uint64_t agings = 0;        //!< usefulness halving events
};

} // namespace pcbp

#endif // PCBP_PREDICTORS_TAGE_HH
