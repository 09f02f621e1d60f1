/**
 * @file
 * Abstract interfaces for branch direction predictors.
 *
 * Two kinds of components exist in a prophet/critic hybrid:
 *
 * - DirectionPredictor: a conventional history-based predictor. It
 *   is stateless with respect to history: the caller (the hybrid or
 *   the simulator driver) owns the branch history register and
 *   passes it in, which centralizes speculative update and
 *   checkpoint/repair exactly as the paper describes (§3.2, §3.3).
 *
 * - FilteredPredictor: a critic-side predictor that may decline to
 *   provide a critique (tag miss in its filter, §4). Its history
 *   input is the branch outcome register (BOR), which contains both
 *   history and future bits.
 *
 * Ownership and lifetime: predictors are built by the factories
 * (makeProphet / makeCritic) as unique_ptrs and owned by exactly one
 * ProphetCriticHybrid (or test); they hold no references to the
 * caller's state — the HistoryRegister is passed into every call and
 * never retained. Instances are not thread-safe and are never
 * shared: parallel layers (driver sets, the sweep runner) build one
 * predictor per run from the spec instead.
 *
 * Determinism contract: predict/update/critique/train are pure
 * functions of (construction parameters, call sequence). No
 * predictor may read clocks, RNGs, or global state, which is what
 * lets golden tests pin exact counts and the sweep/report layers
 * promise byte-identical results for any execution order.
 *
 * Keyed calls (DESIGN.md §4): the hybrid trains at commit with the
 * same (pc, history) its predict or critique used, so it hashes each
 * branch once. predictKeyed() leaves the table coordinates it hashed
 * in a PredictKey that rides in the branch's checkpoint, and
 * updateKeyed() reuses them; critique() returns the filter's
 * coordinates in its CritiqueResult, and trainKeyed() reuses those.
 * Keys carry coordinates only, never table contents, because the
 * tables change between predict and commit. A keyed call behaves
 * exactly as its unkeyed twin. The base-class keyed calls forward to
 * the unkeyed ones, so a decorator that overrides only predict /
 * update / train (the benchmark's timing probes) still sees every
 * call; every class in src/ overrides the keyed pair directly.
 */

#ifndef PCBP_PREDICTORS_PREDICTOR_HH
#define PCBP_PREDICTORS_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/history_register.hh"
#include "common/types.hh"

namespace pcbp
{

class StatRegistry;

class DirectionPredictor;
class FilteredPredictor;

/** One table coordinate: a row index, and its tag where tagged. */
struct TableCoord
{
    std::uint32_t idx = 0;
    std::uint32_t tag = 0;
};

/**
 * The table coordinates one predict hashed, carried to the commit of
 * the same branch (BranchContext). Each prophet defines its slots:
 * gshare, bimodal and perceptron use coord[0]; 2Bc-gskew its four
 * bank indexes; TAGE one (idx, tag) per tagged bank.
 */
struct PredictKey
{
    /** Slots: the tagged banks of the largest factory TAGE. */
    static constexpr unsigned capacity = 6;

    /** False: no predict filled the key; commit hashes afresh. */
    bool valid = false;
    TableCoord coord[capacity];
};

/** A filtered critic's (set, tag) for one (pc, BOR). */
struct FilterKey
{
    std::uint32_t set = 0;
    std::uint16_t tag = 0;
};

using DirectionPredictorPtr = std::unique_ptr<DirectionPredictor>;
using FilteredPredictorPtr = std::unique_ptr<FilteredPredictor>;

/**
 * Interface for conventional direction predictors (prophets and
 * unfiltered critics).
 */
class DirectionPredictor
{
  public:
    virtual ~DirectionPredictor() = default;

    /**
     * Predict the direction of the branch at @p pc.
     *
     * @param pc Branch address.
     * @param hist History context (BHR for prophets; BOR for
     *        unfiltered critics).
     * @return true for taken.
     */
    virtual bool predict(Addr pc, const HistoryRegister &hist) = 0;

    /**
     * Train the pattern tables with the resolved outcome. Called
     * non-speculatively at commit with the same history context that
     * produced the prediction (§3.2).
     */
    virtual void update(Addr pc, const HistoryRegister &hist,
                        bool taken) = 0;

    /**
     * predict(), also filling @p key with the coordinates it hashed.
     * @p key arrives invalid; an implementation with nothing to carry
     * leaves it so.
     */
    virtual bool
    predictKeyed(Addr pc, const HistoryRegister &hist, PredictKey &key)
    {
        (void)key;
        return predict(pc, hist);
    }

    /**
     * update() for a branch whose predictKeyed() filled @p key with
     * this same (pc, hist); an invalid key means hash afresh.
     */
    virtual void
    updateKeyed(Addr pc, const HistoryRegister &hist, bool taken,
                const PredictKey &key)
    {
        (void)key;
        update(pc, hist, taken);
    }

    /** Clear all prediction state. */
    virtual void reset() = 0;

    /**
     * Deep copy, trained state included: the clone's future
     * predict/update sequence behaves exactly as this predictor's
     * would, with no aliasing between the two. This is the snapshot
     * seam behind fork-based sweep execution (DESIGN.md §11); the
     * determinism contract above is what makes a clone equivalent to
     * replaying the call sequence.
     */
    virtual DirectionPredictorPtr clone() const = 0;

    /** Storage cost in bits (counts counters, weights, tags, LRU). */
    virtual std::size_t sizeBits() const = 0;

    /** Number of history bits this predictor reads. */
    virtual unsigned historyLength() const = 0;

    /** Human-readable name, e.g.\ "gshare-8KB". */
    virtual std::string name() const = 0;

    /**
     * Export predictor statistics into @p reg's sim section under
     * `prefix.*`. The base implementation reports geometry
     * (size_bits, history_bits); predictors with interesting
     * internal counters (TAGE allocation churn, say) extend it.
     * Exported values must stay pure functions of the call sequence
     * — no clocks — so dumps remain deterministic.
     */
    virtual void exportStats(StatRegistry &reg,
                             const std::string &prefix) const;

    /** Storage cost in bytes, rounded up. */
    std::size_t sizeBytes() const { return (sizeBits() + 7) / 8; }
};

/**
 * Result of asking a filtered critic for a critique: eight bytes, the
 * filter coordinates laid out flat, so a critic builds it in the one
 * register it is returned in. A nested FilterKey would make it twelve
 * bytes, which GCC builds with narrow stores and reloads as a wide
 * word, a load that cannot be store-forwarded.
 */
struct CritiqueResult
{
    /** The filter coordinates the critique hashed (trainKeyed). */
    std::uint32_t set = 0;
    std::uint16_t tag = 0;
    /** False on a filter (tag) miss: implicit agreement. */
    bool provided = false;
    /** Direction prediction; meaningful only when provided. */
    bool taken = false;

    FilterKey key() const { return {set, tag}; }
};

/**
 * Interface for critic-side predictors with a built-in filter.
 */
class FilteredPredictor
{
  public:
    virtual ~FilteredPredictor() = default;

    /**
     * Query the critic. A tag miss yields provided = false, meaning
     * the critic implicitly agrees with the prophet.
     */
    virtual CritiqueResult critique(Addr pc,
                                    const HistoryRegister &bor) = 0;

    /**
     * Commit-time training (§3.2, §4). Trains the prediction
     * structures on a filter hit; allocates a new filter entry when
     * the branch missed the filter and the final prediction was
     * wrong.
     *
     * @param pc Branch address.
     * @param bor The BOR value used when the critique was made.
     * @param taken Resolved direction of the branch.
     * @param mispredicted True when the final prediction was wrong.
     */
    virtual void train(Addr pc, const HistoryRegister &bor, bool taken,
                       bool mispredicted) = 0;

    /**
     * train() reusing @p key, the CritiqueResult::key of this
     * object's critique() of the same (pc, bor).
     */
    virtual void
    trainKeyed(Addr pc, const HistoryRegister &bor, bool taken,
               bool mispredicted, const FilterKey &key)
    {
        (void)key;
        train(pc, bor, taken, mispredicted);
    }

    /** Clear all state. */
    virtual void reset() = 0;

    /** As DirectionPredictor::clone(): deep copy, trained state
     *  and filter entries included. */
    virtual FilteredPredictorPtr clone() const = 0;

    /** Storage cost in bits. */
    virtual std::size_t sizeBits() const = 0;

    /** Number of BOR bits this critic reads (history + future). */
    virtual unsigned borBits() const = 0;

    /** Human-readable name. */
    virtual std::string name() const = 0;

    /** As DirectionPredictor::exportStats (size_bits, bor_bits). */
    virtual void exportStats(StatRegistry &reg,
                             const std::string &prefix) const;

    std::size_t sizeBytes() const { return (sizeBits() + 7) / 8; }
};

} // namespace pcbp

#endif // PCBP_PREDICTORS_PREDICTOR_HH
