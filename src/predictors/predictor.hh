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
 */

#ifndef PCBP_PREDICTORS_PREDICTOR_HH
#define PCBP_PREDICTORS_PREDICTOR_HH

#include <cstddef>
#include <memory>
#include <string>

#include "common/history_register.hh"
#include "common/types.hh"

namespace pcbp
{

class StatRegistry;

class DirectionPredictor;
class FilteredPredictor;
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

/** Result of asking a filtered critic for a critique. */
struct CritiqueResult
{
    /** False on a filter (tag) miss: implicit agreement. */
    bool provided = false;
    /** Direction prediction; meaningful only when provided. */
    bool taken = false;
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
