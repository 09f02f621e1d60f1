/**
 * @file
 * The prophet/critic hybrid conditional branch predictor — the
 * paper's primary contribution.
 *
 * The hybrid owns the live speculative history, one register that
 * is both the prophet's BHR and the critic's BOR (core/bor.hh), and
 * exposes the hardware events of §3 and §5:
 *
 * - predictBranch(): the prophet predicts a branch; its prediction
 *   is speculatively shifted into the history (§3.2), and the caller
 *   receives a checkpoint (§3.3).
 * - checkpoint(): the same checkpoint without a predict, for a
 *   branch the BTB misses.
 * - critiqueBranch(): once the caller has gathered the required
 *   future bits (the prophet's predictions for the branch and those
 *   after it), the critic produces its critique from the
 *   checkpointed history with those bits appended (the BOR view).
 * - overrideRedirect(): on a disagree critique, the speculative
 *   history is repaired to the checkpoint and the critic's final
 *   prediction is inserted; the caller redirects the prophet down
 *   the other path.
 * - recoverMispredict(): on a resolved mispredict, same repair but
 *   with the architectural outcome.
 * - commitBranch(): non-speculative pattern-table update for the
 *   prophet and critic training with the critique-time BOR value —
 *   including its wrong-path future bits (§3.3).
 *
 * Predict, critique and commit run once or more per simulated branch,
 * so they are defined below the class and compile in line into the
 * simulators. They always make the keyed calls (predictor.hh): the
 * prophet's coordinates ride in the checkpoint and the filter's in
 * the CritiqueDecision, so commit reuses what predict and critique
 * hashed.
 */

#ifndef PCBP_CORE_PROPHET_CRITIC_HH
#define PCBP_CORE_PROPHET_CRITIC_HH

#include <algorithm>
#include <optional>
#include <string>

#include "common/future_bits.hh"
#include "common/logging.hh"
#include "core/bor.hh"
#include "core/critique.hh"
#include "predictors/predictor.hh"

namespace pcbp
{

/** Configuration of the hybrid's critique stage. */
struct HybridConfig
{
    /**
     * Future bits per critique, counting the branch's own prophet
     * prediction as the first bit (Fig. 4). Zero reduces the hybrid
     * to a conventional overriding predictor: the critic sees only
     * history.
     */
    unsigned numFutureBits = 8;

    /**
     * §3.2: update the history speculatively at prediction time
     * (the paper's design, and what prior work shows is needed).
     * When false — an ablation — the history advances only at
     * commit, so predictions see stale history.
     */
    bool speculativeHistoryUpdate = true;

    /**
     * §3.3: repair the history from the checkpoint on a mispredict.
     * When false — an ablation — recovery only redirects fetch and
     * the polluted history bits stay.
     */
    bool repairHistory = true;
};

/** What the critic said about one prophet prediction. */
struct CritiqueDecision
{
    /** The critic provided an explicit critique (filter hit). */
    bool provided = false;
    /** Final prediction for the branch. */
    bool finalPrediction = false;
    /** provided && final != prophet's prediction. */
    bool overrode = false;
    /** The BOR value the critique read; needed for commit training. */
    HistoryRegister borAtCritique;
    /** The filter coordinates the critique hashed from it. */
    FilterKey filterKey;
};

class ProphetCriticHybrid
{
  public:
    /**
     * @param prophet Conventional predictor playing the prophet.
     * @param critic Critic-side predictor (filtered or wrapped
     *        unfiltered); may be null for a prophet-only predictor.
     * @param config Critique-stage configuration.
     */
    ProphetCriticHybrid(DirectionPredictorPtr prophet,
                        FilteredPredictorPtr critic, HybridConfig config);

    /**
     * The prophet predicts the branch at @p pc. Checkpoints the
     * speculative history into @p ctx, then shifts the prediction
     * into it.
     *
     * @return The prophet's prediction.
     */
    bool predictBranch(Addr pc, BranchContext &ctx);

    /**
     * Checkpoint the speculative history into @p ctx without a
     * predict (a BTB miss): the key is invalid, so commit hashes
     * afresh, and the history is unchanged.
     */
    void
    checkpoint(BranchContext &ctx) const
    {
        ctx.histBefore = liveHist;
        ctx.key.valid = false;
    }

    /**
     * Produce the critique for a branch previously predicted with
     * context @p ctx, into @p d: a default CritiqueDecision, where
     * the caller keeps it (the simulators' in-flight record), so the
     * decision is built in place rather than copied there.
     *
     * @param pc Branch address.
     * @param ctx Checkpoint returned by predictBranch.
     * @param prophet_pred The prophet's prediction for this branch
     *        (the fallback final prediction on a filter miss).
     * @param future_bits The future bits gathered for the branch,
     *        oldest first — normally the prophet's predictions for
     *        this branch and the ones after it (so future_bits[0] ==
     *        prophet_pred), but ablations may feed other bit
     *        streams. The caller supplies however many it has
     *        gathered (§5 allows critiquing with fewer bits when the
     *        cache is waiting); empty when numFutureBits == 0.
     * @param d Receives the critique decision; when no critic is
     *        configured, the final prediction is the prophet's.
     */
    void critiqueBranch(Addr pc, const BranchContext &ctx,
                        bool prophet_pred, const FutureBits &future_bits,
                        CritiqueDecision &d);

    /**
     * Critic override (§5): repair the history to the checkpoint and
     * insert the critic's final prediction. The caller must squash
     * every younger prediction.
     */
    void overrideRedirect(const BranchContext &ctx, bool final_prediction);

    /**
     * Mispredict recovery (§3.3): repair the history to the
     * checkpoint and insert the resolved outcome.
     */
    void recoverMispredict(const BranchContext &ctx, bool outcome);

    /**
     * Commit-time, non-speculative update (§3.2, §3.3).
     *
     * @param pc Branch address.
     * @param ctx The branch's checkpoint (prophet updates with its
     *        prediction-time history).
     * @param decision The critique decision, if the branch was
     *        critiqued before it resolved.
     * @param outcome Architectural direction of the branch.
     */
    void commitBranch(Addr pc, const BranchContext &ctx,
                      const std::optional<CritiqueDecision> &decision,
                      bool outcome);

    /**
     * Deep copy: prophet and critic cloned (trained state included),
     * live history copied. The clone's future event sequence
     * behaves exactly as this hybrid's would — the snapshot seam of
     * fork-based sweep execution (DESIGN.md §11).
     */
    std::unique_ptr<ProphetCriticHybrid> clone() const;

    /** Combined storage of prophet + critic. */
    std::size_t sizeBits() const;
    std::size_t sizeBytes() const { return (sizeBits() + 7) / 8; }

    std::string name() const;

    bool hasCritic() const { return critic != nullptr; }
    unsigned numFutureBits() const { return cfg.numFutureBits; }

    /**
     * Export component stats into @p reg's sim section: the
     * prophet's under `prefix.prophet.*` and, when a critic is
     * configured, the critic's under `prefix.critic.*`.
     */
    void exportStats(StatRegistry &reg, const std::string &prefix) const;

    /** Live speculative history (exposed for tests/examples). */
    const HistoryRegister &history() const { return liveHist; }

  private:
    DirectionPredictorPtr prophet;
    FilteredPredictorPtr critic;
    HybridConfig cfg;
    HistoryRegister liveHist;
};

inline bool
ProphetCriticHybrid::predictBranch(Addr pc, BranchContext &ctx)
{
    checkpoint(ctx);
    const bool pred = prophet->predictKeyed(pc, liveHist, ctx.key);
    // Speculative history update (§3.2): the prophet's prediction
    // enters the history, its own BHR and the critic's BOR, at once.
    if (cfg.speculativeHistoryUpdate)
        liveHist.shiftIn(pred);
    return pred;
}

inline void
ProphetCriticHybrid::critiqueBranch(Addr pc, const BranchContext &ctx,
                                    bool prophet_pred,
                                    const FutureBits &future_bits,
                                    CritiqueDecision &d)
{
    pcbp_assert(future_bits.size() <= std::max(cfg.numFutureBits, 1u),
                "more future bits than configured");
    pcbp_assert(cfg.numFutureBits == 0 || !future_bits.empty(),
                "the first future bit is the branch's own prediction");

    if (!critic) {
        d.provided = false;
        d.finalPrediction = prophet_pred;
        d.borAtCritique = ctx.histBefore;
        return;
    }

    // With numFutureBits == 0 the critic operates like a
    // conventional overriding component: same history as the
    // prophet, no future information.
    if (cfg.numFutureBits == 0) {
        d.borAtCritique = ctx.histBefore;
    } else {
        d.borAtCritique = buildCritiqueBor(ctx.histBefore, future_bits);
    }

    const CritiqueResult r = critic->critique(pc, d.borAtCritique);
    d.provided = r.provided;
    d.finalPrediction = r.provided ? r.taken : prophet_pred;
    d.overrode = r.provided && (d.finalPrediction != prophet_pred);
    d.filterKey = r.key();
}

inline void
ProphetCriticHybrid::commitBranch(
    Addr pc, const BranchContext &ctx,
    const std::optional<CritiqueDecision> &decision, bool outcome)
{
    // Pattern tables update non-speculatively at commit (§3.2), with
    // the same history context used at prediction time.
    prophet->updateKeyed(pc, ctx.histBefore, outcome, ctx.key);

    if (!cfg.speculativeHistoryUpdate) {
        // Retired-history ablation: outcomes enter the history only
        // now.
        liveHist.shiftIn(outcome);
    }

    if (critic && decision) {
        const bool mispredicted = decision->finalPrediction != outcome;
        // §3.3: train with the BOR value used to generate the
        // critique — it contains the wrong-path future bits when the
        // prophet went down the wrong path.
        critic->trainKeyed(pc, decision->borAtCritique, outcome,
                           mispredicted, decision->filterKey);
    }
}

} // namespace pcbp

#endif // PCBP_CORE_PROPHET_CRITIC_HH
