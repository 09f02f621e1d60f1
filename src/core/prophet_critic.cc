#include "core/prophet_critic.hh"

#include "common/logging.hh"

namespace pcbp
{

ProphetCriticHybrid::ProphetCriticHybrid(DirectionPredictorPtr prophet_,
                                         FilteredPredictorPtr critic_,
                                         HybridConfig config)
    : prophet(std::move(prophet_)),
      critic(std::move(critic_)),
      cfg(config)
{
    pcbp_assert(prophet != nullptr, "a hybrid needs a prophet");
    pcbp_assert(cfg.numFutureBits <= FutureBits::capacity,
                "future-bit count exceeds the FutureBits capacity");
}

void
ProphetCriticHybrid::overrideRedirect(const BranchContext &ctx,
                                      bool final_prediction)
{
    if (!cfg.speculativeHistoryUpdate)
        return; // registers were never advanced speculatively
    liveBhr = ctx.bhrBefore;
    liveBor = ctx.borBefore;
    liveBhr.shiftIn(final_prediction);
    liveBor.shiftIn(final_prediction);
}

void
ProphetCriticHybrid::recoverMispredict(const BranchContext &ctx,
                                       bool outcome)
{
    if (!cfg.speculativeHistoryUpdate)
        return;
    if (!cfg.repairHistory) {
        // Ablation: leave the polluted speculative bits in place.
        return;
    }
    // §3.3: restore from the checkpoint and insert the mispredicted
    // branch's correct outcome.
    liveBhr = ctx.bhrBefore;
    liveBor = ctx.borBefore;
    liveBhr.shiftIn(outcome);
    liveBor.shiftIn(outcome);
}

std::unique_ptr<ProphetCriticHybrid>
ProphetCriticHybrid::clone() const
{
    auto out = std::make_unique<ProphetCriticHybrid>(
        prophet->clone(), critic ? critic->clone() : nullptr, cfg);
    out->liveBhr = liveBhr;
    out->liveBor = liveBor;
    return out;
}

std::size_t
ProphetCriticHybrid::sizeBits() const
{
    return prophet->sizeBits() + (critic ? critic->sizeBits() : 0);
}

std::string
ProphetCriticHybrid::name() const
{
    if (!critic)
        return prophet->name();
    return prophet->name() + "+" + critic->name() + "@" +
           std::to_string(cfg.numFutureBits) + "fb";
}

void
ProphetCriticHybrid::exportStats(StatRegistry &reg,
                                 const std::string &prefix) const
{
    prophet->exportStats(reg, prefix + ".prophet");
    if (critic)
        critic->exportStats(reg, prefix + ".critic");
}

} // namespace pcbp
