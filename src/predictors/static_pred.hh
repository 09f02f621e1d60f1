/**
 * @file
 * Static baselines: always-taken and always-not-taken. Useful as
 * floors in comparisons and as trivial components in tests.
 */

#ifndef PCBP_PREDICTORS_STATIC_PRED_HH
#define PCBP_PREDICTORS_STATIC_PRED_HH

#include "predictors/predictor.hh"

namespace pcbp
{

class StaticPredictor final : public DirectionPredictor
{
  public:
    explicit StaticPredictor(bool predict_taken)
        : predTaken(predict_taken)
    {
    }

    bool predict(Addr, const HistoryRegister &) override
    {
        return predTaken;
    }

    void update(Addr, const HistoryRegister &, bool) override {}

    /** Nothing to hash, so nothing to carry: the key stays invalid. */
    bool predictKeyed(Addr, const HistoryRegister &, PredictKey &) override
    {
        return predTaken;
    }

    void updateKeyed(Addr, const HistoryRegister &, bool,
                     const PredictKey &) override
    {
    }

    void reset() override {}

    DirectionPredictorPtr clone() const override
    {
        return std::make_unique<StaticPredictor>(*this);
    }

    std::size_t sizeBits() const override { return 0; }
    unsigned historyLength() const override { return 0; }

    std::string
    name() const override
    {
        return predTaken ? "always-taken" : "always-not-taken";
    }

  private:
    bool predTaken;
};

} // namespace pcbp

#endif // PCBP_PREDICTORS_STATIC_PRED_HH
