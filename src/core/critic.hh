/**
 * @file
 * Adapter that lets any conventional DirectionPredictor play the
 * critic role without a filter: it critiques every branch (Fig. 6a's
 * unfiltered perceptron critic) and is trained on every commit.
 */

#ifndef PCBP_CORE_CRITIC_HH
#define PCBP_CORE_CRITIC_HH

#include "predictors/predictor.hh"

namespace pcbp
{

class UnfilteredCritic final : public FilteredPredictor
{
  public:
    explicit UnfilteredCritic(DirectionPredictorPtr predictor);

    CritiqueResult critique(Addr pc, const HistoryRegister &bor) override;
    void train(Addr pc, const HistoryRegister &bor, bool taken,
               bool mispredicted) override;
    /** As train(): no filter, so nothing to reuse. */
    void trainKeyed(Addr pc, const HistoryRegister &bor, bool taken,
                    bool mispredicted, const FilterKey &key) override;
    void reset() override;
    FilteredPredictorPtr clone() const override;
    std::size_t sizeBits() const override;
    unsigned borBits() const override;
    std::string name() const override;

  private:
    DirectionPredictorPtr inner;
};

} // namespace pcbp

#endif // PCBP_CORE_CRITIC_HH
