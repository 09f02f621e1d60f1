/**
 * @file
 * Bimodal predictor: a table of 2-bit counters indexed by branch
 * address. The simplest dynamic predictor; tests use it as a
 * history-free baseline.
 */

#ifndef PCBP_PREDICTORS_BIMODAL_HH
#define PCBP_PREDICTORS_BIMODAL_HH

#include <vector>

#include "common/sat_counter.hh"
#include "predictors/predictor.hh"

namespace pcbp
{

class Bimodal final : public DirectionPredictor
{
  public:
    /**
     * @param num_entries Table size; must be a power of two.
     * @param counter_bits Width of each saturating counter.
     */
    explicit Bimodal(std::size_t num_entries, unsigned counter_bits = 2);

    bool predict(Addr pc, const HistoryRegister &hist) override;
    void update(Addr pc, const HistoryRegister &hist, bool taken) override;
    bool predictKeyed(Addr pc, const HistoryRegister &hist,
                      PredictKey &key) override;
    void updateKeyed(Addr pc, const HistoryRegister &hist, bool taken,
                     const PredictKey &key) override;
    void reset() override;

    DirectionPredictorPtr clone() const override
    {
        return std::make_unique<Bimodal>(*this);
    }
    std::size_t sizeBits() const override;
    unsigned historyLength() const override { return 0; }
    std::string name() const override;

  private:
    std::size_t index(Addr pc) const;

    SatCounterTable table;
    unsigned ctrBits;
    unsigned indexBits;
};

} // namespace pcbp

#endif // PCBP_PREDICTORS_BIMODAL_HH
