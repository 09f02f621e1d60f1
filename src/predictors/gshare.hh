/**
 * @file
 * Gshare predictor (McFarling): a table of 2-bit counters indexed by
 * the XOR of the branch address and the global branch history, which
 * spreads branches across the pattern table to reduce aliasing.
 */

#ifndef PCBP_PREDICTORS_GSHARE_HH
#define PCBP_PREDICTORS_GSHARE_HH

#include <vector>

#include "common/sat_counter.hh"
#include "predictors/predictor.hh"

namespace pcbp
{

class Gshare final : public DirectionPredictor
{
  public:
    /**
     * @param num_entries Pattern table size; power of two.
     * @param history_bits Number of global history bits XORed into
     *        the index.
     */
    Gshare(std::size_t num_entries, unsigned history_bits);

    bool predict(Addr pc, const HistoryRegister &hist) override;
    void update(Addr pc, const HistoryRegister &hist, bool taken) override;
    bool predictKeyed(Addr pc, const HistoryRegister &hist,
                      PredictKey &key) override;
    void updateKeyed(Addr pc, const HistoryRegister &hist, bool taken,
                     const PredictKey &key) override;
    void reset() override;

    DirectionPredictorPtr clone() const override
    {
        return std::make_unique<Gshare>(*this);
    }
    std::size_t sizeBits() const override;
    unsigned historyLength() const override { return histBits; }
    std::string name() const override;

  private:
    std::size_t index(Addr pc, const HistoryRegister &hist) const;

    SatCounterTable table;
    unsigned histBits;
    unsigned indexBits;
};

} // namespace pcbp

#endif // PCBP_PREDICTORS_GSHARE_HH
