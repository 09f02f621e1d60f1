/**
 * @file
 * 2Bc-gskew predictor (Seznec & Michaud), the de-aliased hybrid used
 * by the Compaq Alpha EV8. Four banks of 2-bit counters:
 *
 * - BIM: a bimodal bank indexed by branch address;
 * - G0, G1: gshare-like banks indexed by skewed hashes of
 *   (address, global history);
 * - META: a meta-predictor bank choosing between BIM and the
 *   majority vote of {BIM, G0, G1} (the e-gskew prediction).
 *
 * The partial update policy follows the original: on a correct
 * prediction only the participating, agreeing banks are
 * strengthened; on a mispredict all direction banks are re-educated;
 * META is updated whenever BIM and the majority vote disagree.
 */

#ifndef PCBP_PREDICTORS_GSKEW_HH
#define PCBP_PREDICTORS_GSKEW_HH

#include <vector>

#include "common/sat_counter.hh"
#include "predictors/predictor.hh"

namespace pcbp
{

class GSkew final : public DirectionPredictor
{
  public:
    /**
     * @param entries_per_bank Entries in each of the 4 banks
     *        (power of two).
     * @param history_bits Global-history bits hashed into G0/G1/META.
     */
    GSkew(std::size_t entries_per_bank, unsigned history_bits);

    bool predict(Addr pc, const HistoryRegister &hist) override;
    void update(Addr pc, const HistoryRegister &hist, bool taken) override;
    bool predictKeyed(Addr pc, const HistoryRegister &hist,
                      PredictKey &key) override;
    void updateKeyed(Addr pc, const HistoryRegister &hist, bool taken,
                     const PredictKey &key) override;
    void reset() override;

    DirectionPredictorPtr clone() const override
    {
        return std::make_unique<GSkew>(*this);
    }
    std::size_t sizeBits() const override;
    unsigned historyLength() const override { return histBits; }
    std::string name() const override;

    /** Per-bank predictions, exposed for tests. */
    struct BankView
    {
        bool bim, g0, g1, majority, useMajority, final_;
    };
    BankView banks(Addr pc, const HistoryRegister &hist) const;

  private:
    /** The four bank indexes of one (pc, history). */
    struct Indexes
    {
        std::size_t bim, g0, g1, meta;
    };

    Indexes indexes(Addr pc, const HistoryRegister &hist) const;
    BankView bankView(const Indexes &ix) const;
    void updateAt(const Indexes &ix, bool taken);

    std::vector<SatCounter> bim, g0, g1, meta;
    unsigned histBits;
    unsigned indexBits;
};

} // namespace pcbp

#endif // PCBP_PREDICTORS_GSKEW_HH
