/**
 * @file
 * Filtered perceptron critic (Table 3): an ordinary perceptron
 * predictor plus an N-way associative table of tags. The perceptron
 * lookup and the tag lookup run in parallel (Fig. 3); the critic's
 * prediction is used only on a tag hit, a miss implies implicit
 * agreement with the prophet.
 */

#ifndef PCBP_CORE_FILTERED_PERCEPTRON_HH
#define PCBP_CORE_FILTERED_PERCEPTRON_HH

#include "core/tag_filter.hh"
#include "predictors/perceptron.hh"
#include "predictors/predictor.hh"

namespace pcbp
{

class FilteredPerceptron final : public FilteredPredictor
{
  public:
    /**
     * @param num_perceptrons Perceptron pool size.
     * @param perceptron_bits BOR bits read by the perceptron (the
     *        most recently inserted bits).
     * @param filter_sets Filter sets (power of two).
     * @param filter_ways Filter associativity (3 in Table 3).
     * @param tag_bits Filter tag width.
     * @param filter_bor_bits BOR bits hashed by the filter (18 in
     *        Table 3).
     */
    FilteredPerceptron(std::size_t num_perceptrons,
                       unsigned perceptron_bits, std::size_t filter_sets,
                       unsigned filter_ways, unsigned tag_bits,
                       unsigned filter_bor_bits);

    CritiqueResult critique(Addr pc, const HistoryRegister &bor) override;
    void train(Addr pc, const HistoryRegister &bor, bool taken,
               bool mispredicted) override;
    void trainKeyed(Addr pc, const HistoryRegister &bor, bool taken,
                    bool mispredicted, const FilterKey &key) override;
    void reset() override;

    FilteredPredictorPtr clone() const override
    {
        return std::make_unique<FilteredPerceptron>(*this);
    }
    std::size_t sizeBits() const override;
    unsigned borBits() const override;
    std::string name() const override;

  private:
    Perceptron perceptron;
    TagFilter filter;
};

} // namespace pcbp

#endif // PCBP_CORE_FILTERED_PERCEPTRON_HH
