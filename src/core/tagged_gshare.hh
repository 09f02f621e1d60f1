/**
 * @file
 * Tagged gshare critic (Table 3): a gshare variant organized like an
 * N-way associative cache where each data item is a 2-bit counter
 * guarded by a tag. The tag table is the filter of §4: a miss is an
 * implicit agreement with the prophet; entries are allocated when a
 * mispredicted branch misses.
 */

#ifndef PCBP_CORE_TAGGED_GSHARE_HH
#define PCBP_CORE_TAGGED_GSHARE_HH

#include <vector>

#include "common/sat_counter.hh"
#include "core/tag_filter.hh"
#include "predictors/predictor.hh"

namespace pcbp
{

class TaggedGshare final : public FilteredPredictor
{
  public:
    /**
     * @param num_sets Sets in the tagged table (power of two).
     * @param num_ways Associativity (6 in Table 3).
     * @param tag_bits Tag width (8-10 per §4).
     * @param bor_bits BOR bits used for hashing (18 in Table 3).
     */
    TaggedGshare(std::size_t num_sets, unsigned num_ways,
                 unsigned tag_bits, unsigned bor_bits);

    CritiqueResult critique(Addr pc, const HistoryRegister &bor) override;
    void train(Addr pc, const HistoryRegister &bor, bool taken,
               bool mispredicted) override;
    void trainKeyed(Addr pc, const HistoryRegister &bor, bool taken,
                    bool mispredicted, const FilterKey &key) override;
    void reset() override;

    FilteredPredictorPtr clone() const override
    {
        return std::make_unique<TaggedGshare>(*this);
    }
    std::size_t sizeBits() const override;
    unsigned borBits() const override { return filter.borBits(); }
    std::string name() const override;

  private:
    TagFilter filter;
    SatCounterTable counters;
};

} // namespace pcbp

#endif // PCBP_CORE_TAGGED_GSHARE_HH
