#include "core/critic.hh"

#include "common/logging.hh"

namespace pcbp
{

UnfilteredCritic::UnfilteredCritic(DirectionPredictorPtr predictor)
    : inner(std::move(predictor))
{
    pcbp_assert(inner != nullptr);
}

CritiqueResult
UnfilteredCritic::critique(Addr pc, const HistoryRegister &bor)
{
    return {0, 0, true, inner->predict(pc, bor)};
}

void
UnfilteredCritic::train(Addr pc, const HistoryRegister &bor, bool taken,
                        bool)
{
    // An unfiltered critic trains on every committed branch,
    // mispredicted or not.
    inner->update(pc, bor, taken);
}

void
UnfilteredCritic::trainKeyed(Addr pc, const HistoryRegister &bor,
                             bool taken, bool, const FilterKey &)
{
    inner->update(pc, bor, taken);
}

void
UnfilteredCritic::reset()
{
    inner->reset();
}

FilteredPredictorPtr
UnfilteredCritic::clone() const
{
    return std::make_unique<UnfilteredCritic>(inner->clone());
}

std::size_t
UnfilteredCritic::sizeBits() const
{
    return inner->sizeBits();
}

unsigned
UnfilteredCritic::borBits() const
{
    return inner->historyLength();
}

std::string
UnfilteredCritic::name() const
{
    return "unfiltered(" + inner->name() + ")";
}

} // namespace pcbp
