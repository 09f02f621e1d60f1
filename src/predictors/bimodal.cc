#include "predictors/bimodal.hh"

#include "common/bit_utils.hh"
#include "common/logging.hh"

namespace pcbp
{

Bimodal::Bimodal(std::size_t num_entries, unsigned counter_bits)
    : table(num_entries, counter_bits, 0),
      ctrBits(counter_bits),
      indexBits(log2Floor(num_entries))
{
    pcbp_assert(isPowerOfTwo(num_entries), "bimodal size must be 2^n");
}

std::size_t
Bimodal::index(Addr pc) const
{
    // Drop the low bits that are constant across instructions.
    return (pc >> 2) & maskBits(indexBits);
}

bool
Bimodal::predict(Addr pc, const HistoryRegister &)
{
    return table.taken(index(pc));
}

void
Bimodal::update(Addr pc, const HistoryRegister &, bool taken)
{
    table.update(index(pc), taken);
}

bool
Bimodal::predictKeyed(Addr pc, const HistoryRegister &, PredictKey &key)
{
    const std::size_t idx = index(pc);
    key.coord[0].idx = static_cast<std::uint32_t>(idx);
    key.valid = true;
    return table.taken(idx);
}

void
Bimodal::updateKeyed(Addr pc, const HistoryRegister &, bool taken,
                     const PredictKey &key)
{
    table.update(key.valid ? key.coord[0].idx : index(pc), taken);
}

void
Bimodal::reset()
{
    table.fill(0);
}

std::size_t
Bimodal::sizeBits() const
{
    return table.size() * ctrBits;
}

std::string
Bimodal::name() const
{
    return "bimodal-" + std::to_string(table.size());
}

} // namespace pcbp
