#include "predictors/gshare.hh"

#include "common/bit_utils.hh"
#include "common/logging.hh"

namespace pcbp
{

Gshare::Gshare(std::size_t num_entries, unsigned history_bits)
    : table(num_entries, 2, 1),
      histBits(history_bits),
      indexBits(log2Floor(num_entries))
{
    pcbp_assert(isPowerOfTwo(num_entries), "gshare size must be 2^n");
    pcbp_assert(history_bits <= HistoryRegister::capacity);
}

std::size_t
Gshare::index(Addr pc, const HistoryRegister &hist) const
{
    const std::uint64_t h = hist.foldedLow(histBits, indexBits);
    return (foldBits(pc >> 2, indexBits) ^ h) & maskBits(indexBits);
}

bool
Gshare::predict(Addr pc, const HistoryRegister &hist)
{
    return table.taken(index(pc, hist));
}

void
Gshare::update(Addr pc, const HistoryRegister &hist, bool taken)
{
    table.update(index(pc, hist), taken);
}

bool
Gshare::predictKeyed(Addr pc, const HistoryRegister &hist,
                     PredictKey &key)
{
    const std::size_t idx = index(pc, hist);
    key.coord[0].idx = static_cast<std::uint32_t>(idx);
    key.valid = true;
    return table.taken(idx);
}

void
Gshare::updateKeyed(Addr pc, const HistoryRegister &hist, bool taken,
                    const PredictKey &key)
{
    table.update(key.valid ? key.coord[0].idx : index(pc, hist), taken);
}

void
Gshare::reset()
{
    table.fill(1);
}

std::size_t
Gshare::sizeBits() const
{
    return table.size() * 2;
}

std::string
Gshare::name() const
{
    return "gshare-" + std::to_string(sizeBytes() / 1024) + "KB";
}

} // namespace pcbp
