#include "core/tagged_gshare.hh"

namespace pcbp
{

TaggedGshare::TaggedGshare(std::size_t num_sets, unsigned num_ways,
                           unsigned tag_bits, unsigned bor_bits)
    : filter(num_sets, num_ways, tag_bits, bor_bits),
      counters(filter.entries(), 2, 1)
{
}

CritiqueResult
TaggedGshare::critique(Addr pc, const HistoryRegister &bor)
{
    const FilterKey key = filter.keyOf(pc, bor);
    const auto r = filter.probe(key);
    if (!r.hit)
        return {key.set, key.tag, false, false};
    return {key.set, key.tag, true, counters.taken(r.entry)};
}

void
TaggedGshare::train(Addr pc, const HistoryRegister &bor, bool taken,
                    bool mispredicted)
{
    trainKeyed(pc, bor, taken, mispredicted, filter.keyOf(pc, bor));
}

void
TaggedGshare::trainKeyed(Addr, const HistoryRegister &, bool taken,
                         bool mispredicted, const FilterKey &key)
{
    const auto r = filter.probe(key);
    if (r.hit) {
        counters.update(r.entry, taken);
        filter.touch(r.entry);
    } else if (mispredicted) {
        // Insert the (branch address, BOR value) context so the next
        // time it recurs the critic's prediction is used, and
        // initialize the counter toward the resolved outcome (§4).
        const std::size_t e = filter.allocate(key);
        counters.setWeak(e, taken);
    }
}

void
TaggedGshare::reset()
{
    filter.reset();
    counters.fill(1);
}

std::size_t
TaggedGshare::sizeBits() const
{
    return filter.sizeBits() + counters.size() * 2;
}

std::string
TaggedGshare::name() const
{
    return "t.gshare-" + std::to_string(sizeBytes() / 1024) + "KB";
}

} // namespace pcbp
