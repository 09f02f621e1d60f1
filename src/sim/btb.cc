#include "sim/btb.hh"

#include "common/bit_utils.hh"
#include "common/logging.hh"

namespace pcbp
{

Btb::Btb(std::size_t num_entries)
    : tags(num_entries, 0),
      lastUse(num_entries, 0),
      numSets(num_entries / ways),
      indexBits(log2Floor(num_entries / ways))
{
    pcbp_assert(num_entries % ways == 0);
    pcbp_assert(isPowerOfTwo(numSets), "BTB sets must be 2^n");
}

void
Btb::allocate(Addr pc)
{
    const std::size_t base = setOf(pc) * ways;
    const std::uint64_t want = validTagOf(pc);

    std::size_t victim = base;
    for (unsigned w = 0; w < ways; ++w) {
        const std::size_t idx = base + w;
        if (tags[idx] == want) {
            lastUse[idx] = ++tick;
            return;
        }
        if (tags[idx] == 0) {
            victim = idx;
        } else if (tags[victim] != 0 && lastUse[idx] < lastUse[victim]) {
            victim = idx;
        }
    }
    tags[victim] = want;
    lastUse[victim] = ++tick;
}

} // namespace pcbp
