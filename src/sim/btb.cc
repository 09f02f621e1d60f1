#include "sim/btb.hh"

#include <algorithm>

#include "common/bit_utils.hh"
#include "common/logging.hh"

namespace pcbp
{

Btb::Btb(std::size_t num_entries, unsigned num_ways)
    : tags(num_entries, 0),
      lastUse(num_entries, 0),
      numSets(num_entries / num_ways),
      numWays(num_ways),
      indexBits(log2Floor(num_entries / num_ways))
{
    pcbp_assert(num_ways >= 1 && num_entries % num_ways == 0);
    pcbp_assert(isPowerOfTwo(numSets), "BTB sets must be 2^n");
}

void
Btb::allocate(Addr pc)
{
    const std::size_t base = setOf(pc) * numWays;
    const std::uint64_t want = validTagOf(pc);

    std::size_t victim = base;
    for (unsigned w = 0; w < numWays; ++w) {
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

void
Btb::reset()
{
    std::fill(tags.begin(), tags.end(), 0);
    std::fill(lastUse.begin(), lastUse.end(), 0);
    tick = 0;
}

} // namespace pcbp
