#include "core/tag_filter.hh"

#include <algorithm>

#include "common/bit_utils.hh"
#include "common/logging.hh"

namespace pcbp
{

TagFilter::TagFilter(std::size_t num_sets, unsigned num_ways,
                     unsigned tag_bits, unsigned bor_bits)
    : tags(num_sets * num_ways, 0),
      valids(num_sets * num_ways, 0),
      lastUse(num_sets * num_ways, 0),
      numSets(num_sets),
      numWays(num_ways),
      numTagBits(tag_bits),
      numBorBits(bor_bits),
      indexBits(log2Floor(num_sets))
{
    pcbp_assert(isPowerOfTwo(num_sets), "filter sets must be 2^n");
    pcbp_assert(num_ways >= 1 && num_ways <= 16);
    pcbp_assert(tag_bits >= minTagBits && tag_bits <= maxTagBits);
    pcbp_assert(bor_bits <= 64);
}

void
TagFilter::touch(std::size_t entry)
{
    pcbp_dassert(entry < lastUse.size());
    lastUse[entry] = ++tick;
}

std::size_t
TagFilter::allocate(const FilterKey &key)
{
    const std::size_t base = std::size_t(key.set) * numWays;

    std::size_t victim = base;
    for (unsigned w = 0; w < numWays; ++w) {
        const std::size_t e = base + w;
        if (!valids[e]) {
            victim = e;
            break;
        }
        if (lastUse[e] < lastUse[victim])
            victim = e;
    }
    valids[victim] = 1;
    tags[victim] = key.tag;
    lastUse[victim] = ++tick;
    return victim;
}

std::size_t
TagFilter::sizeBits() const
{
    unsigned lru_bits = 0;
    while ((1u << lru_bits) < numWays)
        ++lru_bits;
    return tags.size() * (1 + numTagBits + lru_bits);
}

void
TagFilter::reset()
{
    std::fill(tags.begin(), tags.end(), 0);
    std::fill(valids.begin(), valids.end(), 0);
    std::fill(lastUse.begin(), lastUse.end(), 0);
    tick = 0;
}

} // namespace pcbp
