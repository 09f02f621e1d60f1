/**
 * @file
 * Branch target buffer used by the front end to identify branches
 * (§5): a set-associative tag array. A branch that misses the BTB is
 * invisible to the hybrid — the front end falls through — and an
 * entry is allocated when the branch commits.
 *
 * Replacement is not LRU: lookup() never touches an entry, and only
 * the commit-time allocate() stamps lastUse. A set therefore evicts
 * its oldest allocation, even when that branch hits on every fetch.
 * A real BTB refreshes on a hit; changing the policy would move every
 * golden, so it waits on ROADMAP item 1.
 *
 * Storage is structure-of-arrays (DESIGN.md §12): lookup() runs on
 * every fetch and compares one 8-byte word per way, the tag with the
 * valid bit folded in, so a 4-way set is 32 contiguous bytes; the
 * allocation stamps live in their own array, read only at commit.
 */

#ifndef PCBP_SIM_BTB_HH
#define PCBP_SIM_BTB_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace pcbp
{

class Btb
{
  public:
    /** Associativity (Table 2). */
    static constexpr unsigned ways = 4;

    /**
     * @param num_entries Total entries (power of two; Table 2 uses
     *        4096).
     */
    explicit Btb(std::size_t num_entries);

    /** True when the branch at @p pc is present. */
    bool
    lookup(Addr pc) const
    {
        const std::uint64_t *set = &tags[setOf(pc) * ways];
        const std::uint64_t want = validTagOf(pc);
        for (unsigned w = 0; w < ways; ++w) {
            if (set[w] == want)
                return true;
        }
        return false;
    }

    /** Allocate (or refresh) the entry for @p pc; commit-time. */
    void allocate(Addr pc);

    std::size_t entries() const { return tags.size(); }

  private:
    /** Set in every valid entry's word; pc >> 2 leaves it free. */
    static constexpr std::uint64_t validBit = std::uint64_t(1) << 63;

    std::size_t
    setOf(Addr pc) const
    {
        return (pc >> 2) & (numSets - 1);
    }

    /** The word a valid entry for @p pc holds: tag | validBit. */
    std::uint64_t
    validTagOf(Addr pc) const
    {
        return (pc >> (2 + indexBits)) | validBit;
    }

    /** Per entry: tag | validBit, or 0 when invalid. */
    std::vector<std::uint64_t> tags;
    /** Per entry: allocation stamp (not hits). */
    std::vector<std::uint64_t> lastUse;
    std::size_t numSets;
    unsigned indexBits;
    std::uint64_t tick = 0;
};

} // namespace pcbp

#endif // PCBP_SIM_BTB_HH
