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
    /**
     * @param num_entries Total entries (power of two; Table 2 uses
     *        4096).
     * @param num_ways Associativity (4 in Table 2).
     */
    Btb(std::size_t num_entries, unsigned num_ways);

    /** True when the branch at @p pc is present. */
    bool lookup(Addr pc) const;

    /** Allocate (or refresh) the entry for @p pc; commit-time. */
    void allocate(Addr pc);

    void reset();

    std::size_t entries() const { return table.size(); }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0; //!< allocation stamp, not hits
    };

    std::size_t setOf(Addr pc) const;
    std::uint64_t tagOf(Addr pc) const;

    std::vector<Entry> table;
    std::size_t numSets;
    unsigned numWays;
    unsigned indexBits;
    std::uint64_t tick = 0;
};

} // namespace pcbp

#endif // PCBP_SIM_BTB_HH
