/**
 * @file
 * The critic filter of §4: a set-associative table of tags, indexed
 * and tagged by two different XOR hashes of the branch address and
 * the BOR value, with LRU replacement. A miss means the critic
 * implicitly agrees with the prophet; entries are allocated when a
 * branch misses the filter and was mispredicted.
 */

#ifndef PCBP_CORE_TAG_FILTER_HH
#define PCBP_CORE_TAG_FILTER_HH

#include <cstdint>
#include <vector>

#include "common/history_register.hh"
#include "common/types.hh"

namespace pcbp
{

class TagFilter
{
  public:
    /** Supported tag widths; tags are stored in 16 bits. */
    static constexpr unsigned minTagBits = 4;
    static constexpr unsigned maxTagBits = 16;

    /**
     * @param num_sets Number of sets (power of two).
     * @param num_ways Associativity.
     * @param tag_bits Tag width in [minTagBits, maxTagBits] (the
     *        paper finds 8-10 sufficient).
     * @param bor_bits BOR bits hashed into index and tag.
     */
    TagFilter(std::size_t num_sets, unsigned num_ways, unsigned tag_bits,
              unsigned bor_bits);

    /** Result of probing the filter. */
    struct Result
    {
        bool hit = false;
        /** Flat entry id (set * ways + way); valid only on hit. */
        std::size_t entry = 0;
    };

    /** Probe without changing any state. */
    Result probe(Addr pc, const HistoryRegister &bor) const;

    /** Mark an entry most-recently used (training-time hit). */
    void touch(std::size_t entry);

    /**
     * Allocate an entry for (pc, bor), evicting the LRU way of the
     * set. Returns the flat entry id.
     */
    std::size_t allocate(Addr pc, const HistoryRegister &bor);

    /** Total entries (sets * ways). */
    std::size_t entries() const { return tags.size(); }

    unsigned ways() const { return numWays; }
    unsigned tagBits() const { return numTagBits; }
    unsigned borBits() const { return numBorBits; }

    /**
     * Storage cost: valid + tag per entry, plus ceil(log2(ways))
     * LRU-rank bits per entry.
     */
    std::size_t sizeBits() const;

    void reset();

  private:
    /**
     * Both hashes of one (pc, BOR) access, computed in a single pass
     * so the BOR slice is extracted once: probe and train each need
     * index and tag together, and these run once per critique and
     * once per commit on the hybrid hot path.
     */
    struct Hashes
    {
        std::size_t set;
        std::uint16_t tag;
    };
    Hashes hashesOf(Addr pc, const HistoryRegister &bor) const;

    std::size_t indexOf(Addr pc, const HistoryRegister &bor) const;
    std::uint16_t tagOf(Addr pc, const HistoryRegister &bor) const;

    /**
     * Structure-of-arrays entry storage (DESIGN.md §12): the probe
     * loop compares ways against tags/valids only, so a w-way set
     * costs 3w contiguous bytes instead of w 16-byte structs; the
     * lastUse timestamps are touched only by LRU maintenance.
     */
    std::vector<std::uint16_t> tags;
    std::vector<std::uint8_t> valids;
    std::vector<std::uint64_t> lastUse;
    std::size_t numSets;
    unsigned numWays;
    unsigned numTagBits;
    unsigned numBorBits;
    unsigned indexBits;
    std::uint64_t tick = 0;
};

} // namespace pcbp

#endif // PCBP_CORE_TAG_FILTER_HH
