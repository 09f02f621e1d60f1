/**
 * @file
 * The critic filter of §4: a set-associative table of tags, indexed
 * and tagged by two different XOR hashes of the branch address and
 * the BOR value, with LRU replacement. A miss means the critic
 * implicitly agrees with the prophet; entries are allocated when a
 * branch misses the filter and was mispredicted.
 *
 * The two hashes of one (pc, BOR) access form its FilterKey. A critic
 * hashes once, at critique, and its commit-time re-probe and
 * allocation reuse the key (CritiqueResult::key); the re-probe still
 * reads the tags, because allocations between critique and commit
 * move entries. keyOf() and probe() sit on the per-critique hot path
 * and are defined here so they compile in line.
 */

#ifndef PCBP_CORE_TAG_FILTER_HH
#define PCBP_CORE_TAG_FILTER_HH

#include <cstdint>
#include <vector>

#include "common/bit_utils.hh"
#include "common/history_register.hh"
#include "common/types.hh"
#include "predictors/predictor.hh"

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

    /**
     * Both hashes of one (pc, BOR) access, computed in a single pass
     * so the BOR slice is extracted once.
     */
    FilterKey
    keyOf(Addr pc, const HistoryRegister &bor) const
    {
        const std::uint64_t b = bor.low(numBorBits);
        FilterKey k;
        // First hash: XOR of folded address and folded BOR value,
        // folded as one value (folding is linear over XOR).
        k.set = static_cast<std::uint32_t>(
            foldBits((pc >> 2) ^ b, indexBits));
        // Second, decorrelated hash: mix the combination so that two
        // (pc, BOR) pairs landing in the same set rarely share a tag.
        // mix64 output populates all 64 bits, so the fixed-step fold
        // (identical result) beats the test-against-zero loop here.
        const std::uint64_t h =
            mix64((pc >> 2) * 0x9e3779b97f4a7c15ULL ^ (b << 1));
        k.tag = static_cast<std::uint16_t>(foldBitsFixed(h, numTagBits));
        return k;
    }

    /** Result of probing the filter. */
    struct Result
    {
        bool hit = false;
        /** Flat entry id (set * ways + way); valid only on hit. */
        std::size_t entry = 0;
    };

    /** Probe the set @p key names without changing any state. */
    Result
    probe(const FilterKey &key) const
    {
        const std::size_t base = std::size_t(key.set) * numWays;
        const std::uint16_t *t = &tags[base];
        const std::uint8_t *v = &valids[base];
        for (unsigned w = 0; w < numWays; ++w) {
            if (v[w] && t[w] == key.tag)
                return {true, base + w};
        }
        return {false, 0};
    }

    /** Mark an entry most-recently used (training-time hit). */
    void touch(std::size_t entry);

    /**
     * Allocate an entry for @p key, evicting the LRU way of its set.
     * Returns the flat entry id.
     */
    std::size_t allocate(const FilterKey &key);

    /** Total entries (sets * ways). */
    std::size_t entries() const { return tags.size(); }

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
