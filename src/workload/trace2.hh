/**
 * @file
 * PCBPTRC2: block-compressed, indexed, mmap-able committed-branch
 * traces — the one trace format this repo reads and writes.
 *
 * Each record is (block, pc, taken, uops) per committed branch. A
 * flat encoding would spend 17 bytes per branch, so a billion-branch
 * real trace would cost ~17 GB. PCBPTRC2 stores the records as
 * fixed-size, *independently decodable* blocks of delta/varint-coded
 * records plus an outcome bitstream, a static branch dictionary
 * shared by all blocks, and a footer index mapping branch ordinal ->
 * block file offset. A 200000-branch walk of a registry workload
 * takes 1.1-1.3 bytes per record, and one mapping serves every
 * stream fork of a warmup ladder (DESIGN.md §11).
 *
 * `pcbp_trace record` and `import-ascii` write it; `trace:<path>`
 * workloads, replay streams, scans and `pcbp_trace info` read it
 * through Trace2Reader, which rejects any other file.
 * Full wire spec: DESIGN.md §13.
 */

#ifndef PCBP_WORKLOAD_TRACE2_HH
#define PCBP_WORKLOAD_TRACE2_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "workload/cfg.hh"

namespace pcbp
{

/**
 * Insert-only open-addressing map from a 64-bit key to a small value:
 * the one lookup structure of the trace paths (the writer's and the
 * reader's static dictionaries, the importer's PC -> block id map,
 * the summary's distinct-PC count). Power-of-two capacity, at most
 * three quarters full, multiplicative hash, linear probing. Occupancy
 * is a byte array of its own, so every 64-bit key is storable (block
 * id 0xFFFFFFFF, PC 0 and 2^64 - 1 included) and a slot is no wider
 * than its key and value. Iteration order is slot order, so a caller
 * that needs a stable order sorts what forEach() hands it.
 */
template <typename V>
class FlatIdTable
{
  public:
    /** Fibonacci hashing: the slot is the top bits of key x this. */
    static constexpr std::uint64_t hashMultiplier = 0x9e3779b97f4a7c15ull;

    std::size_t size() const { return count; }

    /** @p key's value, or nullptr when absent. */
    const V *
    find(std::uint64_t key) const
    {
        if (used.empty())
            return nullptr;
        for (std::size_t i = home(key); used[i]; i = (i + 1) & mask()) {
            if (slots[i].key == key)
                return &slots[i].value;
        }
        return nullptr;
    }

    /** Store (@p key, @p value) unless @p key is present, and return
     *  the stored value: the first one inserted for @p key. The
     *  reference lasts until the next emplace, which may move every
     *  entry. */
    const V &
    emplace(std::uint64_t key, const V &value)
    {
        if (4 * (count + 1) > 3 * used.size())
            grow();
        std::size_t i = home(key);
        for (; used[i]; i = (i + 1) & mask()) {
            if (slots[i].key == key)
                return slots[i].value;
        }
        used[i] = 1;
        slots[i] = {key, value};
        ++count;
        return slots[i].value;
    }

    /** @p fn(key, value) for every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < used.size(); ++i) {
            if (used[i])
                fn(slots[i].key, slots[i].value);
        }
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        V value{};
    };

    std::size_t mask() const { return used.size() - 1; }

    std::size_t
    home(std::uint64_t key) const
    {
        return std::size_t((key * hashMultiplier) >> shift);
    }

    void
    grow()
    {
        const std::vector<Slot> old_slots = std::move(slots);
        const std::vector<std::uint8_t> old_used = std::move(used);
        const std::size_t capacity =
            old_used.empty() ? 16 : 2 * old_used.size();
        slots.assign(capacity, Slot{});
        used.assign(capacity, 0);
        shift = 64;
        for (std::size_t n = capacity; n > 1; n >>= 1)
            --shift;
        for (std::size_t j = 0; j < old_used.size(); ++j) {
            if (!old_used[j])
                continue;
            std::size_t i = home(old_slots[j].key);
            while (used[i])
                i = (i + 1) & mask();
            used[i] = 1;
            slots[i] = old_slots[j];
        }
    }

    std::vector<Slot> slots;
    std::vector<std::uint8_t> used; //!< one occupancy mark per slot
    std::size_t count = 0;
    unsigned shift = 64; //!< 64 - log2(capacity)
};

/** A static branch's metadata, as the PCBPTRC2 dictionary holds it. */
struct BranchMeta
{
    Addr pc = 0;
    std::uint32_t uops = 0;
};

/** @name PCBPTRC2 wire format, shared by writer, reader, streams. */
/// @{
namespace trace2fmt
{

constexpr char magic[8] = {'P', 'C', 'B', 'P', 'T', 'R', 'C', '2'};
constexpr char indexMagic[8] = {'P', 'C', 'B', 'P', 'I', 'D', 'X', '2'};
constexpr char endMagic[8] = {'P', 'C', 'B', 'P', 'E', 'N', 'D', '2'};
constexpr std::uint32_t version = 1;

/** magic(8) + version(4) + recordsPerBlock(4) + recordCount(8) +
 *  indexOffset(8) + reserved(8). */
constexpr std::size_t headerBytes = 40;

/** Smallest possible footer: indexMagic + staticCount(4) +
 *  numBlocks(4) + recordCount echo(8) + endMagic. */
constexpr std::size_t footerMinBytes = 32;

constexpr std::uint32_t defaultBlockRecords = 4096;
constexpr std::uint32_t maxBlockRecords = 1u << 20;

} // namespace trace2fmt
/// @}

/** Parsed identity of a PCBPTRC2 file (the `pcbp_trace info` view). */
struct Trace2Info
{
    std::uint32_t version = 0;
    std::uint32_t recordsPerBlock = 0;
    std::uint64_t recordCount = 0;
    std::uint64_t numBlocks = 0;
    std::uint64_t staticBranches = 0; //!< static-dictionary entries
    std::uint64_t fileBytes = 0;
    std::uint64_t indexBytes = 0; //!< footer (dict + index) bytes
};

/**
 * Read-only, mmap-backed view of a PCBPTRC2 file: the parsed header
 * and footer (static dictionary + block index) plus per-block decode.
 * Immutable after open, so concurrent readers — and the stream forks
 * of DESIGN.md §11 — share one mapping through a shared_ptr.
 *
 * tryOpen() validates everything reachable without decoding blocks:
 * magic, version, geometry, footer bounds, index monotonicity, and
 * the record-count echo. Block payloads are validated on decode
 * (tryDecodeBlock), where a torn or corrupted block is a non-fatal
 * error, never a crash or out-of-bounds read.
 */
class Trace2Reader
{
  public:
    ~Trace2Reader();

    Trace2Reader(const Trace2Reader &) = delete;
    Trace2Reader &operator=(const Trace2Reader &) = delete;

    /** nullptr on an unreadable or malformed file, with a
     *  description in @p error. */
    static std::shared_ptr<const Trace2Reader>
    tryOpen(const std::string &path, std::string &error);

    /** Fatal wrapper over tryOpen (CLI / stream construction). */
    static std::shared_ptr<const Trace2Reader>
    open(const std::string &path);

    std::uint64_t recordCount() const { return count; }
    std::uint32_t recordsPerBlock() const { return blockRecords; }
    std::uint64_t numBlocks() const { return blockOffsets.size(); }
    std::uint64_t mappedBytes() const { return mapBytes; }
    const std::string &filePath() const { return path; }
    Trace2Info info() const;

    /** Block holding branch ordinal @p ordinal. */
    std::uint64_t
    blockOfOrdinal(std::uint64_t ordinal) const
    {
        return ordinal / blockRecords;
    }

    /** Records block @p b holds (the last block may be short). */
    std::uint32_t blockLength(std::uint64_t b) const;

    /**
     * Decode block @p b into @p out, replacing what it held. False, with
     * @p error filled and @p out cleared, on a corrupt payload —
     * bounds overrun, record-count mismatch, dictionary miss, or a
     * payload that does not consume exactly its declared bytes (the
     * torn-write detector).
     */
    bool tryDecodeBlock(std::uint64_t b,
                        std::vector<CommittedBranch> &out,
                        std::string &error) const;

    /** Fatal wrapper over tryDecodeBlock (stream hot path). */
    void decodeBlock(std::uint64_t b,
                     std::vector<CommittedBranch> &out) const;

  private:
    Trace2Reader() = default;

    std::string path;
    const unsigned char *map = nullptr;
    std::uint64_t mapBytes = 0;

    std::uint32_t fileVersion = 0;
    std::uint32_t blockRecords = 0;
    std::uint64_t count = 0;
    std::uint64_t indexOffset = 0;

    std::vector<std::uint64_t> blockOffsets;
    FlatIdTable<BranchMeta> dict; //!< static dictionary by block id
};

/**
 * Streaming PCBPTRC2 writer: append records one at a time; blocks
 * are encoded and flushed every recordsPerBlock records, the footer
 * (dictionary + index) is written by finish(), which then patches
 * the header's record count and index offset. The destructor
 * finishes automatically; construction and I/O errors are fatal.
 */
class Trace2Writer
{
  public:
    explicit Trace2Writer(
        const std::string &path,
        std::uint32_t records_per_block = trace2fmt::defaultBlockRecords);
    ~Trace2Writer();

    Trace2Writer(const Trace2Writer &) = delete;
    Trace2Writer &operator=(const Trace2Writer &) = delete;

    void append(const CommittedBranch &r);

    /** Flush the tail block, write the footer, patch the header, and
     *  close. Idempotent. */
    void finish();

    std::uint64_t written() const { return count; }

  private:
    void flushBlock();

    std::string path;
    std::FILE *file = nullptr;
    std::uint64_t count = 0;
    std::uint32_t blockRecords = 0;
    std::vector<CommittedBranch> pending;
    std::vector<unsigned char> encoded; //!< reused encode scratch
    std::vector<std::uint64_t> blockOffsets;
    std::uint64_t nextOffset = trace2fmt::headerBytes;
    /** First-seen (pc, uops) per block id; finish() sorts the entries
     *  so the footer dictionary is written (and delta-coded) by
     *  ascending id. */
    FlatIdTable<BranchMeta> dict;
};

/**
 * Import a CBP-style ASCII branch trace into PCBPTRC2: one branch per
 * line, `PC OUTCOME [UOPS]` — PC in hex (0x...), octal (0...) or
 * decimal, OUTCOME one of 1/0/T/N, optional uop count (default 1).
 * Lines starting with '#' and blank lines are skipped; lines may be
 * any length. Block ids are assigned per distinct PC in first-seen
 * order. Returns the record count written. The output goes to a
 * temporary file beside @p out that replaces @p out only once the
 * input is read in full. Fatal, naming the line, on a malformed line —
 * including a negative number or a PC past 64 bits — and then @p out
 * is untouched and no temporary file is left behind.
 *
 * Replay needs one successor per branch direction
 * (reconstructProgramFromTrace). A corpus where one PC is followed by
 * different PCs after the same outcome imports, but fails replay.
 */
std::uint64_t importAsciiTrace(
    const std::string &in, const std::string &out,
    std::uint32_t records_per_block = trace2fmt::defaultBlockRecords);

/**
 * Deterministic `key value` lines describing a PCBPTRC2 file (the
 * `pcbp_trace info` body; key list pinned by
 * tests/golden/trace_info_keys.txt). Fatal on any other file. The
 * path itself is not embedded, so output depends only on the file's
 * bytes.
 */
std::string renderTraceInfo(const std::string &path);

} // namespace pcbp

#endif // PCBP_WORKLOAD_TRACE2_HH
