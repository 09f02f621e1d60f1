#include "workload/trace2.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>

#include "common/logging.hh"

namespace pcbp
{

namespace
{

void
putLe(unsigned char *out, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out[i] = (v >> (8 * i)) & 0xff;
}

std::uint64_t
getLe(const unsigned char *in, int bytes)
{
    std::uint64_t v = 0;
    for (int i = bytes - 1; i >= 0; --i)
        v = (v << 8) | in[i];
    return v;
}

void
putVarint(std::vector<unsigned char> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<unsigned char>(0x80 | (v & 0x7f)));
        v >>= 7;
    }
    out.push_back(static_cast<unsigned char>(v));
}

/**
 * Bounds-checked LEB128 read from @p base[pos..end): false on
 * overrun or on a varint longer than the 10 bytes a u64 can need
 * (the cap keeps corrupt high-bit runs from walking the mapping).
 * The 10th byte holds bit 63 alone, so one above 1 is refused too:
 * its other bits would fall off the top of the value.
 */
bool
readVarint(const unsigned char *base, std::uint64_t end,
           std::uint64_t &pos, std::uint64_t &out)
{
    out = 0;
    for (int i = 0; i < 10; ++i) {
        if (pos >= end)
            return false;
        const unsigned char b = base[pos++];
        if (i == 9 && b > 1)
            return false;
        out |= std::uint64_t(b & 0x7f) << (7 * i);
        if (!(b & 0x80))
            return true;
    }
    return false;
}

std::uint64_t
zigzag(std::int64_t d)
{
    return (std::uint64_t(d) << 1) ^ std::uint64_t(d >> 63);
}

std::int64_t
unzigzag(std::uint64_t z)
{
    return std::int64_t(z >> 1) ^ -std::int64_t(z & 1);
}

std::uint64_t
blocksFor(std::uint64_t count, std::uint32_t per_block)
{
    return count / per_block + (count % per_block ? 1 : 0);
}

} // namespace

// ------------------------------------------------------------- writer

Trace2Writer::Trace2Writer(const std::string &path_,
                           std::uint32_t records_per_block)
    : path(path_), blockRecords(records_per_block)
{
    pcbp_assert(blockRecords >= 1 &&
                    blockRecords <= trace2fmt::maxBlockRecords,
                "records-per-block out of range");
    file = std::fopen(path.c_str(), "wb");
    if (!file)
        pcbp_fatal("cannot open '", path, "' for writing");
    unsigned char header[trace2fmt::headerBytes] = {};
    std::memcpy(header, trace2fmt::magic, 8);
    putLe(header + 8, trace2fmt::version, 4);
    putLe(header + 12, blockRecords, 4);
    // Record count and index offset are patched by finish().
    if (std::fwrite(header, 1, sizeof(header), file) != sizeof(header))
        pcbp_fatal("write error on '", path, "'");
    pending.reserve(blockRecords);
}

Trace2Writer::~Trace2Writer()
{
    finish();
}

void
Trace2Writer::append(const CommittedBranch &r)
{
    pcbp_assert(file != nullptr, "appending to a finished Trace2Writer");
    pending.push_back(r);
    ++count;
    if (pending.size() >= blockRecords)
        flushBlock();
}

void
Trace2Writer::flushBlock()
{
    if (pending.empty())
        return;
    const std::size_t n = pending.size();

    encoded.clear();
    // Outcome bitstream: bit j of byte j/8 (LSB first) = taken.
    encoded.resize((n + 7) / 8, 0);
    for (std::size_t j = 0; j < n; ++j) {
        if (pending[j].taken)
            encoded[j / 8] |= static_cast<unsigned char>(1u << (j % 8));
    }
    // Record stream: delta-coded block ids with a per-record
    // exception flag for records whose (pc, uops) disagree with the
    // first-seen dictionary entry (zero exceptions for traces that
    // are genuine CFG walks).
    std::int64_t prev_id = 0;
    for (std::size_t j = 0; j < n; ++j) {
        const CommittedBranch &r = pending[j];
        const BranchMeta &seen = dict.emplace(r.block, {r.pc, r.numUops});
        const bool exception =
            seen.pc != r.pc || seen.uops != r.numUops;
        const std::int64_t id = std::int64_t(r.block);
        putVarint(encoded, (zigzag(id - prev_id) << 1) |
                               std::uint64_t(exception));
        if (exception) {
            putVarint(encoded, r.pc);
            putVarint(encoded, r.numUops);
        }
        prev_id = id;
    }

    unsigned char head[8];
    putLe(head, encoded.size(), 4); // payload bytes past the descriptor
    putLe(head + 4, n, 4);          // record count
    if (std::fwrite(head, 1, sizeof(head), file) != sizeof(head) ||
        std::fwrite(encoded.data(), 1, encoded.size(), file) !=
            encoded.size()) {
        pcbp_fatal("write error on '", path, "'");
    }
    blockOffsets.push_back(nextOffset);
    nextOffset += sizeof(head) + encoded.size();
    pending.clear();
}

void
Trace2Writer::finish()
{
    if (!file)
        return;
    flushBlock();
    const std::uint64_t index_offset = nextOffset;

    encoded.clear();
    const auto appendMagic = [&](const char (&m)[8]) {
        for (const char c : m)
            encoded.push_back(static_cast<unsigned char>(c));
    };
    appendMagic(trace2fmt::indexMagic);
    unsigned char scratch[8];
    putLe(scratch, dict.size(), 4);
    encoded.insert(encoded.end(), scratch, scratch + 4);
    // Dictionary entries by ascending id: first id absolute, the
    // rest as (always >= 1) deltas.
    std::vector<std::pair<std::uint64_t, BranchMeta>> entries;
    entries.reserve(dict.size());
    dict.forEach([&](std::uint64_t id, const BranchMeta &meta) {
        entries.emplace_back(id, meta);
    });
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    std::uint64_t prev_id = 0;
    for (const auto &[id, meta] : entries) {
        putVarint(encoded, id - prev_id);
        putVarint(encoded, meta.pc);
        putVarint(encoded, meta.uops);
        prev_id = id;
    }
    putLe(scratch, blockOffsets.size(), 4);
    encoded.insert(encoded.end(), scratch, scratch + 4);
    for (const std::uint64_t off : blockOffsets) {
        putLe(scratch, off, 8);
        encoded.insert(encoded.end(), scratch, scratch + 8);
    }
    putLe(scratch, count, 8); // record-count echo
    encoded.insert(encoded.end(), scratch, scratch + 8);
    appendMagic(trace2fmt::endMagic);

    unsigned char patch[16];
    putLe(patch, count, 8);
    putLe(patch + 8, index_offset, 8);
    if (std::fwrite(encoded.data(), 1, encoded.size(), file) !=
            encoded.size() ||
        std::fseek(file, 16, SEEK_SET) != 0 ||
        std::fwrite(patch, 1, sizeof(patch), file) != sizeof(patch) ||
        std::fclose(file) != 0) {
        file = nullptr;
        pcbp_fatal("write error on '", path, "'");
    }
    file = nullptr;
}

// ------------------------------------------------------------- reader

Trace2Reader::~Trace2Reader()
{
    if (map)
        ::munmap(const_cast<unsigned char *>(map), mapBytes);
}

std::shared_ptr<const Trace2Reader>
Trace2Reader::tryOpen(const std::string &path, std::string &error)
{
    const auto fail = [&](const std::string &what) {
        error = "'" + path + "' " + what;
        return nullptr;
    };

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        error = "cannot open '" + path + "' for reading";
        return nullptr;
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return fail("is not statable");
    }
    const std::uint64_t size = std::uint64_t(st.st_size);
    if (size < trace2fmt::headerBytes + trace2fmt::footerMinBytes) {
        ::close(fd);
        return fail("is shorter than a PCBPTRC2 header and footer");
    }
    void *mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (mapped == MAP_FAILED)
        return fail("cannot be memory-mapped");

    // From here on the mapping must be released on every early exit.
    std::shared_ptr<Trace2Reader> r(new Trace2Reader());
    r->path = path;
    r->map = static_cast<const unsigned char *>(mapped);
    r->mapBytes = size;
    const unsigned char *m = r->map;

    if (std::memcmp(m, trace2fmt::magic, 8) != 0)
        return fail("is not a PCBPTRC2 trace (bad magic)");
    r->fileVersion = std::uint32_t(getLe(m + 8, 4));
    if (r->fileVersion != trace2fmt::version) {
        return fail("has unsupported PCBPTRC2 version " +
                    std::to_string(r->fileVersion));
    }
    r->blockRecords = std::uint32_t(getLe(m + 12, 4));
    if (r->blockRecords < 1 ||
        r->blockRecords > trace2fmt::maxBlockRecords)
        return fail("has an out-of-range records-per-block");
    r->count = getLe(m + 16, 8);
    r->indexOffset = getLe(m + 24, 8);
    if (r->indexOffset < trace2fmt::headerBytes ||
        r->indexOffset > size - trace2fmt::footerMinBytes)
        return fail("has an index offset outside the file");

    const std::uint64_t num_blocks =
        blocksFor(r->count, r->blockRecords);
    // Every block costs at least its 8-byte descriptor, which bounds
    // a corrupt record count before anything is allocated from it.
    if (num_blocks > (r->indexOffset - trace2fmt::headerBytes) / 8)
        return fail("promises more records than its blocks can hold");

    // Footer: dictionary, block index, count echo, end magic — all
    // bounds-checked against the mapping and required to consume the
    // file exactly.
    std::uint64_t pos = r->indexOffset;
    if (std::memcmp(m + pos, trace2fmt::indexMagic, 8) != 0)
        return fail("has a corrupt footer (bad index magic)");
    pos += 8;
    const std::uint64_t static_count = getLe(m + pos, 4);
    pos += 4;
    std::uint64_t prev_id = 0;
    for (std::uint64_t i = 0; i < static_count; ++i) {
        std::uint64_t id_field = 0, pc = 0, uops = 0;
        if (!readVarint(m, size, pos, id_field) ||
            !readVarint(m, size, pos, pc) ||
            !readVarint(m, size, pos, uops))
            return fail("has a truncated static-branch dictionary");
        // Ids ascend strictly. A delta above 32 bits cannot reach a
        // valid id except by wrapping the sum below prev_id.
        const std::uint64_t id =
            i == 0 ? id_field : prev_id + id_field;
        if ((i > 0 && (id_field == 0 || id_field > 0xffffffffull)) ||
            id > 0xffffffffull || uops > 0xffffffffull)
            return fail("has a corrupt static-branch dictionary");
        r->dict.emplace(id, {Addr(pc), std::uint32_t(uops)});
        prev_id = id;
    }
    if (pos + 4 > size)
        return fail("has a truncated footer");
    const std::uint64_t footer_blocks = getLe(m + pos, 4);
    pos += 4;
    if (footer_blocks != num_blocks)
        return fail("has an index that disagrees with its header");
    if (pos + 8 * num_blocks + 16 != size)
        return fail("has a footer of the wrong size");
    r->blockOffsets.reserve(num_blocks);
    std::uint64_t prev_off = 0;
    for (std::uint64_t b = 0; b < num_blocks; ++b) {
        const std::uint64_t off = getLe(m + pos, 8);
        pos += 8;
        if (off < trace2fmt::headerBytes || off + 8 > r->indexOffset ||
            (b == 0 ? off != trace2fmt::headerBytes
                    : off <= prev_off))
            return fail("has a corrupt block index");
        r->blockOffsets.push_back(off);
        prev_off = off;
    }
    if (getLe(m + pos, 8) != r->count)
        return fail("has a record count echo mismatch (torn write)");
    pos += 8;
    if (std::memcmp(m + pos, trace2fmt::endMagic, 8) != 0)
        return fail("has a corrupt footer (bad end magic)");
    return r;
}

std::shared_ptr<const Trace2Reader>
Trace2Reader::open(const std::string &path)
{
    std::string error;
    auto r = tryOpen(path, error);
    if (!r)
        pcbp_fatal(error);
    return r;
}

std::uint32_t
Trace2Reader::blockLength(std::uint64_t b) const
{
    pcbp_assert(b < blockOffsets.size(), "block index out of range");
    const std::uint64_t start = b * blockRecords;
    return std::uint32_t(
        std::min<std::uint64_t>(blockRecords, count - start));
}

bool
Trace2Reader::tryDecodeBlock(std::uint64_t b,
                             std::vector<CommittedBranch> &out,
                             std::string &error) const
{
    const auto fail = [&](const std::string &what) {
        out.clear();
        error = "'" + path + "' block " + std::to_string(b) + " " +
                what;
        return false;
    };

    const std::uint64_t off = blockOffsets[b];
    const std::uint64_t payload = getLe(map + off, 4);
    const std::uint32_t n = std::uint32_t(getLe(map + off + 4, 4));
    if (n != blockLength(b))
        return fail("has the wrong record count");
    if (payload > indexOffset - off - 8)
        return fail("overruns the block region");
    const std::uint64_t end = off + 8 + payload;
    const std::uint64_t outcome_base = off + 8;
    const std::uint64_t outcome_bytes = (std::uint64_t(n) + 7) / 8;
    if (outcome_bytes > payload)
        return fail("is too short for its outcome bitstream");

    out.resize(n);
    std::uint64_t pos = outcome_base + outcome_bytes;
    std::uint64_t prev_id = 0;
    for (std::uint32_t j = 0; j < n; ++j) {
        // The block-id delta of a CFG walk nearly always fits one
        // byte; anything longer takes the bounds-checked loop.
        std::uint64_t v = 0;
        if (pos < end && map[pos] < 0x80)
            v = map[pos++];
        else if (!readVarint(map, end, pos, v))
            return fail("is truncated mid-record (torn write)");
        // Unsigned, so a corrupt delta wraps past the range check
        // instead of overflowing.
        const std::uint64_t id =
            prev_id + std::uint64_t(unzigzag(v >> 1));
        if (id > 0xffffffffull)
            return fail("decodes an out-of-range block id");
        CommittedBranch &r = out[j];
        r.block = BlockId(id);
        r.taken = (map[outcome_base + j / 8] >> (j % 8)) & 1;
        if (v & 1) {
            std::uint64_t pc = 0, uops = 0;
            if (!readVarint(map, end, pos, pc) ||
                !readVarint(map, end, pos, uops) ||
                uops > 0xffffffffull)
                return fail("has a corrupt record exception");
            r.pc = pc;
            r.numUops = std::uint32_t(uops);
        } else {
            const BranchMeta *meta = dict.find(id);
            if (!meta)
                return fail("references a block id missing from the "
                            "static dictionary");
            r.pc = meta->pc;
            r.numUops = meta->uops;
        }
        prev_id = id;
    }
    if (pos != end)
        return fail("does not consume its declared bytes (torn "
                    "write)");
    return true;
}

void
Trace2Reader::decodeBlock(std::uint64_t b,
                          std::vector<CommittedBranch> &out) const
{
    std::string error;
    if (!tryDecodeBlock(b, out, error))
        pcbp_fatal(error);
}

Trace2Info
Trace2Reader::info() const
{
    Trace2Info i;
    i.version = fileVersion;
    i.recordsPerBlock = blockRecords;
    i.recordCount = count;
    i.numBlocks = blockOffsets.size();
    i.staticBranches = dict.size();
    i.fileBytes = mapBytes;
    i.indexBytes = mapBytes - indexOffset;
    return i;
}

// ------------------------------------------------------------ import

namespace
{

using RecordSink = std::function<void(const CommittedBranch &)>;

/**
 * Write the records @p produce feeds its sink to a temporary PCBPTRC2
 * file beside @p out, and rename it over @p out once complete. OUT
 * changes only after the input has been read in full, so input that
 * @p produce rejects — false, with @p error set — leaves OUT as it
 * was. Returns the records written; fatal on error.
 */
std::uint64_t
replaceTraceFile(
    const std::string &out, std::uint32_t records_per_block,
    const std::function<bool(const RecordSink &, std::string &)> &produce)
{
    const std::string tmp = out + ".tmp" + std::to_string(::getpid());
    std::string error;
    bool ok = false;
    std::uint64_t written = 0;
    {
        Trace2Writer w(tmp, records_per_block);
        ok = produce([&](const CommittedBranch &r) { w.append(r); },
                     error);
        w.finish();
        written = w.written();
    }
    if (!ok) {
        std::remove(tmp.c_str());
        pcbp_fatal(error);
    }
    if (std::rename(tmp.c_str(), out.c_str()) != 0) {
        std::remove(tmp.c_str());
        pcbp_fatal("cannot replace '", out, "'");
    }
    return written;
}

/** Skip spaces and tabs. */
const char *
skipBlanks(const char *p)
{
    while (*p == ' ' || *p == '\t')
        ++p;
    return p;
}

/**
 * strtoull that refuses what it would otherwise wrap or clamp: a
 * leading '-' and values past 64 bits. False when no digits parse.
 */
bool
parseU64(const char *p, int base, const char *&end, std::uint64_t &out)
{
    if (*p == '-')
        return false;
    char *e = nullptr;
    errno = 0;
    out = std::strtoull(p, &e, base);
    end = e;
    return e != p && errno != ERANGE;
}

/** One pass of the ASCII importer: see importAsciiTrace. */
bool
scanAsciiTrace(const std::string &in, const RecordSink &fn,
               std::string &error)
{
    std::ifstream file(in, std::ios::binary);
    if (!file) {
        error = "cannot open '" + in + "' for reading";
        return false;
    }
    const auto fail = [&](std::uint64_t line_no, const char *what) {
        error = "'" + in + "' line " + std::to_string(line_no) + ": " +
                what;
        return false;
    };
    // Block ids by distinct PC, first-seen order, so the importer's
    // output replays through reconstructProgramFromTrace like any
    // recorded trace.
    FlatIdTable<BlockId> block_of;
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(file, line)) {
        ++line_no;
        const char *p = skipBlanks(line.c_str());
        if (*p == '\0' || *p == '#')
            continue;
        const char *end = nullptr;
        std::uint64_t pc = 0;
        if (!parseU64(p, 0, end, pc))
            return fail(line_no, "bad PC");
        p = skipBlanks(end);
        bool taken = false;
        if (*p == '1' || *p == 'T' || *p == 't')
            taken = true;
        else if (*p != '0' && *p != 'N' && *p != 'n')
            return fail(line_no, "bad outcome (want 1/0/T/N)");
        p = skipBlanks(p + 1);
        std::uint64_t uops = 1;
        if (*p != '\0' && *p != '\r' && *p != '#' &&
            (!parseU64(p, 10, end, uops) || uops < 1 ||
             uops > 0xffffffffull))
            return fail(line_no, "bad uop count");
        const BlockId id = block_of.emplace(pc, BlockId(block_of.size()));
        fn({id, pc, taken, std::uint32_t(uops)});
    }
    return true;
}

} // namespace

std::uint64_t
importAsciiTrace(const std::string &in, const std::string &out,
                 std::uint32_t records_per_block)
{
    return replaceTraceFile(
        out, records_per_block,
        [&](const RecordSink &fn, std::string &error) {
            return scanAsciiTrace(in, fn, error);
        });
}

std::string
renderTraceInfo(const std::string &path)
{
    char line[128];
    std::string s;
    const auto kv = [&](const char *key, const char *fmt, auto value) {
        std::snprintf(line, sizeof(line),
                      (std::string("%s ") + fmt + "\n").c_str(), key,
                      value);
        s += line;
    };

    const Trace2Info i = Trace2Reader::open(path)->info();
    kv("format", "%s", "pcbptrc2");
    kv("version", "%u", i.version);
    kv("records", "%" PRIu64, i.recordCount);
    kv("records_per_block", "%u", i.recordsPerBlock);
    kv("blocks", "%" PRIu64, i.numBlocks);
    kv("static_branches", "%" PRIu64, i.staticBranches);
    kv("file_bytes", "%" PRIu64, i.fileBytes);
    kv("index_bytes", "%" PRIu64, i.indexBytes);
    kv("bytes_per_record", "%.3f",
       i.recordCount ? double(i.fileBytes) / double(i.recordCount)
                     : 0.0);
    return s;
}

} // namespace pcbp
