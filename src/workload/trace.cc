#include "workload/trace.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>

#include "common/logging.hh"
#include "workload/behavior.hh"
#include "workload/trace2.hh"

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

/** Encode one record into @p out (recordBytes bytes). */
void
encodeRecord(const CommittedBranch &r, unsigned char *out)
{
    putLe(out, r.block, 4);
    putLe(out + 4, r.pc, 8);
    out[12] = r.taken ? 1 : 0;
    putLe(out + 13, r.numUops, 4);
}

/** Decode one record from @p in (recordBytes bytes). */
CommittedBranch
decodeRecord(const unsigned char *in)
{
    CommittedBranch r;
    r.block = static_cast<BlockId>(getLe(in, 4));
    r.pc = getLe(in + 4, 8);
    r.taken = in[12] != 0;
    r.numUops = static_cast<std::uint32_t>(getLe(in + 13, 4));
    return r;
}

/**
 * Open a PCBPTRC1 file positioned at its first record, with the
 * header's record count in @p count; the caller closes the handle.
 * nullptr on an unreadable, short, or wrong-magic file, with a
 * description in @p error. The header's record count is checked
 * against the file's actual size, so a corrupted count (bit flip,
 * torn write) is rejected here instead of surfacing as a read error
 * mid-scan.
 */
std::FILE *
tryOpenTraceFile(const std::string &path, std::uint64_t &count,
                 std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        error = "cannot open '" + path + "' for reading";
        return nullptr;
    }
    unsigned char header[tracefmt::headerBytes];
    if (std::fread(header, 1, sizeof(header), f) != sizeof(header)) {
        std::fclose(f);
        error = "'" + path + "' is shorter than a trace header";
        return nullptr;
    }
    if (std::memcmp(header, tracefmt::magic, 8) != 0) {
        std::fclose(f);
        error = "'" + path + "' is not a pcbp trace (bad magic)";
        return nullptr;
    }
    count = 0;
    for (int i = 7; i >= 0; --i)
        count = (count << 8) | header[8 + i];

    // Validate the header count against the bytes actually present,
    // so a corrupted count is an immediate, precise error instead of
    // a surprise mid-scan. filesystem::file_size (not ftell, whose
    // long return truncates >2GiB traces on 32-bit-long platforms).
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    const std::uint64_t body =
        ec || size < tracefmt::headerBytes
            ? 0
            : std::uint64_t(size) - tracefmt::headerBytes;
    if (body / tracefmt::recordBytes < count) {
        std::fclose(f);
        error = "'" + path + "' is truncated: header promises " +
                std::to_string(count) + " records, file holds " +
                std::to_string(body / tracefmt::recordBytes);
        return nullptr;
    }
    return f;
}

} // namespace

bool
tryScanTraceFile(const std::string &path,
                 const std::function<void(const CommittedBranch &)> &fn,
                 std::string &error)
{
    if (isTrace2File(path))
        return tryScanTrace2File(path, fn, error);

    std::uint64_t n = 0;
    std::FILE *f = tryOpenTraceFile(path, n, error);
    if (!f)
        return false;

    constexpr std::size_t chunkRecords = 4096;
    std::vector<unsigned char> buf(chunkRecords * tracefmt::recordBytes);
    std::uint64_t remaining = n;
    while (remaining > 0) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, chunkRecords));
        if (std::fread(buf.data(), tracefmt::recordBytes, want, f) !=
            want) {
            std::fclose(f);
            error = "trace file '" + path + "' truncated mid-scan";
            return false;
        }
        for (std::size_t i = 0; i < want; ++i) {
            fn(decodeRecord(buf.data() +
                                      i * tracefmt::recordBytes));
        }
        remaining -= want;
    }
    std::fclose(f);
    return true;
}

void
scanTraceFile(const std::string &path,
              const std::function<void(const CommittedBranch &)> &fn)
{
    std::string error;
    if (!tryScanTraceFile(path, fn, error))
        pcbp_fatal(error);
}

TraceWriter::TraceWriter(const std::string &path_) : path(path_)
{
    file = std::fopen(path.c_str(), "wb");
    if (!file)
        pcbp_fatal("cannot open '", path, "' for writing");
    unsigned char header[tracefmt::headerBytes] = {};
    std::memcpy(header, tracefmt::magic, 8);
    // Count is patched by finish(); zero until then.
    if (std::fwrite(header, 1, sizeof(header), file) != sizeof(header))
        pcbp_fatal("write error on '", path, "'");
}

TraceWriter::~TraceWriter()
{
    finish();
}

void
TraceWriter::append(const CommittedBranch &r)
{
    pcbp_assert(file != nullptr, "appending to a finished TraceWriter");
    unsigned char rec[tracefmt::recordBytes];
    encodeRecord(r, rec);
    if (std::fwrite(rec, 1, sizeof(rec), file) != sizeof(rec))
        pcbp_fatal("write error on '", path, "'");
    ++count;
}

void
TraceWriter::finish()
{
    if (!file)
        return;
    unsigned char cnt[8];
    for (int i = 0; i < 8; ++i)
        cnt[i] = (count >> (8 * i)) & 0xff;
    if (std::fseek(file, 8, SEEK_SET) != 0 ||
        std::fwrite(cnt, 1, 8, file) != 8 || std::fclose(file) != 0) {
        file = nullptr;
        pcbp_fatal("write error on '", path, "'");
    }
    file = nullptr;
}

void
saveTrace(const std::string &path,
          const std::vector<CommittedBranch> &trace)
{
    TraceWriter w(path);
    for (const auto &r : trace)
        w.append(r);
    w.finish();
}

std::vector<CommittedBranch>
loadTrace(const std::string &path)
{
    std::vector<CommittedBranch> trace;
    trace.reserve(traceFileCount(path));
    scanTraceFile(path, [&](const CommittedBranch &r) {
        trace.push_back(r);
    });
    return trace;
}

std::uint64_t
traceFileCount(const std::string &path)
{
    if (isTrace2File(path))
        return Trace2Reader::open(path)->recordCount();
    std::uint64_t n = 0;
    std::string error;
    std::FILE *f = tryOpenTraceFile(path, n, error);
    if (!f)
        pcbp_fatal(error);
    std::fclose(f);
    return n;
}

TraceSummary
summarizeTrace(const std::vector<CommittedBranch> &trace)
{
    TraceSummary s;
    std::set<Addr> pcs;
    for (const auto &r : trace) {
        ++s.branches;
        s.uops += r.numUops;
        if (r.taken)
            ++s.takenBranches;
        pcs.insert(r.pc);
    }
    s.staticBranches = pcs.size();
    return s;
}

TraceSummary
summarizeTraceFile(const std::string &path)
{
    TraceSummary s;
    std::set<Addr> pcs;
    scanTraceFile(path, [&](const CommittedBranch &r) {
        ++s.branches;
        s.uops += r.numUops;
        if (r.taken)
            ++s.takenBranches;
        pcs.insert(r.pc);
    });
    s.staticBranches = pcs.size();
    return s;
}

Program
reconstructProgramFromTrace(const std::string &path,
                            const std::string &name)
{
    if (traceFileCount(path) == 0)
        pcbp_fatal("trace '", path, "' is empty; nothing to reconstruct");

    struct BlockInfo
    {
        bool seen = false;
        Addr pc = 0;
        std::uint32_t numUops = 1;
        BlockId takenTarget = invalidBlock;
        BlockId fallthroughTarget = invalidBlock;
        std::uint64_t execs = 0;
        std::uint64_t takens = 0;
    };
    std::vector<BlockInfo> info;
    constexpr std::size_t maxBlocks = std::size_t(1) << 24;

    auto infoFor = [&](BlockId id) -> BlockInfo & {
        if (id >= info.size()) {
            if (id >= maxBlocks)
                pcbp_fatal("trace '", path, "' block id ", id,
                           " exceeds the reconstruction limit");
            info.resize(id + 1);
        }
        return info[id];
    };

    bool havePrev = false;
    CommittedBranch prev{};
    scanTraceFile(path, [&](const CommittedBranch &r) {
        BlockInfo &b = infoFor(r.block);
        b.seen = true;
        b.pc = r.pc;
        b.numUops = std::max<std::uint32_t>(r.numUops, 1);
        ++b.execs;
        if (r.taken)
            ++b.takens;
        if (havePrev) {
            BlockInfo &p = infoFor(prev.block);
            BlockId &edge =
                prev.taken ? p.takenTarget : p.fallthroughTarget;
            if (edge == invalidBlock)
                edge = r.block;
            // A conflicting successor would mean the trace was not
            // produced by a deterministic CFG walk; keep the first
            // edge so replay fails loudly at the walk assertion
            // rather than silently diverging.
        }
        havePrev = true;
        prev = r;
    });

    Program prog(name);
    for (std::size_t id = 0; id < info.size(); ++id) {
        BlockInfo &b = info[id];
        BasicBlock blk;
        if (!b.seen) {
            // Filler for an id hole: harmless self-loop, never on
            // the committed path.
            blk.branchPc = 0xf1110000 + Addr(id) * 16;
            blk.numUops = 1;
            blk.takenTarget = static_cast<BlockId>(id);
            blk.fallthroughTarget = static_cast<BlockId>(id);
            blk.behavior = std::make_unique<BiasedBehavior>(
                0.5, std::uint64_t(id) + 1);
            prog.addBlock(std::move(blk));
            continue;
        }
        // An unexercised direction falls back to the exercised one
        // (or self if the block only appears as the last record).
        if (b.takenTarget == invalidBlock)
            b.takenTarget = b.fallthroughTarget != invalidBlock
                                ? b.fallthroughTarget
                                : static_cast<BlockId>(id);
        if (b.fallthroughTarget == invalidBlock)
            b.fallthroughTarget = b.takenTarget;
        blk.branchPc = b.pc;
        blk.numUops = b.numUops;
        blk.takenTarget = b.takenTarget;
        blk.fallthroughTarget = b.fallthroughTarget;
        blk.behavior = std::make_unique<BiasedBehavior>(
            b.execs ? double(b.takens) / double(b.execs) : 0.5,
            std::uint64_t(id) + 1);
        prog.addBlock(std::move(blk));
    }
    prog.validate();
    return prog;
}

} // namespace pcbp
