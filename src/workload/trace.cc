#include "workload/trace.hh"

#include <cinttypes>
#include <cstdio>
#include <set>

#include "common/logging.hh"
#include "workload/behavior.hh"
#include "workload/trace2.hh"

namespace pcbp
{

namespace
{

std::string
hexPc(Addr pc)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%" PRIx64, std::uint64_t(pc));
    return buf;
}

} // namespace

bool
tryScanTraceFile(const std::string &path,
                 const std::function<void(const CommittedBranch &)> &fn,
                 std::string &error)
{
    const auto reader = Trace2Reader::tryOpen(path, error);
    if (!reader)
        return false;
    std::vector<CommittedBranch> block;
    for (std::uint64_t b = 0; b < reader->numBlocks(); ++b) {
        if (!reader->tryDecodeBlock(b, block, error))
            return false;
        for (const CommittedBranch &r : block)
            fn(r);
    }
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

    std::uint64_t records = 0;
    CommittedBranch prev{};
    scanTraceFile(path, [&](const CommittedBranch &r) {
        BlockInfo &b = infoFor(r.block);
        b.seen = true;
        b.pc = r.pc;
        b.numUops = std::max<std::uint32_t>(r.numUops, 1);
        ++b.execs;
        if (r.taken)
            ++b.takens;
        if (records > 0) {
            BlockInfo &p = info[prev.block];
            BlockId &edge =
                prev.taken ? p.takenTarget : p.fallthroughTarget;
            if (edge == invalidBlock) {
                edge = r.block;
            } else if (edge != r.block) {
                // Replay walks one CFG, so a branch direction leads to
                // one block only: a trace that no such walk produced
                // is refused as a whole, before any replay starts.
                pcbp_fatal("trace '", path, "' record ", records - 1,
                           ": the ", prev.taken ? "taken" : "not-taken",
                           " branch at ", hexPc(prev.pc),
                           " continues to ", hexPc(r.pc),
                           " where it continued to ",
                           hexPc(info[edge].pc),
                           " before; replay needs one successor per "
                           "branch direction");
            }
        }
        ++records;
        prev = r;
    });
    if (records == 0)
        pcbp_fatal("trace '", path, "' is empty; nothing to reconstruct");

    Program prog(name);
    prog.reserve(info.size());
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
            prog.addBlock(blk, BranchBehavior::biased(
                                   0.5, std::uint64_t(id) + 1));
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
        prog.addBlock(
            blk, BranchBehavior::biased(
                     b.execs ? double(b.takens) / double(b.execs) : 0.5,
                     std::uint64_t(id) + 1));
    }
    prog.validate();
    return prog;
}

} // namespace pcbp
