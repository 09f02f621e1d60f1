#include "sim/committed_stream.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/stat_registry.hh"

namespace pcbp
{

void
CommittedStream::growWindow()
{
    std::vector<CommittedBranch> bigger(window.size() * 2);
    for (std::size_t i = 0; i < count; ++i)
        bigger[i] = window[(head + i) & (window.size() - 1)];
    window = std::move(bigger);
    head = 0;
}

const CommittedBranch *
CommittedStream::atSlow(std::uint64_t idx)
{
    pcbp_assert(idx >= base, "reading a released committed record");
    while (!ended && base + count <= idx) {
        if (count == window.size())
            growWindow();
        CommittedBranch r;
        if (!produceNext(r)) {
            ended = true;
            break;
        }
        window[(head + count) & (window.size() - 1)] = r;
        ++count;
        peak = std::max(peak, count);
    }
    if (idx < base + count)
        return &window[(head + static_cast<std::size_t>(idx - base)) &
                       (window.size() - 1)];
    return nullptr;
}

ProgramWalkStream::ProgramWalkStream(const Program &program_,
                                     std::uint64_t limit_)
    : program(program_), limit(limit_), cur(program_.entry())
{
    states.reserve(program.numBlocks());
    for (BlockId id = 0; id < program.numBlocks(); ++id)
        states.push_back(initialState(program.behavior(id)));
    clocks.reserve(program.phaseClocks().size());
    for (const PhaseClockSpec &spec : program.phaseClocks())
        clocks.emplace_back(spec);
}

ProgramWalkStream::ProgramWalkStream(const ProgramWalkStream &other,
                                     std::uint64_t limit_)
    : CommittedStream(other), program(other.program), limit(limit_),
      cur(other.cur), walked(other.walked), committed(other.committed),
      states(other.states), clocks(other.clocks)
{
    // The adopted window and walk cursor must lie inside this
    // stream's own budget, or the fork would hold records a fresh
    // stream of this limit could never have produced.
    pcbp_assert(walked <= limit,
                "stream fork past the forked stream's limit");
}

bool
ProgramWalkStream::produceNext(CommittedBranch &out)
{
    if (walked >= limit)
        return false;
    const BasicBlock &b = program.block(cur);
    const ArchContext ctx{committed, walked, clocks.data()};
    const bool taken = nextOutcome(program.behavior(cur), states[cur], ctx);
    committed.shiftIn(taken);
    out = {cur, b.branchPc, taken, b.numUops};
    cur = program.successor(cur, taken);
    ++walked;
    return true;
}

CompressedTraceStream::CompressedTraceStream(const std::string &path)
    : reader(Trace2Reader::open(path))
{
}

bool
CompressedTraceStream::produceNext(CommittedBranch &out)
{
    if (decoded >= reader->recordCount())
        return false;
    const std::uint64_t b = reader->blockOfOrdinal(decoded);
    if (b != blockIdx) {
        reader->decodeBlock(b, block);
        blockIdx = b;
        ++blockDecodes;
    }
    out = block[static_cast<std::size_t>(
        decoded - b * reader->recordsPerBlock())];
    ++decoded;
    return true;
}

void
CompressedTraceStream::exportHostStats(StatRegistry &reg) const
{
    reg.addHost("trace.store.blocks_decoded", blockDecodes);
    reg.setHostMax("trace.store.bytes_mapped", reader->mappedBytes());
}

std::unique_ptr<CompressedTraceStream>
openTraceStream(const std::string &path)
{
    return std::make_unique<CompressedTraceStream>(path);
}

bool
PrecomputedStream::produceNext(CommittedBranch &out)
{
    if (next >= trace.size())
        return false;
    out = trace[static_cast<std::size_t>(next++)];
    return true;
}

} // namespace pcbp
