#include "workload/cfg.hh"

#include "common/logging.hh"

namespace pcbp
{

Program::Program(std::string name) : progName(std::move(name))
{
}

BlockId
Program::addBlock(BasicBlock block)
{
    blocks.push_back(std::move(block));
    return static_cast<BlockId>(blocks.size() - 1);
}

void
Program::validate() const
{
    pcbp_assert(!blocks.empty(), "program '", progName, "' has no blocks");
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        const auto &b = blocks[i];
        pcbp_assert(b.takenTarget < blocks.size(),
                    "block ", i, " taken target out of range");
        pcbp_assert(b.fallthroughTarget < blocks.size(),
                    "block ", i, " fallthrough target out of range");
        pcbp_assert(b.behavior != nullptr, "block ", i, " has no behavior");
        pcbp_assert(b.numUops >= 1, "block ", i, " has no uops");
        // Equal taken/fallthrough targets are allowed: they model a
        // conditional branch around nothing (straight-line relays in
        // echo chains). Wrong-path divergence comes from the blocks
        // where targets differ.
    }
}

BasicBlock &
Program::blockMut(BlockId id)
{
    pcbp_assert(id < blocks.size());
    return blocks[id];
}

bool
Program::evalOutcome(BlockId id)
{
    pcbp_dassert(id < blocks.size());
    const ArchContext ctx{committed, commits};
    const bool taken = blocks[id].behavior->nextOutcome(ctx);
    committed.shiftIn(taken);
    ++commits;
    return taken;
}

void
Program::resetWalk()
{
    committed.reset();
    commits = 0;
    for (auto &b : blocks)
        b.behavior->reset();
}

Program
Program::clone() const
{
    Program out(progName);
    out.blocks.reserve(blocks.size());
    for (const auto &b : blocks) {
        BasicBlock copy;
        copy.branchPc = b.branchPc;
        copy.numUops = b.numUops;
        copy.takenTarget = b.takenTarget;
        copy.fallthroughTarget = b.fallthroughTarget;
        copy.behavior = b.behavior ? b.behavior->clone() : nullptr;
        out.blocks.push_back(std::move(copy));
    }
    out.committed = committed;
    out.commits = commits;
    return out;
}

std::vector<CommittedBranch>
walkProgram(Program &program, std::uint64_t num_branches)
{
    program.validate();
    program.resetWalk();
    std::vector<CommittedBranch> out;
    out.reserve(num_branches);
    BlockId cur = program.entry();
    for (std::uint64_t i = 0; i < num_branches; ++i) {
        const BasicBlock &b = program.block(cur);
        const bool taken = program.evalOutcome(cur);
        out.push_back({cur, b.branchPc, taken, b.numUops});
        cur = program.successor(cur, taken);
    }
    return out;
}

} // namespace pcbp
