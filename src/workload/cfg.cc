#include "workload/cfg.hh"

#include "common/logging.hh"

namespace pcbp
{

Program::Program(std::string name) : progName(std::move(name))
{
}

void
Program::reserve(std::size_t n)
{
    blocks.reserve(n);
    behaviors.reserve(n);
}

BlockId
Program::addBlock(const BasicBlock &block, const BranchBehavior &behavior)
{
    blocks.push_back(block);
    behaviors.push_back(behavior);
    return static_cast<BlockId>(blocks.size() - 1);
}

unsigned
Program::addPhaseClock(const PhaseClockSpec &spec)
{
    clocks.push_back(spec);
    return static_cast<unsigned>(clocks.size() - 1);
}

void
Program::validate() const
{
    pcbp_assert(!blocks.empty(), "program '", progName, "' has no blocks");
    for (const PhaseClockSpec &c : clocks)
        pcbp_assert(c.lo >= 1 && c.lo <= c.hi, "bad phase clock range");
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        const auto &b = blocks[i];
        pcbp_assert(b.takenTarget < blocks.size(),
                    "block ", i, " taken target out of range");
        pcbp_assert(b.fallthroughTarget < blocks.size(),
                    "block ", i, " fallthrough target out of range");
        pcbp_assert(b.numUops >= 1, "block ", i, " has no uops");
        pcbp_assert(behaviors[i].kind != BehaviorKind::PhaseReveal ||
                        behaviors[i].n0 < clocks.size(),
                    "block ", i, " reveals a phase clock out of range");
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

} // namespace pcbp
