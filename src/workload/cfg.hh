/**
 * @file
 * The program model: a control flow graph of basic blocks, each
 * ending in one conditional branch whose architectural outcome is
 * described by a BranchBehavior. The CFG is what lets the simulator
 * actually walk wrong paths (§6 of the paper: future bits must come
 * from really going down the wrong path, which a linear trace cannot
 * provide).
 *
 * A built Program is immutable data: it holds no walk state, so every
 * cell, fork and worker thread of a sweep reads one program through a
 * const reference while each walk (ProgramWalkStream) keeps its own
 * state.
 */

#ifndef PCBP_WORKLOAD_CFG_HH
#define PCBP_WORKLOAD_CFG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "workload/behavior.hh"

namespace pcbp
{

/** One basic block: some uops, then a conditional branch. */
struct BasicBlock
{
    /** Address of the terminating conditional branch. */
    Addr branchPc = 0;
    /** Micro-ops in the block, including the branch uop. */
    std::uint32_t numUops = 1;
    /** Successor when the branch is taken. */
    BlockId takenTarget = invalidBlock;
    /** Successor when the branch falls through. */
    BlockId fallthroughTarget = invalidBlock;
};

/**
 * A synthetic program: its blocks, each block's branch behavior (kept
 * apart from the blocks, so the speculative front end's CFG walk
 * reads only the small block records), and the phase clocks its
 * phase revealers share.
 */
class Program
{
  public:
    explicit Program(std::string name);

    Program(Program &&) = default;
    Program &operator=(Program &&) = default;
    Program(const Program &) = delete;
    Program &operator=(const Program &) = delete;

    /** Room for @p blocks blocks, so a builder that knows its size
     *  allocates once. */
    void reserve(std::size_t blocks);

    /** Append a block ending in a branch of @p behavior; returns its id. */
    BlockId addBlock(const BasicBlock &block,
                     const BranchBehavior &behavior);

    /** Add a phase clock; phase revealers name the returned index. */
    unsigned addPhaseClock(const PhaseClockSpec &spec);

    /** Check every target and phase-clock index is valid. Builders
     *  call it once, when the program is complete. */
    void validate() const;

    const std::string &name() const { return progName; }
    std::size_t numBlocks() const { return blocks.size(); }
    const BasicBlock &
    block(BlockId id) const
    {
        pcbp_dassert(id < blocks.size());
        return blocks[id];
    }

    /** The behavior of the branch ending block @p id. */
    const BranchBehavior &
    behavior(BlockId id) const
    {
        pcbp_dassert(id < behaviors.size());
        return behaviors[id];
    }

    const std::vector<PhaseClockSpec> &phaseClocks() const
    {
        return clocks;
    }

    /** Mutable access, for builders fixing up targets. */
    BasicBlock &blockMut(BlockId id);
    BlockId entry() const { return 0; }

    /** Successor of @p id for direction @p taken. */
    BlockId
    successor(BlockId id, bool taken) const
    {
        const BasicBlock &b = block(id);
        return taken ? b.takenTarget : b.fallthroughTarget;
    }

  private:
    std::string progName;
    std::vector<BasicBlock> blocks;
    std::vector<BranchBehavior> behaviors; //!< parallel to blocks
    std::vector<PhaseClockSpec> clocks;
};

/** One committed branch of a program walk. */
struct CommittedBranch
{
    BlockId block;
    Addr pc;
    bool taken;
    std::uint32_t numUops;
};

} // namespace pcbp

#endif // PCBP_WORKLOAD_CFG_HH
