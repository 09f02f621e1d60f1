/**
 * @file
 * The program model: a control flow graph of basic blocks, each
 * ending in one conditional branch whose architectural outcome is
 * produced by a BranchBehavior. The CFG is what lets the simulator
 * actually walk wrong paths (§6 of the paper: future bits must come
 * from really going down the wrong path, which a linear trace cannot
 * provide).
 */

#ifndef PCBP_WORKLOAD_CFG_HH
#define PCBP_WORKLOAD_CFG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/history_register.hh"
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
    /** Architectural outcome generator. */
    BranchBehaviorPtr behavior;
};

/**
 * A synthetic program. Owns its blocks and the architectural walker
 * state (committed global history) used by behavior evaluation.
 */
class Program
{
  public:
    explicit Program(std::string name);

    Program(Program &&) = default;
    Program &operator=(Program &&) = default;

    /** Append a block; returns its id. */
    BlockId addBlock(BasicBlock block);

    /** Check every target is valid and every behavior present. */
    void validate() const;

    const std::string &name() const { return progName; }
    std::size_t numBlocks() const { return blocks.size(); }
    const BasicBlock &
    block(BlockId id) const
    {
        pcbp_dassert(id < blocks.size());
        return blocks[id];
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

    /**
     * Architectural step: evaluate the outcome of the branch ending
     * @p id, advance committed history, and return the outcome.
     * Must be called in commit order only.
     */
    bool evalOutcome(BlockId id);

    /** Number of architectural evaluations so far. */
    std::uint64_t commitCount() const { return commits; }

    /** Reset the walker and all behavior state. */
    void resetWalk();

    /**
     * Deep copy, mid-walk state included: blocks (behaviors cloned),
     * committed history, and the commit counter. The clone's
     * architectural walk continues exactly where this program's
     * would — the fork seam of the sweep runner (DESIGN.md §11).
     */
    Program clone() const;

  private:
    std::string progName;
    std::vector<BasicBlock> blocks;
    HistoryRegister committed;
    std::uint64_t commits = 0;
};

/** One committed branch of a program walk. */
struct CommittedBranch
{
    BlockId block;
    Addr pc;
    bool taken;
    std::uint32_t numUops;
};

/**
 * Walk the program architecturally for @p num_branches branches from
 * the entry block, resetting behavior state first. The committed
 * path is independent of any predictor (behaviors read only
 * committed state), so the walk can be precomputed exactly.
 */
std::vector<CommittedBranch> walkProgram(Program &program,
                                         std::uint64_t num_branches);

} // namespace pcbp

#endif // PCBP_WORKLOAD_CFG_HH
