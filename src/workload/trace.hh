/**
 * @file
 * Committed-branch traces: the summary and CFG-reconstruction entry
 * points over PCBPTRC2 files (workload/trace2.hh).
 *
 * A trace is the committed (correct-path) branch stream of a program
 * walk. Traces are useful for conventional predictor evaluation, for
 * regression tests, and — replayed through a CompressedTraceStream
 * (sim/committed_stream.hh) against a CFG reconstructed with
 * reconstructProgramFromTrace() — as a workload class of their own
 * (`trace:<path>` in the registry). Note, exactly as §6 of the paper
 * argues, that a linear trace *cannot* by itself drive a
 * prophet/critic hybrid faithfully: the future bits must be produced
 * by really walking the wrong path through a CFG. Feeding
 * correct-path outcomes as future bits gives the critic oracle
 * information (the `ablations` figure's oracle panel quantifies the
 * inflation).
 *
 * The file format is PCBPTRC2 (DESIGN.md §5, §13), written by
 * Trace2Writer and read through Trace2Reader.
 */

#ifndef PCBP_WORKLOAD_TRACE_HH
#define PCBP_WORKLOAD_TRACE_HH

#include <string>

#include "workload/cfg.hh"

namespace pcbp
{

/**
 * Statistics of a committed trace: branch/uop counts, taken rate,
 * distinct static branches.
 */
struct TraceSummary
{
    std::uint64_t branches = 0;
    std::uint64_t uops = 0;
    std::uint64_t takenBranches = 0;
    std::uint64_t staticBranches = 0;

    double takenRate() const
    {
        return branches ? double(takenBranches) / double(branches) : 0.0;
    }

    double uopsPerBranch() const
    {
        return branches ? double(uops) / double(branches) : 0.0;
    }
};

/** Summarize a trace file in one pass (O(block) memory). */
TraceSummary summarizeTraceFile(const std::string &path);

/**
 * Rebuild a Program from a trace file so the trace can drive the
 * speculative simulators: block ids, branch PCs and uop counts come
 * from the records; successor edges are learned from consecutive
 * records. Edges never exercised by the trace fall back to the
 * block's other successor (a branch around nothing), so wrong-path
 * walks stay inside the CFG; behaviors are fitted per-block biased
 * coins (matching each block's observed taken rate), used only if
 * the reconstructed program is walked synthetically — replay itself
 * takes outcomes from the trace. One scan, O(static blocks) memory.
 *
 * Fatal on a file that cannot be replayed: a malformed or empty
 * trace, a block id at or past 2^24, or a branch direction with two
 * successors (one block id followed by different blocks after the
 * same outcome, as a branch reached from two call sites shows in a
 * real-program trace). That message names the 0-based ordinal of
 * the first record whose successor differs from an earlier one's,
 * its PC and direction, and both successor PCs.
 */
Program reconstructProgramFromTrace(const std::string &path,
                                    const std::string &name);

} // namespace pcbp

#endif // PCBP_WORKLOAD_TRACE_HH
