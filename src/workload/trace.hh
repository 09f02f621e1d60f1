/**
 * @file
 * Committed-branch traces: the PCBPTRC1 interchange format, and the
 * format-generic scan, summary and CFG-reconstruction entry points.
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
 * Format (see DESIGN.md §5): 16-byte header ("PCBPTRC1" magic + u64
 * record count), then one 17-byte record per branch: u32 block,
 * u64 pc, u8 taken, u32 uops, all little-endian.
 *
 * PCBPTRC1 is the flat *interchange* format; replay reads only
 * PCBPTRC2, the block-compressed indexed store (workload/trace2.hh),
 * and `pcbp_trace convert F F` turns one into the other in place.
 * The scan entry points below (tryScanTraceFile, scanTraceFile,
 * traceFileCount, and everything built on them: loadTrace,
 * summaries, reconstruction, conversion) sniff the magic and read
 * either format, so a file can be inspected before it is converted.
 */

#ifndef PCBP_WORKLOAD_TRACE_HH
#define PCBP_WORKLOAD_TRACE_HH

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "workload/cfg.hh"

namespace pcbp
{

/** @name PCBPTRC1 wire format: the magic PCBPTRC2 readers reject,
 *  and the sizes `pcbp_trace info` compares against. */
/// @{
namespace tracefmt
{

constexpr char magic[8] = {'P', 'C', 'B', 'P', 'T', 'R', 'C', '1'};
constexpr std::size_t headerBytes = 16;
constexpr std::size_t recordBytes = 17;

} // namespace tracefmt
/// @}

/**
 * One chunked pass over every record of a trace file of either
 * format (magic-sniffed), in order — the shared reader under
 * summaries and CFG reconstruction (O(chunk) memory; fatal on
 * truncation).
 */
void scanTraceFile(const std::string &path,
                   const std::function<void(const CommittedBranch &)> &fn);

/**
 * Non-fatal scanTraceFile: false (with @p error filled) on
 * unreadable, corrupt-magic, or truncated files, without invoking
 * @p fn past the corruption. The fuzz/property tests drive random
 * garbage through this entry point; CLI paths keep the fatal
 * wrapper.
 */
bool tryScanTraceFile(
    const std::string &path,
    const std::function<void(const CommittedBranch &)> &fn,
    std::string &error);

/**
 * Streaming trace writer: append records one at a time (buffered,
 * chunked), then finish() patches the record count into the header.
 * The destructor finishes automatically; construction and I/O errors
 * are fatal.
 */
class TraceWriter
{
  public:
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void append(const CommittedBranch &r);

    /** Flush, patch the header count, and close. Idempotent. */
    void finish();

    std::uint64_t written() const { return count; }

  private:
    std::string path;
    std::FILE *file = nullptr;
    std::uint64_t count = 0;
};

/** Write a committed trace to a binary file (TraceWriter loop). */
void saveTrace(const std::string &path,
               const std::vector<CommittedBranch> &trace);

/** Read a trace written by saveTrace (fatal on format errors). */
std::vector<CommittedBranch> loadTrace(const std::string &path);

/** Record count from a trace file's header, either format (fatal on
 *  bad files). */
std::uint64_t traceFileCount(const std::string &path);

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

/** Summarize a trace. */
TraceSummary summarizeTrace(const std::vector<CommittedBranch> &trace);

/** Summarize a trace file in one chunked pass (O(chunk) memory). */
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
 * takes outcomes from the trace. One chunked pass, O(static blocks)
 * memory.
 */
Program reconstructProgramFromTrace(const std::string &path,
                                    const std::string &name);

} // namespace pcbp

#endif // PCBP_WORKLOAD_TRACE_HH
