/**
 * @file
 * Streaming committed-branch sources.
 *
 * Both simulators consume the architectural (committed) branch
 * stream strictly at their commit/resolve pointers, plus a small
 * lookahead for the oracle-future-bit ablation. Precomputing the
 * whole stream into a std::vector<CommittedBranch> therefore wastes
 * O(run length) memory for O(pipeline) worth of liveness — and caps
 * how long a run can be. A CommittedStream produces records on
 * demand into a sliding window: the consumer reads records by
 * absolute index with at(), and releases everything older than its
 * commit pointer with release(), so resident memory is bounded by
 * pipeline depth + future-bit lookahead regardless of run length.
 *
 * Backends:
 *  - ProgramWalkStream: walks a Program's CFG architecturally on the
 *    fly, from walk state of its own (the default path).
 *  - CompressedTraceStream: block-decoded replay of a PCBPTRC2
 *    compressed indexed trace (workload/trace2.hh), sharing one
 *    mmap-backed reader across forks.
 *  - PrecomputedStream: wraps an in-memory vector; the reference the
 *    equivalence tests pin the streaming backends against.
 *
 * See DESIGN.md §4 for how the streams plug into the spec core.
 */

#ifndef PCBP_SIM_COMMITTED_STREAM_HH
#define PCBP_SIM_COMMITTED_STREAM_HH

#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "workload/cfg.hh"
#include "workload/trace2.hh"

namespace pcbp
{

class StatRegistry;

/**
 * A monotone window over the committed branch stream.
 *
 * Usage contract: at(i) is valid for any i not yet released; records
 * below the release floor are gone for good (asserted). Streams are
 * single-use — construct a fresh one per run.
 *
 * The resident window is a power-of-two ring buffer and the
 * window-hit path of at()/release() is inline: both simulators call
 * them once per committed branch, so the common case — the record is
 * already resident — must cost an index mask, not an out-of-line
 * call into deque bookkeeping. Production (the virtual produceNext)
 * happens on the atSlow() refill path only.
 */
class CommittedStream
{
  public:
    virtual ~CommittedStream() = default;

    /**
     * Record at absolute index @p idx, producing records on demand.
     * Returns nullptr once @p idx is at or past the end of the
     * stream. The pointer is invalidated by the next at()/release().
     */
    const CommittedBranch *
    at(std::uint64_t idx)
    {
        pcbp_dassert(idx >= base, "reading a released committed record");
        if (idx - base < count) {
            return &window[static_cast<std::size_t>(head + (idx - base)) &
                           (window.size() - 1)];
        }
        ++refillCount; // cold path: counting here costs nothing hot
        return atSlow(idx);
    }

    /** Allow records at indices below @p idx to be discarded. */
    void
    release(std::uint64_t idx)
    {
        while (base < idx && count > 0) {
            head = (head + 1) & (window.size() - 1);
            ++base;
            --count;
        }
    }

    /** Total records this stream will produce. */
    virtual std::uint64_t length() const = 0;

    /** High-water mark of the window — the memory bound under test. */
    std::size_t windowPeak() const { return peak; }

    /** Records produced so far (window base + window size). */
    std::uint64_t produced() const { return base + count; }

    /** Times at() fell off the window onto the refill path. */
    std::uint64_t refills() const { return refillCount; }

    /** Backend identifier for stats ("program_walk", ...). */
    virtual const char *backendName() const = 0;

    /**
     * Export backend-specific host counters (trace.store.* for the
     * compressed backend) into the *host* section of @p reg. Host
     * stats describe this execution, never the simulated work, so
     * backends may differ here without breaking any byte-identity
     * contract (see obs/stat_registry.hh). Default: nothing.
     */
    virtual void exportHostStats(StatRegistry &) const {}

  protected:
    CommittedStream() : window(kInitialWindow) {}

    /**
     * Fork support (DESIGN.md §11): copy the window, cursors, and
     * counters of @p other, so a derived-class fork constructor that
     * also duplicates its production state yields a stream whose
     * at()/release()/stats behavior is indistinguishable from one
     * that replayed @p other's call sequence from scratch. Protected:
     * only derived classes know how to duplicate production state.
     */
    CommittedStream(const CommittedStream &other) = default;

    /** Produce the next record; false once the stream is done. */
    virtual bool produceNext(CommittedBranch &out) = 0;

  private:
    static constexpr std::size_t kInitialWindow = 64;

    /** Refill the window up to @p idx (or the end of the stream). */
    const CommittedBranch *atSlow(std::uint64_t idx);

    /** Double the ring (record order preserved); stays 2^n. */
    void growWindow();

    std::vector<CommittedBranch> window; //!< 2^n ring buffer
    std::size_t head = 0;                //!< ring slot of `base`
    std::size_t count = 0;               //!< resident records
    std::uint64_t base = 0;              //!< absolute index of `head`
    std::size_t peak = 0;
    std::uint64_t refillCount = 0;
    bool ended = false;
};

/**
 * On-the-fly architectural CFG walker over a shared, immutable
 * Program, one branch at a time from the entry block. The walk state
 * is the stream's own: the committed history, the commit count, one
 * BehaviorState per block and one cursor per phase clock. So any
 * number of streams, on any threads, may walk one program. The
 * committed path is independent of the predictor (behaviors read
 * only committed state).
 */
class ProgramWalkStream : public CommittedStream
{
  public:
    /** Walk @p program from its initial state for up to @p limit
     *  branches. @p program must outlive the stream. */
    ProgramWalkStream(const Program &program, std::uint64_t limit);
    ProgramWalkStream(Program &&, std::uint64_t) = delete;

    /**
     * Fork: continue @p other's walk mid-stream, over the same
     * program, under this stream's own @p limit. Requires that
     * @p other has not walked past @p limit yet; the forked stream
     * then behaves exactly like a fresh stream that replayed
     * @p other's call sequence.
     */
    ProgramWalkStream(const ProgramWalkStream &other, std::uint64_t limit);

    ProgramWalkStream(const ProgramWalkStream &) = delete;
    ProgramWalkStream &operator=(const ProgramWalkStream &) = delete;

    std::uint64_t length() const override { return limit; }
    const char *backendName() const override { return "program_walk"; }

  protected:
    bool produceNext(CommittedBranch &out) override;

  private:
    const Program &program;
    std::uint64_t limit;
    BlockId cur;
    std::uint64_t walked = 0; //!< also the commit count
    HistoryRegister committed;
    std::vector<BehaviorState> states; //!< one per block
    std::vector<PhaseClock> clocks;    //!< one per program phase clock
};

/**
 * Block-decoded replayer of a PCBPTRC2 compressed trace
 * (workload/trace2.hh). The mmap-backed Trace2Reader is immutable
 * and shared: the copy constructor is the fork (DESIGN.md §11), and
 * copies share the reader and duplicate the decoded-block cache, so a
 * ladder of N forks maps the file once. Decoding is lazy and
 * sequential: a full replay decodes each block exactly once.
 */
class CompressedTraceStream : public CommittedStream
{
  public:
    /** Fatal on an unreadable or malformed file
     *  (Trace2Reader::open). */
    explicit CompressedTraceStream(const std::string &path);

    /** Fork: same position, shared reader, own decode state. */
    CompressedTraceStream(const CompressedTraceStream &) = default;
    CompressedTraceStream &operator=(const CompressedTraceStream &) =
        delete;

    std::uint64_t length() const override { return reader->recordCount(); }
    const char *backendName() const override { return "trace2"; }

    void exportHostStats(StatRegistry &reg) const override;

    /** Blocks this stream (not its forks) decoded so far. */
    std::uint64_t blocksDecoded() const { return blockDecodes; }

  protected:
    bool produceNext(CommittedBranch &out) override;

  private:
    std::shared_ptr<const Trace2Reader> reader;
    std::vector<CommittedBranch> block; //!< decoded-block cache
    std::uint64_t blockIdx = ~std::uint64_t(0); //!< cached block
    std::uint64_t decoded = 0; //!< next ordinal to produce
    std::uint64_t blockDecodes = 0;
};

/** Open a PCBPTRC2 trace as a replay stream (fatal as the
 *  CompressedTraceStream constructor is). */
std::unique_ptr<CompressedTraceStream>
openTraceStream(const std::string &path);

/** In-memory stream over an already-materialized trace. Copyable:
 *  a copy is a mid-stream fork (DESIGN.md §11). */
class PrecomputedStream : public CommittedStream
{
  public:
    explicit PrecomputedStream(std::vector<CommittedBranch> trace)
        : trace(std::move(trace))
    {
    }

    PrecomputedStream(const PrecomputedStream &) = default;

    std::uint64_t length() const override { return trace.size(); }
    const char *backendName() const override { return "precomputed"; }

  protected:
    bool produceNext(CommittedBranch &out) override;

  private:
    std::vector<CommittedBranch> trace;
    std::uint64_t next = 0;
};

} // namespace pcbp

#endif // PCBP_SIM_COMMITTED_STREAM_HH
