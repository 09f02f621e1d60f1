/**
 * @file
 * Chrome/Perfetto trace-event span tracer.
 *
 * Spans are coarse wall-clock intervals — a sweep cell on a worker,
 * a figure's grids, a bench warmup or timed repetition — recorded as
 * (name, category, tid, start, end) and emitted as the Trace Event
 * JSON format's B/E pairs, so a whole `pcbp_repro run` can be opened
 * in ui.perfetto.dev (or chrome://tracing) and read like a flame
 * graph per worker.
 *
 * Threading: record() takes a mutex — spans are per-cell/per-phase,
 * orders of magnitude rarer than branches, so contention is nil and
 * nothing touches the simulators' hot paths. Timestamps come from
 * obsNanos() (steady_clock), offset to the tracer's construction so
 * traces start near t=0.
 *
 * Emission sorts events by timestamp; ties are ordered so B/E pairs
 * nest (E before B between sequential spans; outer B before inner B;
 * inner E before outer E), which tests/test_obs.cc checks with a
 * per-tid stack walk.
 */

#ifndef PCBP_OBS_SPAN_TRACE_HH
#define PCBP_OBS_SPAN_TRACE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pcbp
{

/** Monotonic nanoseconds (steady_clock) for span timestamps. */
std::uint64_t obsNanos();

/** One recorded interval on one (virtual) thread track. */
struct TraceSpan
{
    std::string name;
    std::string cat;
    std::uint32_t tid = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
};

class SpanTracer
{
  public:
    SpanTracer();

    /** Nanoseconds since tracer construction (span timestamps). */
    std::uint64_t now() const;

    /**
     * Record a completed span; @p start_ns/@p end_ns are now()
     * values. Thread-safe; end is clamped to > start (spans are at
     * least 1 ns wide so every emitted B/E pair nests).
     */
    void record(const std::string &name, const std::string &cat,
                std::uint32_t tid, std::uint64_t start_ns,
                std::uint64_t end_ns);

    /** Optional human name for a tid's track ("worker 3"). */
    void nameThread(std::uint32_t tid, const std::string &name);

    std::size_t size() const;

    /**
     * The Trace Event JSON document (`pcbp-trace-1`): thread-name
     * metadata events, then every span's B/E pair sorted as the file
     * comment describes, ts/dur in microseconds.
     */
    std::string toJson() const;

    /** Write toJson() to @p path (fatal on I/O failure). */
    void writeFile(const std::string &path) const;

  private:
    mutable std::mutex m;
    std::uint64_t epochNs;
    std::vector<TraceSpan> spans;
    std::vector<std::pair<std::uint32_t, std::string>> threadNames;
};

} // namespace pcbp

#endif // PCBP_OBS_SPAN_TRACE_HH
