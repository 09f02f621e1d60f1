/**
 * @file
 * The benchmark registry: every performance-relevant path of the
 * simulator as a named, runnable benchmark.
 *
 * The registry is the perf analogue of the figure registry
 * (report/figure.hh): instead of N bespoke main()-with-chrono bench
 * binaries, each hot path is declared once — a name, a group, what
 * one repetition does, and what a work item is — and every consumer
 * (the `pcbp_bench` CLI and the CI smoke jobs) runs the same
 * definitions through the same measurement core (perf/measure.hh),
 * emitting the same `BENCH_<name>.json` schema
 * (perf/bench_report.hh). That is what
 * makes throughput numbers comparable across revisions: the
 * benchmark identity is the registry name, not which binary happened
 * to print it.
 *
 * Groups:
 *  - predictor.* / critic.*: lookup+update microbenches over the
 *    whole factory registry (every ProphetKind / CriticKind);
 *  - hybrid.*: the full prophet/critic event path
 *    (predict / critique / commit-train), no simulator around it;
 *  - engine.* / timing.*: end-to-end committed-branch throughput of
 *    the accuracy Engine and the cycle-level TimingSim on a named
 *    workload (overridable, including trace:<path>);
 *  - sweep.* / repro.*: wall-clock of sweep grids (including the
 *    fork_grid/replay_grid shared-warmup ladder pair, which prices
 *    fork-based execution — DESIGN.md §11) and one quick-scale repro
 *    figure through the real orchestration layers.
 *
 * Benchmark bodies rebuild all predictor/simulator state every
 * repetition, so repetitions are independent and the median is
 * meaningful; the simulated work per repetition is deterministic
 * (fixed seeds), so two runs of one benchmark time exactly the same
 * instruction stream.
 */

#ifndef PCBP_PERF_BENCH_HH
#define PCBP_PERF_BENCH_HH

#include <functional>
#include <string>
#include <vector>

#include "perf/measure.hh"

namespace pcbp
{

/** Options shared by every benchmark in one `pcbp_bench run`. */
struct BenchContext
{
    /**
     * Quick mode: a fraction of the work per repetition and fewer
     * repetitions — seconds instead of minutes, for CI smoke and
     * local sanity checks. Quick numbers are only comparable with
     * other quick numbers (the JSON artifact records the mode).
     */
    bool quick = false;

    /**
     * Workload-name override for the engine.* / timing.* benchmarks
     * (any registry name or trace:<path>); empty keeps the default,
     * mm.mpeg.
     */
    std::string workload;

    /** Timed repetitions; 0 = default (5, or 3 in quick mode). */
    unsigned repeats = 0;

    /**
     * Span tracer: each benchmark records "<name>.warmup" and
     * "<name>.repN" spans (see MeasureOptions::tracer). Not owned;
     * null = off.
     */
    SpanTracer *tracer = nullptr;

    /** Effective repeat/warmup policy for these options. */
    MeasureOptions measureOptions() const;
};

/** One registered benchmark. */
struct BenchDef
{
    /** Registry id, e.g. "engine.hybrid_tgshare". */
    std::string name;

    /** Group prefix, e.g. "engine" (see the file comment). */
    std::string group;

    /** What the benchmark measures (one line, for `list` and docs). */
    std::string description;

    /** Work-item name, e.g. "branch" (throughput = items/s). */
    std::string unit;

    /**
     * One repetition: do the work from scratch and return the items
     * processed (must be identical for every call with equal ctx).
     */
    std::function<std::uint64_t(const BenchContext &)> body;
};

/** One benchmark's result. */
struct BenchResult
{
    std::string name;
    std::string group;
    std::string unit;
    Measurement m;
};

/** Every registered benchmark, in registry order. */
const std::vector<BenchDef> &allBenches();

/** Find by exact name (fatal on unknown, listing the names). */
const BenchDef &benchByName(const std::string &name);

/**
 * Registry entries whose name contains @p filter (all when empty),
 * in registry order.
 */
std::vector<const BenchDef *> benchesMatching(const std::string &filter);

/** Measure one benchmark under @p ctx. */
BenchResult runBench(const BenchDef &def, const BenchContext &ctx);

/**
 * Measure a selection in order, announcing each benchmark on stderr
 * — the run loop of `pcbp_bench run`.
 */
std::vector<BenchResult> runBenches(
    const std::vector<const BenchDef *> &defs, const BenchContext &ctx);

} // namespace pcbp

#endif // PCBP_PERF_BENCH_HH
