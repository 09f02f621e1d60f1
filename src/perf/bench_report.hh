/**
 * @file
 * Benchmark artifacts: the `BENCH_<name>.json` format and the
 * Markdown summary table.
 *
 * The JSON schema is deterministic: a fixed `"schema"` tag
 * ("pcbp-bench-1"), a fixed key set emitted in a fixed order, and
 * fixed-precision number formatting — only the measured values vary
 * between runs. That is what lets tests pin the schema with a golden
 * (numbers normalized) and keeps diffs between the committed
 * `bench/results/BENCH_*` artifacts readable. Nothing in the repo
 * reads the format back: a speed claim rests on a tools/bench_pair.py
 * pair file (docs/PERFORMANCE.md).
 */

#ifndef PCBP_PERF_BENCH_REPORT_HH
#define PCBP_PERF_BENCH_REPORT_HH

#include <string>
#include <vector>

#include "perf/bench.hh"
#include "report/table.hh"

namespace pcbp
{

/** One benchmark run as persisted in a BENCH_<name>.json. */
struct BenchRun
{
    /** Run label (the <name> of the artifact filename). */
    std::string name;

    bool quick = false;

    /** PCBP_BENCH_SCALE in effect. */
    double scale = 1.0;

    /** Timed repetitions per benchmark. */
    unsigned repeats = 0;

    /** Workload override for engine/timing benches ("" = default). */
    std::string workload;

    std::vector<BenchResult> results;

    /** Assemble from a finished `run` invocation. */
    static BenchRun fromResults(const std::string &name,
                                const BenchContext &ctx,
                                std::vector<BenchResult> results);
};

/** Serialize per the pcbp-bench-1 schema (see the file comment). */
std::string benchRunToJson(const BenchRun &run);

/** The Markdown summary table for one run (reusing ReportTable). */
ReportTable benchRunTable(const BenchRun &run);

} // namespace pcbp

#endif // PCBP_PERF_BENCH_REPORT_HH
