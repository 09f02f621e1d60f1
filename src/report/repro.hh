/**
 * @file
 * The reproduction pipeline: one call (or one `pcbp_repro run`) from
 * a set of paper figures to a rendered report.
 *
 * runRepro() executes every selected figure's sweep grids against a
 * per-figure persistent ResultStore under `<out>/store/`, then — once
 * every grid cell is present — renders `<out>/REPRO.md` plus
 * per-figure `<id>.csv` / `<id>.json` artifacts.
 *
 * Contracts, inherited from the sweep subsystem and the string-table
 * model (report/table.hh):
 *
 *  - **byte-determinism**: for fixed options (and PCBP_BENCH_SCALE),
 *    every emitted file is byte-identical for any `jobs` value — the
 *    report never embeds timestamps, host names, or job counts;
 *  - **resume**: killing a run mid-grid loses at most the in-flight
 *    cells; re-running computes only the delta and converges to the
 *    same bytes. `maxCells` bounds newly executed cells per call,
 *    which is also how tests exercise interruption deterministically;
 *  - **re-render**: a completed store reproduces the report without
 *    re-simulating.
 */

#ifndef PCBP_REPORT_REPRO_HH
#define PCBP_REPORT_REPRO_HH

#include <functional>
#include <string>
#include <vector>

#include "report/figure.hh"

namespace pcbp
{

class SpanTracer;
class StatRegistry;

struct ReproOptions
{
    /** Figure ids ("fig5", ..., or "all"); empty = every figure. */
    std::vector<std::string> figures;

    /** Workload/branch overrides applied to every figure. */
    FigureOptions figure;

    /**
     * Quick mode: when no explicit branch override is given, run
     * every cell at a short fixed budget (kQuickBranches) — minutes
     * of work become seconds, at reduced statistical weight.
     */
    bool quick = false;

    /** Output directory (created if missing). */
    std::string outDir = "repro-out";

    /** Worker threads (0 = one per hardware thread). */
    unsigned jobs = 0;

    /**
     * Stop after this many newly executed cells across the whole run
     * (0 = no limit). The report is only rendered once every grid is
     * complete; an interrupted run says what remains.
     */
    std::size_t maxCells = 0;

    /**
     * Never simulate: render from the existing stores if they are
     * complete, otherwise report what is missing (pcbp_repro render).
     */
    bool renderOnly = false;

    /** Optional progress line sink (cell completions, phases). */
    std::function<void(const std::string &)> log;

    /**
     * Run-wide stats registry: merged sim counters from every newly
     * executed cell plus host-side pool/store/sweep counters. Not
     * owned; null = no collection.
     */
    StatRegistry *stats = nullptr;

    /** Span tracer: one "figure" span per selected figure plus the
     *  per-cell spans from the sweeps. Not owned; null = off. */
    SpanTracer *tracer = nullptr;

    /**
     * Throttled stderr heartbeat (cells done/total, branches/s,
     * ETA). Quiet when the log level filters Info.
     */
    bool progress = false;

    /**
     * Fork-based sweep execution (DESIGN.md §11): grid cells that
     * differ only in run lengths share one simulation per
     * configuration. Every artifact is byte-identical with this on
     * or off; off (pcbp_repro --no-fork) forces one full simulation
     * per cell.
     */
    bool fork = true;
};

/** The fixed per-cell budget of --quick runs. */
constexpr std::uint64_t kQuickBranches = 4000;

/** Per-figure completion accounting. */
struct ReproFigureSummary
{
    std::string id;
    std::size_t totalCells = 0;
    std::size_t executedCells = 0; ///< newly computed this run
    std::size_t skippedCells = 0;  ///< resumed from the store
};

struct ReproSummary
{
    std::vector<ReproFigureSummary> figures;
    std::size_t totalCells = 0;
    std::size_t executedCells = 0;
    std::size_t skippedCells = 0;

    /** Every selected grid is fully in its store. */
    bool complete = false;

    /** Path of the rendered report ("" unless complete). */
    std::string reportPath;
};

/** Run the pipeline; see the file comment for the contracts. */
ReproSummary runRepro(const ReproOptions &opts);

/**
 * Render the full report document for already-completed stores.
 * @p stores pairs each selected figure (registry order) with its
 * completed store. Exposed for tests; runRepro() calls it.
 */
std::string renderReproMarkdown(
    const std::vector<const FigureDef *> &figures,
    const std::vector<const ResultStore *> &stores,
    const ReproOptions &opts);

} // namespace pcbp

#endif // PCBP_REPORT_REPRO_HH
