/**
 * @file
 * Sweep execution: shards individual (config, workload) cells across
 * parallelFor workers and persists results through the ResultStore.
 *
 * Determinism contract: results are bit-identical regardless of
 * `jobs`. Every unit builds its own predictor and walks its
 * workload's program — built once per sweep, immutable, and shared
 * by every unit of that workload — from walk state of its own, so
 * execution order cannot leak between cells; and completed cells
 * are flushed to the store strictly in
 * cell order (a worker finishing cell 7 before cell 3 waits in a
 * buffer until 3..6 land), so the JSONL file — and therefore every
 * export — is byte-identical too.
 *
 * Resume contract: cells whose content key is already in the store
 * are skipped, so re-running an interrupted sweep computes only the
 * missing delta.
 */

#ifndef PCBP_SWEEP_RUNNER_HH
#define PCBP_SWEEP_RUNNER_HH

#include <functional>

#include "sweep/result_store.hh"
#include "sweep/sweep_spec.hh"

namespace pcbp
{

class SpanTracer;
class StatRegistry;

struct SweepRunOptions
{
    /**
     * Worker count (incl. caller); 0 = one per hardware thread. A
     * sweep starts at most one worker per unit it runs (a cell, or a
     * fork chain), so a small grid never starts idle threads.
     */
    unsigned jobs = 0;

    /**
     * Stop after this many newly-executed cells (0 = no limit).
     * Lets callers simulate interruption and lets the CLI spread a
     * huge sweep across invocations.
     */
    std::size_t maxCells = 0;

    /** Per-cell progress callback (invoked in flush order). */
    std::function<void(const SweepCell &, const CellResult &)>
        onCellDone;

    /**
     * Run-wide stats registry: every executed cell's sim counters
     * are merged into it (merge is commutative, so the dump stays
     * `--jobs`-independent), plus sweep/pool host counters at the
     * end (added, so sequential sweeps accumulate). The store is
     * NOT exported here — the store's owner calls
     * ResultStore::exportStats itself, under the prefix it wants.
     * Not owned; null = no collection.
     */
    StatRegistry *stats = nullptr;

    /**
     * Also embed each cell's own sim scalars into its persisted
     * CellResult (the opt-in `stats` block). Off by default: stores
     * written without it stay byte-identical to earlier versions.
     */
    bool cellStats = false;

    /** Span tracer: one "cell" span per executed cell ("chain" span
     *  per fork chain), tagged with the worker that ran it. Not
     *  owned; null = no tracing. */
    SpanTracer *tracer = nullptr;

    /**
     * Fork-based execution (DESIGN.md §11): cells that differ only
     * in run lengths (same workload, predictor recipe, and mode —
     * equal SweepCell::forkGroupKey()) share one simulation, cloned
     * at each shorter cell's snapshot point, so every shared warmup
     * prefix is simulated once. Stores, exports, and stats stay
     * bit-identical with forking on or off (and across `jobs`);
     * off only regroups: every cell runs as a fork chain of its own.
     */
    bool fork = true;
};

struct SweepRunSummary
{
    std::size_t totalCells = 0;    ///< cells in the spec's grid
    std::size_t skippedCells = 0;  ///< already present in the store
    std::size_t executedCells = 0; ///< newly computed this run
};

/**
 * Run @p spec against @p store; see the determinism contract above.
 * Cells of a `mode = timing` grid run through the cycle-level
 * TimingSim instead of the accuracy engine; both kinds persist as
 * CellResults in the same store.
 */
SweepRunSummary runSweep(const SweepSpec &spec, ResultStore &store,
                         const SweepRunOptions &opt = {});

/**
 * Aggregate the stored stats of every cell matching @p pred — how
 * figure renders and the H2P report slice a grid into table rows
 * (fatal if nothing matches or a matching cell was never run).
 */
AggregateResult aggregateCells(
    const ResultStore &store, const std::vector<SweepCell> &cells,
    const std::function<bool(const SweepCell &)> &pred);

/**
 * Arithmetic mean of per-cell uPC over every timing cell matching
 * @p pred (fatal if nothing matches or a matching cell was never
 * run) — how the timing figures (Figs. 9-10) slice their grids.
 */
double meanUpcCells(
    const ResultStore &store, const std::vector<SweepCell> &cells,
    const std::function<bool(const SweepCell &)> &pred);

} // namespace pcbp

#endif // PCBP_SWEEP_RUNNER_HH
