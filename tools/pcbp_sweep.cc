/**
 * @file
 * pcbp_sweep — the sweep orchestration CLI.
 *
 *   pcbp_sweep run --spec FILE --store FILE [--jobs N]
 *                  [--max-cells N] [--quiet] [--progress]
 *                  [--stats-out FILE] [--trace-out FILE]
 *                  [--cell-stats] [--no-fork]
 *       Execute the grid. Cells already in the store are skipped, so
 *       an interrupted run resumes where it left off. Output is
 *       bit-identical for any --jobs value. `mode = timing` grids
 *       run the cycle-level model (progress lines report uPC
 *       instead of misp/Kuops). --progress swaps per-cell lines for
 *       a throttled heartbeat; --stats-out dumps the run-wide stats
 *       registry (JSON + .md); --trace-out writes a Perfetto-
 *       loadable span trace; --cell-stats embeds each cell's sim
 *       counters in its stored result (off by default — stores stay
 *       byte-identical to earlier versions); --no-fork disables
 *       fork-based execution of shared-warmup cells (DESIGN.md §11
 *       — results are bit-identical either way, just slower).
 *
 *   pcbp_sweep status --spec FILE --store FILE [--watch SEC]
 *       Completed / remaining cell counts for the grid. --watch
 *       re-reads the store every SEC seconds and emits a live
 *       progress line until the grid completes — store-derived, so
 *       it tracks a `run` executing in another process.
 *
 *   pcbp_sweep cells --spec FILE
 *       List the grid's cells and content keys without running.
 *
 *   pcbp_sweep export --store FILE [--format csv|json] [--out FILE]
 *       Dump the store (file order) as CSV or a JSON array.
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "common/cli_parse.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/progress.hh"
#include "obs/span_trace.hh"
#include "obs/stat_registry.hh"
#include "sweep/runner.hh"

using namespace pcbp;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " COMMAND [options]\n"
        << "  run    --spec FILE --store FILE [--jobs N]"
           " [--max-cells N] [--quiet]\n"
        << "         [--progress] [--stats-out FILE]"
           " [--trace-out FILE] [--cell-stats] [--no-fork]\n"
        << "  status --spec FILE --store FILE [--watch SEC]\n"
        << "  cells  --spec FILE\n"
        << "  export --store FILE [--format csv|json] [--out FILE]\n";
    std::exit(2);
}

struct Args
{
    std::string spec;
    std::string store;
    std::string format = "csv";
    std::string out;
    std::string statsOut;
    std::string traceOut;
    unsigned jobs = 0;
    std::size_t maxCells = 0;
    unsigned watchSec = 0;
    bool quiet = false;
    bool progress = false;
    bool cellStats = false;
    bool fork = true;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--spec")
            a.spec = next();
        else if (arg == "--store")
            a.store = next();
        else if (arg == "--format")
            a.format = next();
        else if (arg == "--out")
            a.out = next();
        else if (arg == "--jobs")
            a.jobs = parseCountArg<unsigned>(arg, next());
        else if (arg == "--max-cells")
            a.maxCells = parseCountArg<std::size_t>(arg, next());
        else if (arg == "--stats-out")
            a.statsOut = next();
        else if (arg == "--trace-out")
            a.traceOut = next();
        else if (arg == "--watch")
            a.watchSec = parseCountArg<unsigned>(arg, next());
        else if (arg == "--quiet")
            a.quiet = true;
        else if (arg == "--progress")
            a.progress = true;
        else if (arg == "--cell-stats")
            a.cellStats = true;
        else if (arg == "--no-fork")
            a.fork = false;
        else
            usage(argv[0]);
    }
    return a;
}

int
cmdRun(const Args &a, const char *argv0)
{
    if (a.spec.empty() || a.store.empty())
        usage(argv0);
    const SweepSpec spec = SweepSpec::parseFile(a.spec);
    ResultStore store(a.store);

    StatRegistry reg;
    SpanTracer tracer;
    SweepRunOptions opt;
    opt.jobs = a.jobs;
    opt.maxCells = a.maxCells;
    opt.cellStats = a.cellStats;
    opt.fork = a.fork;
    if (!a.statsOut.empty())
        opt.stats = &reg;
    if (!a.traceOut.empty())
        opt.tracer = &tracer;

    std::unique_ptr<ProgressMeter> meter;
    if (a.progress && !a.quiet) {
        const auto cells = spec.cells();
        meter = std::make_unique<ProgressMeter>(cells.size(),
                                                "cells");
        std::uint64_t resumed = 0;
        for (const auto &cell : cells)
            resumed += store.has(cell.key()) ? 1 : 0;
        meter->setResumed(resumed);
    }

    std::size_t flushed = 0;
    opt.onCellDone = [&](const SweepCell &cell,
                         const CellResult &r) {
        // The heartbeat replaces the per-cell lines; --quiet mutes
        // both.
        if (!a.quiet && !meter) {
            std::cerr << "[" << ++flushed << "] " << cell.key();
            if (r.timing)
                std::cerr << " uPC=" << fmtDouble(r.upc(), 3);
            else
                std::cerr << " misp/Kuops="
                          << fmtDouble(
                                 r.toEngineStats().mispPerKuops(), 3);
            std::cerr << "\n";
        }
        if (meter)
            meter->tick(r.committedBranches);
    };

    const std::uint64_t sweepStart = tracer.now();
    const SweepRunSummary s = runSweep(spec, store, opt);
    if (meter)
        meter->finish();
    if (opt.stats) {
        store.exportStats(reg);
        reg.writeFiles(a.statsOut);
    }
    if (opt.tracer) {
        tracer.record(spec.name, "sweep", 0, sweepStart,
                      tracer.now());
        tracer.writeFile(a.traceOut);
    }
    std::cout << "sweep '" << spec.name << "': " << s.totalCells
              << " cells, " << s.skippedCells << " already done, "
              << s.executedCells << " executed\n";
    const std::size_t remaining =
        s.totalCells - s.skippedCells - s.executedCells;
    if (remaining)
        std::cout << remaining
                  << " cells remaining (re-run to continue)\n";
    return 0;
}

int
cmdStatus(const Args &a, const char *argv0)
{
    if (a.spec.empty() || a.store.empty())
        usage(argv0);
    const SweepSpec spec = SweepSpec::parseFile(a.spec);
    const auto cells = spec.cells();

    // Re-reading the store each round makes this a live view of a
    // `run` writing the same JSONL from another process.
    const auto countCompleted = [&]() {
        const ResultStore store(a.store);
        std::size_t completed = 0;
        for (const auto &cell : cells)
            if (store.has(cell.key()))
                ++completed;
        return completed;
    };

    std::size_t completed = countCompleted();
    while (a.watchSec && completed < cells.size()) {
        logRawLine("progress: " + std::to_string(completed) + "/" +
                   std::to_string(cells.size()) + " cells (" +
                   std::to_string(cells.empty()
                                      ? 100
                                      : 100 * completed /
                                            cells.size()) +
                   "%)");
        std::this_thread::sleep_for(
            std::chrono::seconds(a.watchSec));
        completed = countCompleted();
    }

    TablePrinter t({"sweep", "cells", "completed", "remaining"});
    t.addRow({spec.name, std::to_string(cells.size()),
              std::to_string(completed),
              std::to_string(cells.size() - completed)});
    std::cout << t.str();
    return 0;
}

int
cmdCells(const Args &a, const char *argv0)
{
    if (a.spec.empty())
        usage(argv0);
    const SweepSpec spec = SweepSpec::parseFile(a.spec);
    for (const auto &cell : spec.cells())
        std::cout << cell.index << " " << cell.key() << "\n";
    return 0;
}

int
cmdExport(const Args &a, const char *argv0)
{
    if (a.store.empty())
        usage(argv0);
    if (!std::ifstream(a.store)) {
        std::cerr << "no such store: " << a.store << "\n";
        return 1;
    }
    const ResultStore store(a.store);

    std::string text;
    if (a.format == "csv")
        text = ResultStore::exportCsv(store.all());
    else if (a.format == "json")
        text = ResultStore::exportJson(store.all());
    else
        usage(argv0);

    if (a.out.empty()) {
        std::cout << text;
        return 0;
    }
    std::ofstream out(a.out);
    if (!out) {
        std::cerr << "cannot write " << a.out << "\n";
        return 1;
    }
    out << text;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);
    const std::string cmd = argv[1];
    const Args a = parseArgs(argc, argv);
    if (cmd == "run")
        return cmdRun(a, argv[0]);
    if (cmd == "status")
        return cmdStatus(a, argv[0]);
    if (cmd == "cells")
        return cmdCells(a, argv[0]);
    if (cmd == "export")
        return cmdExport(a, argv[0]);
    usage(argv[0]);
}
