/**
 * @file
 * pcbp_repro — the reproduction/report CLI: one command from a paper
 * figure to a rendered artifact.
 *
 *   pcbp_repro list
 *       The figure registry: id, paper reference, title, grid size.
 *
 *   pcbp_repro run [--figures LIST|all] [--out DIR] [--jobs N]
 *                  [--quick] [--branches N] [--workloads LIST]
 *                  [--suite LIST] [--max-cells N] [--quiet]
 *                  [--progress] [--stats-out FILE] [--trace-out FILE]
 *                  [--no-fork]
 *       Run the selected figures' sweep grids against per-figure
 *       stores under DIR/store/ and render DIR/REPRO.md plus
 *       per-figure CSV/JSON artifacts. Cells already in a store are
 *       skipped, so an interrupted run resumes where it left off;
 *       output is byte-identical for any --jobs value. --quick runs
 *       every cell at a short fixed branch budget; --workloads (or
 *       its alias --suite) points every figure at other suites,
 *       workloads, or trace:<path> files; --max-cells bounds newly
 *       executed cells (the report renders once all grids are
 *       complete). --progress swaps per-cell lines for a throttled
 *       stderr heartbeat; --stats-out dumps the run-wide stats
 *       registry (JSON + .md); --trace-out writes a Perfetto-
 *       loadable span trace; --no-fork disables fork-based execution
 *       of shared-warmup cells (DESIGN.md §11). None of these changes
 *       any store or report byte.
 *
 *   pcbp_repro render [--figures LIST|all] [--out DIR] [--quick]
 *                     [--branches N] [--workloads LIST] [--suite LIST]
 *       Re-render the artifacts from DIR/store/ without simulating
 *       (fatal if a needed cell is missing — run first). Options
 *       must match the run that filled the stores.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "common/cli_parse.hh"
#include "obs/span_trace.hh"
#include "obs/stat_registry.hh"
#include "report/repro.hh"

using namespace pcbp;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " COMMAND [options]\n"
        << "  list\n"
        << "  run    [--figures LIST|all] [--out DIR] [--jobs N]"
           " [--quick]\n"
        << "         [--branches N] [--workloads LIST] [--suite LIST]\n"
        << "         [--max-cells N] [--quiet] [--progress]\n"
        << "         [--stats-out FILE] [--trace-out FILE]"
           " [--no-fork]\n"
        << "  render [--figures LIST|all] [--out DIR] [--quick]"
           " [--branches N]\n"
        << "         [--workloads LIST] [--suite LIST]\n";
    std::exit(2);
}

struct Args
{
    ReproOptions opts;
    std::string statsOut;
    std::string traceOut;
    bool quiet = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    a.opts.outDir = "repro-out";
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        auto list = [&](std::vector<std::string> &into) {
            std::istringstream is(next());
            std::string item;
            while (std::getline(is, item, ','))
                if (!item.empty())
                    into.push_back(item);
        };
        if (arg == "--figures")
            list(a.opts.figures);
        else if (arg == "--workloads" || arg == "--suite")
            list(a.opts.figure.workloads);
        else if (arg == "--out")
            a.opts.outDir = next();
        else if (arg == "--branches")
            a.opts.figure.branches =
                parseCountArg<std::uint64_t>(arg, next());
        else if (arg == "--jobs")
            a.opts.jobs = parseCountArg<unsigned>(arg, next());
        else if (arg == "--max-cells")
            a.opts.maxCells = parseCountArg<std::size_t>(arg, next());
        else if (arg == "--quick")
            a.opts.quick = true;
        else if (arg == "--quiet")
            a.quiet = true;
        else if (arg == "--progress")
            a.opts.progress = true;
        else if (arg == "--no-fork")
            a.opts.fork = false;
        else if (arg == "--stats-out")
            a.statsOut = next();
        else if (arg == "--trace-out")
            a.traceOut = next();
        else
            usage(argv[0]);
    }
    return a;
}

int
cmdList()
{
    FigureOptions fo;
    std::cout << "id         paper ref   cells  title\n";
    for (const auto &f : allFigures()) {
        std::size_t cells = 0;
        for (const auto &spec : f.sweeps(fo))
            cells += spec.cells().size();
        std::printf("%-10s %-11s %5zu  %s\n", f.id.c_str(),
                    f.paperRef.c_str(), cells, f.title.c_str());
    }
    return 0;
}

int
cmdRun(Args a)
{
    // The heartbeat replaces the per-cell log lines; --quiet mutes
    // both.
    if (a.quiet)
        a.opts.progress = false;
    if (!a.quiet && !a.opts.progress) {
        std::size_t done = 0;
        a.opts.log = [done](const std::string &line) mutable {
            std::cerr << "[" << ++done << "] " << line << "\n";
        };
    }
    StatRegistry reg;
    SpanTracer tracer;
    if (!a.statsOut.empty())
        a.opts.stats = &reg;
    if (!a.traceOut.empty())
        a.opts.tracer = &tracer;
    const ReproSummary s = runRepro(a.opts);
    if (a.opts.stats)
        reg.writeFiles(a.statsOut);
    if (a.opts.tracer)
        tracer.writeFile(a.traceOut);
    std::cout << "repro: " << s.totalCells << " cells, "
              << s.skippedCells << " already done, "
              << s.executedCells << " executed\n";
    if (!s.complete) {
        std::cout << s.totalCells - s.skippedCells - s.executedCells
                  << " cells remaining (re-run to continue; the "
                     "report renders when complete)\n";
        return 1;
    }
    std::cout << "report: " << s.reportPath << "\n";
    return 0;
}

int
cmdRender(Args a)
{
    a.opts.renderOnly = true;
    const ReproSummary s = runRepro(a.opts);
    if (!s.complete) {
        std::cerr << "render: stores under " << a.opts.outDir
                  << "/store hold " << s.skippedCells << " of "
                  << s.totalCells
                  << " cells for these options; use `run` first\n";
        return 1;
    }
    std::cout << "report: " << s.reportPath << "\n";
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
    if (cmd == "list")
        return cmdList();
    if (cmd == "run")
        return cmdRun(a);
    if (cmd == "render")
        return cmdRender(a);
    usage(argv[0]);
}
