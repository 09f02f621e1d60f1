/**
 * @file
 * pcbp_bench — the performance benchmark CLI.
 *
 *   pcbp_bench list
 *       Every registered benchmark: name, group, unit, description.
 *
 *   pcbp_bench run [--quick] [--filter SUBSTRS] [--name LABEL]
 *                  [--out DIR] [--repeats N] [--workload NAME]
 *                  [--stats-out FILE] [--trace-out FILE]
 *       Measure the selected benchmarks (all when no --filter;
 *       comma-separated substrings match any, e.g.
 *       "engine.,timing.") and
 *       write `BENCH_<LABEL>.json` (deterministic pcbp-bench-1
 *       schema) plus `BENCH_<LABEL>.md` (the Markdown summary, also
 *       printed to stdout) into DIR (default "."). --workload
 *       retargets the engine/timing benches at any registry workload
 *       or trace:<path>. PCBP_BENCH_SCALE scales the work.
 *       --trace-out writes a Perfetto-loadable span trace of every
 *       warmup/repetition phase; --stats-out dumps host-side run
 *       metadata as a pcbp-stats-1 registry. Neither touches the
 *       BENCH_*.json bytes or the timed windows.
 *
 * A speed claim rests on a tools/bench_pair.py pair file, not on one
 * run of this tool against another (docs/PERFORMANCE.md).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <vector>
#include <iostream>
#include <string>

#include "common/cli_parse.hh"
#include "common/logging.hh"
#include "obs/span_trace.hh"
#include "obs/stat_registry.hh"
#include "perf/bench_report.hh"

using namespace pcbp;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " COMMAND [options]\n"
        << "  list\n"
        << "  run     [--quick] [--filter SUBSTRS] [--name LABEL]"
           " [--out DIR]\n"
        << "          [--repeats N] [--workload NAME]"
           " [--stats-out FILE]\n"
        << "          [--trace-out FILE]\n";
    std::exit(2);
}

struct Args
{
    std::string filter;
    std::string name = "run";
    std::string out = ".";
    std::string workload;
    std::string statsOut;
    std::string traceOut;
    unsigned repeats = 0;
    bool quick = false;
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
        if (arg == "--filter")
            a.filter = next();
        else if (arg == "--name")
            a.name = next();
        else if (arg == "--out")
            a.out = next();
        else if (arg == "--workload")
            a.workload = next();
        else if (arg == "--stats-out")
            a.statsOut = next();
        else if (arg == "--trace-out")
            a.traceOut = next();
        else if (arg == "--repeats")
            a.repeats = parseCountArg<unsigned>(arg, next());
        else if (arg == "--quick")
            a.quick = true;
        else
            usage(argv[0]);
    }
    return a;
}

int
cmdList()
{
    for (const BenchDef &d : allBenches()) {
        std::printf("%-26s %-9s %-9s %s\n", d.name.c_str(),
                    d.group.c_str(), (d.unit + "/s").c_str(),
                    d.description.c_str());
    }
    return 0;
}

void
writeFileOrDie(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        pcbp_fatal("cannot write '", path, "'");
    out << content;
    if (!out.flush())
        pcbp_fatal("short write to '", path, "'");
}

int
cmdRun(const Args &a)
{
    BenchContext ctx;
    ctx.quick = a.quick;
    ctx.workload = a.workload;
    ctx.repeats = a.repeats;

    SpanTracer tracer;
    if (!a.traceOut.empty())
        ctx.tracer = &tracer;

    const std::vector<const BenchDef *> defs = benchesMatching(a.filter);
    if (defs.empty())
        pcbp_fatal("no benchmark matches filter '", a.filter, "'");

    const BenchRun run =
        BenchRun::fromResults(a.name, ctx, runBenches(defs, ctx));
    const std::string stem = a.out + "/BENCH_" + a.name;
    const ReportTable table = benchRunTable(run);
    writeFileOrDie(stem + ".json", benchRunToJson(run));
    writeFileOrDie(stem + ".md", table.toMarkdown());
    std::cout << table.toMarkdown();
    std::fprintf(stderr, "wrote %s.json and %s.md\n", stem.c_str(),
                 stem.c_str());

    if (!a.traceOut.empty())
        tracer.writeFile(a.traceOut);
    if (!a.statsOut.empty()) {
        // Host-side run metadata (timings are wall clock, so they
        // live in the host section by definition).
        StatRegistry reg;
        reg.setHost("bench.benches", run.results.size());
        for (const BenchResult &r : run.results) {
            const std::string p = "bench." + r.name;
            reg.setHost(p + ".repeats", r.m.repeats);
            reg.setHost(p + ".items_per_rep", r.m.itemsPerRep);
            reg.setHost(p + ".ns_median",
                        static_cast<std::uint64_t>(r.m.nsMedian));
            reg.setHost(p + ".ns_max",
                        static_cast<std::uint64_t>(r.m.nsMax));
        }
        reg.writeFiles(a.statsOut);
    }
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
    usage(argv[0]);
}
