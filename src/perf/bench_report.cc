#include "perf/bench_report.hh"

#include <sstream>

#include "common/stats.hh"
#include "sim/driver.hh"

namespace pcbp
{

BenchRun
BenchRun::fromResults(const std::string &name, const BenchContext &ctx,
                      std::vector<BenchResult> results_)
{
    BenchRun run;
    run.name = name;
    run.quick = ctx.quick;
    run.scale = benchScale();
    run.repeats = ctx.measureOptions().repeats;
    run.workload = ctx.workload;
    run.results = std::move(results_);
    return run;
}

std::string
benchRunToJson(const BenchRun &run)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"schema\": \"pcbp-bench-1\",\n"
       << "  \"name\": \"" << jsonEscape(run.name) << "\",\n"
       << "  \"quick\": " << (run.quick ? "true" : "false") << ",\n"
       << "  \"scale\": " << fmtDouble(run.scale, 4) << ",\n"
       << "  \"repeats\": " << run.repeats << ",\n"
       << "  \"workload\": \"" << jsonEscape(run.workload) << "\",\n"
       << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < run.results.size(); ++i) {
        const BenchResult &r = run.results[i];
        os << "    {\"name\": \"" << jsonEscape(r.name) << "\""
           << ", \"group\": \"" << jsonEscape(r.group) << "\""
           << ", \"unit\": \"" << jsonEscape(r.unit) << "\""
           << ", \"items_per_rep\": " << r.m.itemsPerRep
           << ", \"ns_median\": " << fmtDouble(r.m.nsMedian, 0)
           << ", \"ns_min\": " << fmtDouble(r.m.nsMin, 0)
           << ", \"ns_max\": " << fmtDouble(r.m.nsMax, 0)
           << ", \"cycles_median\": " << fmtDouble(r.m.cyclesMedian, 0)
           << ", \"throughput\": " << fmtDouble(r.m.throughput(), 3)
           << "}" << (i + 1 < run.results.size() ? "," : "") << "\n";
    }
    os << "  ]\n"
       << "}\n";
    return os.str();
}

ReportTable
benchRunTable(const BenchRun &run)
{
    ReportTable t("bench_" + run.name,
                  "pcbp_bench results (" + run.name + ")",
                  {"benchmark", "group", "items/rep", "median ms",
                   "min ms", "max ms", "Mitems/s"});
    t.addNote("median of " + std::to_string(run.repeats) +
              " repetitions, 1 warmup; " +
              (run.quick ? "quick" : "full") + " mode, scale " +
              fmtDouble(run.scale, 2) +
              (run.workload.empty() ? ""
                                    : ", workload " + run.workload));
    for (const BenchResult &r : run.results) {
        t.addRow({r.name, r.group, std::to_string(r.m.itemsPerRep),
                  fmtDouble(r.m.nsMedian / 1e6, 2),
                  fmtDouble(r.m.nsMin / 1e6, 2),
                  fmtDouble(r.m.nsMax / 1e6, 2),
                  fmtDouble(r.m.throughput() / 1e6, 3)});
    }
    return t;
}

} // namespace pcbp
