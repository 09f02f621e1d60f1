/**
 * @file
 * pcbp_perfbench: runs one benchmark workload in this process and
 * prints what it measured as one JSON line — set-up repetitions,
 * timed passes, every checked operation's outputs and, for traced
 * passes, the per-layer metrics. perfbench/run.py drives it and turns
 * the record into the benchmark's metrics.
 *
 *   pcbp_perfbench --workload engine-long|trace-replay|repro-quick
 *                  --seed N --seconds S --trace 0|1 --jobs J
 *                  --work-dir DIR --golden-dir DIR
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hh"
#include "common/stats.hh"
#include "predictors/simd.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace
{

using namespace perfbench;

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
str(const std::string &s)
{
    return "\"" + pcbp::jsonEscape(s) + "\"";
}

/**
 * Peak resident set of this process image, in KiB (VmHWM; unlike
 * getrusage's maximum it does not carry the parent's peak across
 * exec).
 */
std::uint64_t
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    return 0;
}

std::string
toJson(const Report &report, const Options &opt)
{
    std::ostringstream os;
    os << "{\"env\":{\"workload\":" << str(opt.workload)
       << ",\"seed\":" << opt.seed << ",\"jobs\":" << opt.jobs
       << ",\"simd\":" << str(pcbp::simd::levelName())
       << ",\"compiler\":" << str(__VERSION__)
       << ",\"build_type\":" << str(PERFBENCH_BUILD_TYPE) << "}";

    os << ",\"setup_s\":[";
    for (std::size_t i = 0; i < report.setupS.size(); ++i)
        os << (i ? "," : "") << num(report.setupS[i]);
    os << "]";

    os << ",\"passes\":[";
    for (std::size_t p = 0; p < report.passes.size(); ++p) {
        const Pass &pass = report.passes[p];
        os << (p ? "," : "") << "{\"traced\":"
           << (pass.traced ? "true" : "false")
           << ",\"wall_s\":" << num(pass.wallS) << ",\"ops\":[";
        for (std::size_t i = 0; i < pass.ops.size(); ++i) {
            const Op &op = pass.ops[i];
            os << (i ? "," : "") << "{\"name\":" << str(op.name)
               << ",\"ok\":" << (op.ok ? "true" : "false")
               << ",\"s\":" << num(op.seconds)
               << ",\"acc_branches\":" << op.accBranches
               << ",\"tim_branches\":" << op.timBranches << ",\"out\":{";
            for (std::size_t j = 0; j < op.out.size(); ++j) {
                os << (j ? "," : "") << str(op.out[j].first) << ":"
                   << op.out[j].second;
            }
            os << "}}";
        }
        os << "],\"layers\":{";
        bool first = true;
        for (const auto &[name, value] : pass.layers) {
            os << (first ? "" : ",") << str(name) << ":" << num(value);
            first = false;
        }
        os << "}}";
    }
    os << "]";

    os << ",\"files\":{";
    bool first = true;
    for (const auto &[name, path] : report.files) {
        os << (first ? "" : ",") << str(name) << ":" << str(path);
        first = false;
    }
    os << "},\"peak_rss_kb\":" << peakRssKb() << "}";
    return os.str();
}

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload engine-long|trace-replay|repro-quick"
                 " --seed N --seconds S --trace 0|1 --jobs J"
                 " --work-dir DIR --golden-dir DIR\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            opt.trace = v == "1";
        else if (a == "--jobs")
            opt.jobs = unsigned(std::atoi(v.c_str()));
        else if (a == "--work-dir")
            opt.workDir = v;
        else if (a == "--golden-dir")
            opt.goldenDir = v;
        else
            usage(argv[0]);
    }
    if (opt.workDir.empty() || opt.jobs == 0 || opt.seconds <= 0)
        usage(argv[0]);

    // Refuse to time what a user would not run: debug builds, builds
    // with the hot-path asserts forced on, or scaled-down workloads.
#if !defined(NDEBUG) || defined(PCBP_FORCE_DASSERT)
    std::cerr << "pcbp_perfbench: refusing to time a build with asserts "
                 "on (need Release without PCBP_FORCE_DASSERT)\n";
    return 3;
#endif
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::cerr << "pcbp_perfbench: refusing to time a '"
                  << PERFBENCH_BUILD_TYPE << "' build (need Release)\n";
        return 3;
    }
    if (pcbp::benchScale() != 1.0) {
        std::cerr << "pcbp_perfbench: refusing to run with "
                     "PCBP_BENCH_SCALE set\n";
        return 3;
    }

    Report report;
    if (opt.workload == "engine-long")
        runEngineLong(opt, report);
    else if (opt.workload == "trace-replay")
        runTraceReplay(opt, report);
    else if (opt.workload == "repro-quick")
        runReproQuick(opt, report);
    else
        usage(argv[0]);

    std::cout << toJson(report, opt) << std::endl;
    return 0;
}
