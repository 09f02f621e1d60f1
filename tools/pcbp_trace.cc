/**
 * @file
 * pcbp_trace — committed-branch trace file jobs, all over PCBPTRC2,
 * the one trace format (workload/trace2.hh). Runs over a trace go
 * through `pcbp_run --workload trace:FILE`.
 *
 *   pcbp_trace record --workload NAME --out FILE [--branches N]
 *                     [--block-records N]
 *       Walk a registered workload's CFG architecturally and stream
 *       the committed branches to FILE (constant memory; N defaults
 *       to the workload's warmup + measure budget).
 *
 *   pcbp_trace summarize FILE
 *       One pass over FILE: branches, uops, taken rate, static
 *       branch count.
 *
 *   pcbp_trace info FILE
 *       Deterministic `key value` identity of FILE: record, block
 *       and static-branch counts, file and index bytes, bytes per
 *       record (key list pinned by tests/golden/trace_info_keys.txt).
 *
 *   pcbp_trace import-ascii IN OUT [--block-records N]
 *       Import a CBP-style ASCII branch trace: one branch per line,
 *       `PC OUTCOME [UOPS]` — PC in hex (0x...) or decimal, OUTCOME
 *       one of 1/0/T/N, optional per-branch uop count (default 1).
 *       Lines starting with '#' and blank lines are skipped. Block
 *       ids are assigned per distinct PC in first-seen order
 *       (importAsciiTrace). OUT is replaced only once IN has been
 *       read in full. Replay needs one successor per branch
 *       direction, so a corpus where a PC is followed by different
 *       PCs after the same outcome imports but does not replay.
 *
 * --block-records N sets the records per compressed block: 1 to
 * 1048576 (trace2fmt::maxBlockRecords), default 4096.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/cli_parse.hh"
#include "common/logging.hh"
#include "sim/driver.hh"
#include "workload/trace.hh"
#include "workload/trace2.hh"

using namespace pcbp;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s COMMAND [options]\n"
        "  record    --workload NAME --out FILE [--branches N]\n"
        "            [--block-records N]\n"
        "  summarize FILE\n"
        "  info      FILE\n"
        "  import-ascii IN OUT [--block-records N]\n",
        argv0);
    std::exit(2);
}

/** --block-records: a count in 1..trace2fmt::maxBlockRecords. */
std::uint32_t
parseBlockRecords(const std::string &flag, const std::string &value)
{
    const std::uint64_t n =
        parseCountArg(flag, value, trace2fmt::maxBlockRecords);
    if (n == 0)
        pcbp_fatal(flag, " must be at least 1");
    return std::uint32_t(n);
}

int
cmdRecord(int argc, char **argv)
{
    std::string workload, out;
    std::optional<std::uint64_t> branchesOpt;
    std::uint32_t blockRecords = trace2fmt::defaultBlockRecords;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--workload" && i + 1 < argc)
            workload = argv[++i];
        else if (a == "--out" && i + 1 < argc)
            out = argv[++i];
        else if (a == "--branches" && i + 1 < argc)
            branchesOpt = parseCountArg<std::uint64_t>(a, argv[++i]);
        else if (a == "--block-records" && i + 1 < argc)
            blockRecords = parseBlockRecords(a, argv[++i]);
        else
            usage("pcbp_trace");
    }
    if (workload.empty() || out.empty())
        usage("pcbp_trace");

    const Workload &w = workloadByName(workload);
    const std::uint64_t branches =
        branchesOpt.value_or(w.warmupBranches + w.simBranches);

    Program program = buildProgram(w);
    ProgramWalkStream stream(program, branches);
    Trace2Writer writer(out, blockRecords);
    for (std::uint64_t i = 0; i < branches; ++i) {
        const CommittedBranch *cb = stream.at(i);
        pcbp_assert(cb != nullptr);
        writer.append(*cb);
        stream.release(i + 1);
    }
    writer.finish();
    std::printf("recorded %" PRIu64 " branches of '%s' to %s "
                "(pcbptrc2, window peak %zu records)\n",
                writer.written(), w.name.c_str(), out.c_str(),
                stream.windowPeak());
    return 0;
}

int
cmdInfo(const std::string &path)
{
    std::fputs(renderTraceInfo(path).c_str(), stdout);
    return 0;
}

int
cmdImportAscii(const std::string &in, const std::string &out, int argc,
               char **argv)
{
    std::uint32_t blockRecords = trace2fmt::defaultBlockRecords;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--block-records" && i + 1 < argc)
            blockRecords = parseBlockRecords(a, argv[++i]);
        else
            usage("pcbp_trace");
    }
    const std::uint64_t n = importAsciiTrace(in, out, blockRecords);
    std::printf("imported %" PRIu64 " branches (%" PRIu64
                " static) from %s to %s (pcbptrc2)\n",
                n, Trace2Reader::open(out)->info().staticBranches,
                in.c_str(), out.c_str());
    return 0;
}

int
cmdSummarize(const std::string &path)
{
    const TraceSummary s = summarizeTraceFile(path);
    std::printf("%s\n", path.c_str());
    std::printf("  branches         %" PRIu64 "\n", s.branches);
    std::printf("  uops             %" PRIu64 "\n", s.uops);
    std::printf("  taken rate       %.4f\n", s.takenRate());
    std::printf("  uops per branch  %.2f\n", s.uopsPerBranch());
    std::printf("  static branches  %" PRIu64 "\n", s.staticBranches);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);
    const std::string cmd = argv[1];
    if (cmd == "record")
        return cmdRecord(argc - 2, argv + 2);
    if (cmd == "summarize" && argc == 3)
        return cmdSummarize(argv[2]);
    if (cmd == "info" && argc == 3)
        return cmdInfo(argv[2]);
    if (cmd == "import-ascii" && argc >= 4)
        return cmdImportAscii(argv[2], argv[3], argc - 4, argv + 4);
    usage(argv[0]);
}
