/**
 * @file
 * pcbp_trace — committed-branch trace file jobs. Runs over a trace
 * go through `pcbp_run --workload trace:FILE`, which reads the
 * PCBPTRC2 compressed indexed format only; PCBPTRC1 is interchange,
 * read by summarize/info/convert and written by `convert --to v1`.
 * A PCBPTRC1 file becomes replayable in place with
 * `pcbp_trace convert F F`.
 *
 *   pcbp_trace record --workload NAME --out FILE [--branches N]
 *                     [--block-records N]
 *       Walk a registered workload's CFG architecturally and stream
 *       the committed branches to FILE as PCBPTRC2 (constant memory;
 *       N defaults to the workload's warmup + measure budget).
 *
 *   pcbp_trace summarize FILE
 *       One chunked pass over FILE (either format): branches, uops,
 *       taken rate, static branch count.
 *
 *   pcbp_trace convert IN OUT [--to v1|v2] [--block-records N]
 *       Lossless conversion between the formats (default: to
 *       PCBPTRC2). OUT may be IN: it is replaced only once IN has
 *       been read in full. Prints the record count and size ratio.
 *
 *   pcbp_trace info FILE
 *       Deterministic `key value` identity of a trace file of either
 *       format: record/block/static-branch counts, bytes per record,
 *       compression ratio vs PCBPTRC1 (schema pinned in CI).
 *
 *   pcbp_trace import-ascii IN OUT [--block-records N]
 *       Import a CBP-style ASCII branch trace into PCBPTRC2: one
 *       branch per line, `PC OUTCOME [UOPS]` — PC in hex (0x...) or
 *       decimal, OUTCOME one of 1/0/T/N, optional per-branch uop
 *       count (default 1). Lines starting with '#' and blank lines
 *       are skipped. Block ids are assigned per distinct PC in
 *       first-seen order (importAsciiTrace).
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/cli_parse.hh"
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
        "  convert   IN OUT [--to v1|v2] [--block-records N]\n"
        "  info      FILE\n"
        "  import-ascii IN OUT [--block-records N]\n",
        argv0);
    std::exit(2);
}

/** "v1" -> false, "v2" -> true; anything else is a usage error. */
bool
parseFormatV2(const char *s)
{
    const std::string f = s;
    if (f == "v1")
        return false;
    if (f == "v2")
        return true;
    usage("pcbp_trace");
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
            blockRecords = parseCountArg<std::uint32_t>(a, argv[++i]);
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
cmdConvert(const std::string &in, const std::string &out, int argc,
           char **argv)
{
    bool toV2 = true;
    std::uint32_t blockRecords = trace2fmt::defaultBlockRecords;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--to" && i + 1 < argc)
            toV2 = parseFormatV2(argv[++i]);
        else if (a == "--block-records" && i + 1 < argc)
            blockRecords = parseCountArg<std::uint32_t>(a, argv[++i]);
        else
            usage("pcbp_trace");
    }
    const std::uint64_t n = convertTraceFile(in, out, toV2, blockRecords);
    const std::uint64_t v1Bytes =
        tracefmt::headerBytes + n * tracefmt::recordBytes;
    const std::uint64_t outBytes =
        toV2 ? Trace2Reader::open(out)->mappedBytes() : v1Bytes;
    std::printf("converted %" PRIu64 " records: %s -> %s (%s, "
                "%" PRIu64 " bytes, %.2fx vs pcbptrc1)\n",
                n, in.c_str(), out.c_str(),
                toV2 ? "pcbptrc2" : "pcbptrc1", outBytes,
                outBytes ? double(v1Bytes) / double(outBytes) : 0.0);
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
            blockRecords = parseCountArg<std::uint32_t>(a, argv[++i]);
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
    if (cmd == "convert" && argc >= 4)
        return cmdConvert(argv[2], argv[3], argc - 4, argv + 4);
    if (cmd == "info" && argc == 3)
        return cmdInfo(argv[2]);
    if (cmd == "import-ascii" && argc >= 4)
        return cmdImportAscii(argv[2], argv[3], argc - 4, argv + 4);
    usage(argv[0]);
}
