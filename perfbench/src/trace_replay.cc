/**
 * @file
 * trace-replay: record large-footprint programs to PCBPTRC2 files
 * (the write path), decode them back and check the records (the read
 * path), then replay each through Engine under a cheap prophet and a
 * full hybrid, and through TimingSim over a prefix. Trace decode is a
 * large share of a cheap-prophet replay, and the CFG walk is
 * bypassed.
 */

#include <filesystem>

#include "bench.hh"
#include "workload/trace.hh"
#include "workload/trace2.hh"

namespace perfbench
{

namespace
{

/** Programs per pass, each recorded and replayed on its own. */
constexpr std::uint64_t kPrograms = 4;
constexpr std::uint64_t kTraceBranches = 250000;
constexpr std::uint64_t kTimingBranches = 50000;

std::uint64_t
digestRecord(const pcbp::CommittedBranch &r, std::uint64_t h)
{
    const std::uint64_t fields[] = {r.block, r.pc, r.taken, r.numUops};
    return fnv1a(fields, sizeof(fields), h);
}

/** The write path, split for the traced run. */
struct RecordProbe
{
    CallTimer walk;
    CallTimer append;
    double finishNs = 0;
};

/** Walk @p program for @p n branches into a PCBPTRC2 file; returns
 *  the digest of the records written. */
std::uint64_t
record(pcbp::Program &program, std::uint64_t n, const std::string &path,
       RecordProbe *probe)
{
    pcbp::ProgramWalkStream walk(program, n);
    pcbp::Trace2Writer writer(path);
    std::uint64_t h = fnv1a(nullptr, 0);
    for (std::uint64_t i = 0; i < n; ++i) {
        const pcbp::CommittedBranch *r =
            probe ? probe->walk.time([&] { return walk.at(i); }) : walk.at(i);
        h = digestRecord(*r, h);
        if (probe)
            probe->append.time([&] { writer.append(*r); });
        else
            writer.append(*r);
        walk.release(i + 1);
    }
    const std::uint64_t t0 = nowNs();
    writer.finish();
    if (probe)
        probe->finishNs += double(nowNs() - t0);
    return h;
}

/** Decode every block of @p path; the digest and count of records. */
Op
verifyDecode(const std::string &name, const std::string &path,
             std::uint64_t written_digest)
{
    const std::uint64_t t0 = nowNs();
    const auto reader = pcbp::Trace2Reader::open(path);
    std::vector<pcbp::CommittedBranch> block;
    std::uint64_t h = fnv1a(nullptr, 0);
    std::uint64_t records = 0;
    for (std::uint64_t b = 0; b < reader->numBlocks(); ++b) {
        reader->decodeBlock(b, block);
        for (const pcbp::CommittedBranch &r : block)
            h = digestRecord(r, h);
        records += block.size();
    }
    Op op;
    op.name = name;
    op.out = {{"records", records}, {"digest", h}};
    op.ok = h == written_digest;
    op.seconds = double(nowNs() - t0) / 1e9;
    return op;
}

std::vector<CellDef>
replayCells()
{
    using pcbp::Budget;
    using pcbp::CriticKind;
    using pcbp::ProphetKind;

    const pcbp::HybridSpec hybrid = pcbp::hybridSpec(
        ProphetKind::Perceptron, Budget::B8KB, CriticKind::TaggedGshare,
        Budget::B8KB, 8);
    std::vector<CellDef> cells(3);
    cells[0].spec = pcbp::prophetAlone(ProphetKind::Gshare, Budget::B8KB);
    cells[1].spec = hybrid;
    cells[2].spec = hybrid;
    cells[2].timing = true;
    for (CellDef &c : cells) {
        c.name = std::string(c.timing ? "replay|timing|" : "replay|accuracy|") +
                 c.spec.label();
        c.engine.warmupBranches = kTraceBranches / 10;
        c.engine.measureBranches = kTraceBranches - kTraceBranches / 10;
        c.timingCfg.warmupBranches = kTimingBranches / 10;
        c.timingCfg.measureBranches = kTimingBranches - kTimingBranches / 10;
    }
    return cells;
}

} // namespace

void
runTraceReplay(const Options &opt, Report &report)
{
    namespace fs = std::filesystem;
    // Like engine-long, each trace comes from its own program: copies
    // of the registry program at the default seed, distinct
    // re-seedings at any other.
    std::vector<pcbp::Workload> workloads;
    std::vector<std::string> primed;
    for (std::uint64_t v = 0; v < kPrograms; ++v) {
        workloads.push_back(seededWorkload("serv.tpcc", opt.seed, v));
        primed.push_back(opt.workDir + "/primed" + std::to_string(v) +
                         ".pcbt2");
        pcbp::Program p = pcbp::buildProgram(workloads.back());
        record(p, kTraceBranches, primed.back(), nullptr);
    }

    const std::vector<CellDef> cells = replayCells();
    const std::uint64_t start = nowNs();
    do {
        Pass pass;
        pass.traced = opt.trace && report.passes.size() % 2 == 1;
        LayerAcc layers;
        RecordProbe probe;

        // Set-up, repeated before every pass: build each program,
        // reconstruct its replay CFG from its trace, open the trace.
        std::vector<pcbp::Program> programs, replay_programs;
        std::vector<double> reconstruct_ms;
        const std::uint64_t s0 = nowNs();
        for (std::uint64_t v = 0; v < kPrograms; ++v) {
            const std::uint64_t b0 = nowNs();
            programs.push_back(pcbp::buildProgram(workloads[v]));
            const std::uint64_t b1 = nowNs();
            replay_programs.push_back(pcbp::reconstructProgramFromTrace(
                primed[v], "trace:" + workloads[v].name));
            const std::uint64_t b2 = nowNs();
            pcbp::Trace2Reader::open(primed[v]);
            layers.buildProgramMs.push_back(double(b1 - b0) / 1e6);
            reconstruct_ms.push_back(double(b2 - b1) / 1e6);
        }
        report.setupS.push_back(double(nowNs() - s0) / 1e9);

        const std::uint64_t t0 = nowNs();
        std::uint64_t bytes = 0;
        std::uint64_t blocks = 0;
        for (std::uint64_t v = 0; v < kPrograms; ++v) {
            const std::string prefix = "p" + std::to_string(v) + "|";
            const std::string path =
                opt.workDir + "/pass" + std::to_string(report.passes.size() % 2) +
                "-" + std::to_string(v) + ".pcbt2";
            fs::remove(path);

            Op rec;
            rec.name = prefix + "record";
            const std::uint64_t r0 = nowNs();
            const std::uint64_t digest = record(
                programs[v], kTraceBranches, path, pass.traced ? &probe : nullptr);
            rec.seconds = double(nowNs() - r0) / 1e9;
            const std::uint64_t size = fs::file_size(path);
            bytes += size;
            rec.out = {{"records", kTraceBranches},
                       {"bytes", size},
                       {"digest", digest}};
            pass.ops.push_back(rec);
            pass.ops.push_back(verifyDecode(prefix + "decode", path, digest));

            for (const CellDef &cell : cells) {
                const std::uint64_t c0 = nowNs();
                auto stream = pcbp::openTraceStream(path);
                Op op = runCell(cell, replay_programs[v], *stream,
                                pass.traced ? &layers : nullptr, true);
                op.name = prefix + op.name;
                op.seconds = double(nowNs() - c0) / 1e9;
                if (const auto *cts =
                        dynamic_cast<const pcbp::CompressedTraceStream *>(
                            stream.get())) {
                    blocks += cts->blocksDecoded();
                }
                pass.ops.push_back(std::move(op));
            }
        }
        pass.wallS = double(nowNs() - t0) / 1e9;

        if (pass.traced) {
            const double records = double(kPrograms * kTraceBranches);
            layers.addStream(probe.walk, false);
            pass.layers = layers.metrics();
            pass.layers["workload.trace2.encode_ns_per_branch"] =
                (probe.append.estimatedNs() + probe.finishNs) / records;
            pass.layers["workload.trace2.bytes_per_branch"] =
                double(bytes) / records;
            pass.layers["workload.trace2.blocks_decoded"] = double(blocks);
            pass.layers["workload.reconstruct_ms"] = median(reconstruct_ms);
        }
        report.passes.push_back(std::move(pass));
    } while (morePasses(report, start, opt.seconds, opt.trace ? 2 : 1));
}

} // namespace perfbench
