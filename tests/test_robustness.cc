/**
 * @file
 * Robustness and failure-injection tests: invalid configurations
 * must fail loudly (panic/fatal), corrupted inputs must be rejected,
 * and boundary conditions must hold.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/logging.hh"
#include "core/tag_filter.hh"
#include "predictors/factory.hh"
#include "predictors/gshare.hh"
#include "sim/driver.hh"
#include "support.hh"
#include "workload/trace.hh"
#include "workload/trace2.hh"

namespace pcbp
{
namespace
{

// --------------------------------------------------- invalid configs die

TEST(RobustnessDeath, GshareRequiresPowerOfTwo)
{
    EXPECT_DEATH(Gshare(1000, 12), "gshare size must be 2\\^n");
}

TEST(RobustnessDeath, TagFilterBounds)
{
    EXPECT_DEATH(TagFilter(63, 4, 10, 18), "filter sets must be 2\\^n");
    EXPECT_DEATH(TagFilter(64, 4, 2, 18), "tag_bits");
}

TEST(RobustnessDeath, UnknownSpecStringsAreFatal)
{
    EXPECT_DEATH(parseProphetKind("ittage"), "unknown predictor kind");
    EXPECT_DEATH(parseBudget("7KB"), "unknown budget");
    EXPECT_DEATH(parseCriticKind("oracle"), "unknown critic kind");
    // Retired extension kinds must not map onto a surviving kind.
    EXPECT_DEATH(parseProphetKind("yags"), "unknown predictor kind");
    EXPECT_DEATH(parseProphetKind("fusion"), "unknown predictor kind");
    EXPECT_DEATH(parseCriticKind("u.gshare"), "unknown critic kind");
    EXPECT_DEATH(workloadByName("spec2006.gcc"), "unknown workload");
}

TEST(RobustnessDeath, HybridRequiresProphet)
{
    HybridConfig cfg;
    EXPECT_DEATH(ProphetCriticHybrid(nullptr, nullptr, cfg),
                 "a hybrid needs a prophet");
}

// ------------------------------------------------------ corrupted traces

// The fatal scan wrapper exits 1 naming the problem; the try layer
// under it is fuzzed in test_trace_fuzz.cc.

/** Record @p branches of fp.swim to a PCBPTRC2 file at @p path, in
 *  blocks of @p rpb records; returns the file's bytes. */
std::string
recordTrace(const std::string &path, std::uint64_t branches,
            std::uint32_t rpb = trace2fmt::defaultBlockRecords)
{
    Program p = buildProgram(workloadByName("fp.swim"));
    {
        Trace2Writer w(path, rpb);
        for (const CommittedBranch &r : walkProgram(p, branches))
            w.append(r);
    }
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(TraceRobustness, MissingFileIsFatal)
{
    EXPECT_EXIT(summarizeTraceFile("/nonexistent/dir/foo.trace"),
                testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceRobustness, BadMagicIsFatal)
{
    const std::string path = testing::TempDir() + "pcbp_badmagic.trace";
    std::string bytes = recordTrace(path, 100);
    bytes[0] = 'N';
    writeBytes(path, bytes);
    EXPECT_EXIT(summarizeTraceFile(path), testing::ExitedWithCode(1),
                "bad magic");
    std::remove(path.c_str());
}

TEST(TraceRobustness, TruncatedFileIsFatal)
{
    const std::string path = testing::TempDir() + "pcbp_trunc.trace";
    const std::string bytes = recordTrace(path, 100);
    // Chop the file in half: the footer the header points at is gone.
    writeBytes(path, bytes.substr(0, bytes.size() / 2));
    EXPECT_EXIT(summarizeTraceFile(path), testing::ExitedWithCode(1),
                "index offset outside the file");
    std::remove(path.c_str());
}

TEST(TraceRobustness, BlockTornMidScanIsFatal)
{
    const std::string path = testing::TempDir() + "pcbp_torn.trace";
    std::string bytes = recordTrace(path, 100, 16);
    // Set the continuation bit of the last block's final payload
    // byte: the header, footer and blocks 0-5 still validate, so the
    // read has decoded 96 records when block 6 fails to decode.
    const std::uint64_t payload_end =
        bytes.size() - Trace2Reader::open(path)->info().indexBytes;
    bytes[std::size_t(payload_end - 1)] ^= char(0x80);
    writeBytes(path, bytes);

    std::vector<CommittedBranch> decoded;
    std::string error;
    EXPECT_FALSE(tryReadTrace(path, decoded, error));
    EXPECT_EQ(decoded.size(), 96u);
    EXPECT_EXIT(summarizeTraceFile(path), testing::ExitedWithCode(1),
                "block 6 .*torn write");
    std::remove(path.c_str());
}

TEST(TraceRobustness, EmptyTraceRoundTrips)
{
    const std::string path = testing::TempDir() + "pcbp_empty.trace";
    recordTrace(path, 0);
    EXPECT_TRUE(readTrace(path).empty());
    EXPECT_EQ(summarizeTraceFile(path).branches, 0u);
    // Readable, but nothing to replay.
    EXPECT_EXIT(reconstructProgramFromTrace(path, "empty"),
                testing::ExitedWithCode(1), "is empty");
    std::remove(path.c_str());
}

// ------------------------------------------------------------ boundaries

TEST(Boundaries, MinimalEngineRun)
{
    // The smallest legal configuration still runs to completion.
    Program p("mini");
    BasicBlock a;
    a.branchPc = 0x1000;
    a.numUops = 1;
    a.takenTarget = 0;
    a.fallthroughTarget = 0;
    p.addBlock(a, BranchBehavior::biased(1.0, 1));
    p.validate();

    auto h = prophetAlone(ProphetKind::Bimodal, Budget::B2KB).build();
    EngineConfig cfg;
    cfg.pipelineDepth = 2;
    cfg.measureBranches = 10;
    cfg.warmupBranches = 0;
    const EngineStats st = Engine(p, *h, cfg).run();
    EXPECT_EQ(st.committedBranches, 10u);
    EXPECT_EQ(st.committedUops, 10u);
}

TEST(Boundaries, TwelveFutureBitsAtMinimumDepth)
{
    const Workload &w = workloadByName("fp.swim");
    Program p = buildProgram(w);
    auto h = hybridSpec(ProphetKind::Gshare, Budget::B2KB,
                        CriticKind::TaggedGshare, Budget::B2KB, 12)
                 .build();
    EngineConfig cfg;
    cfg.pipelineDepth = 13; // minimum legal: futureBits + 1
    cfg.measureBranches = 5000;
    cfg.warmupBranches = 500;
    const EngineStats st = Engine(p, *h, cfg).run();
    EXPECT_EQ(st.committedBranches, 5000u);
    // With depth == bits + 1 most critiques are forced partial (the
    // queue can never hold 12 younger predictions when resolving).
    EXPECT_GT(st.partialCritiques, 0u);
}

TEST(Boundaries, HugeBlocksDontBreakTiming)
{
    // Blocks larger than the fetch width stream over several cycles.
    Program p("big-blocks");
    for (int i = 0; i < 2; ++i) {
        BasicBlock b;
        b.branchPc = 0x1000 + 16 * i;
        b.numUops = 100;
        b.takenTarget = static_cast<BlockId>(1 - i);
        b.fallthroughTarget = static_cast<BlockId>(1 - i);
        p.addBlock(b, BranchBehavior::biased(1.0, 1 + i));
    }
    p.validate();
    auto h = prophetAlone(ProphetKind::Bimodal, Budget::B2KB).build();
    TimingConfig cfg;
    cfg.measureBranches = 500;
    cfg.warmupBranches = 50;
    const TimingStats st = TimingSim(p, *h, cfg).run();
    EXPECT_EQ(st.committedBranches, 500u);
    EXPECT_NEAR(st.upc(), 6.0, 0.5)
        << "long straight blocks should saturate the 6-uop machine";
}

TEST(Boundaries, ZeroWarmupMeasuresEverything)
{
    const Workload &w = workloadByName("fp.swim");
    const auto spec = prophetAlone(ProphetKind::Gshare, Budget::B8KB);
    EngineConfig cfg;
    cfg.measureBranches = 2000;
    cfg.warmupBranches = 0;
    const EngineStats st = runAccuracy(w, spec, cfg);
    EXPECT_EQ(st.committedBranches, 2000u);
    EXPECT_GE(st.btbMisses, 1u) << "cold BTB misses are visible";
}

TEST(Boundaries, BenchScaleFloorsAtUsableSizes)
{
    // engineConfigFor never produces degenerate run lengths.
    const Workload &w = workloadByName("fp.swim");
    const EngineConfig cfg = engineConfigFor(w);
    EXPECT_GE(cfg.measureBranches, 1000u);
    EXPECT_GE(cfg.warmupBranches, 100u);
}

} // namespace
} // namespace pcbp
