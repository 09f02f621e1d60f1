/**
 * @file
 * Long-run smoke (ctest label: slow): ten million committed branches
 * through the streaming core, asserting the committed-stream window
 * — the only structure whose size could scale with run length —
 * stays bounded by the pipeline, so memory is independent of branch
 * count. The precomputed-vector path this replaced would have
 * allocated ~170MB here (and ~17GB at a billion branches); the
 * stream holds a few dozen records.
 */

#include <cstdio>

#include <gtest/gtest.h>

#include "sim/committed_stream.hh"
#include "sim/driver.hh"
#include "workload/trace2.hh"

namespace pcbp
{
namespace
{

TEST(LongRun, TenMillionBranchesConstantMemory)
{
    const Workload &w = workloadByName("mm.mpeg");
    const auto spec = prophetAlone(ProphetKind::Gshare, Budget::B8KB);

    EngineConfig cfg;
    cfg.warmupBranches = 100000;
    cfg.measureBranches = 9900000;

    Program p = buildProgram(w);
    auto h = spec.build();
    Engine engine(p, *h, cfg);
    ProgramWalkStream stream(p, 10000000);
    const EngineStats st = engine.run(stream);

    EXPECT_EQ(st.committedBranches, 9900000u);
    EXPECT_GT(st.committedUops, st.committedBranches);
    // O(pipeline) resident stream: the window never grew past
    // pipeline depth + lookahead, over a 10M-branch run.
    EXPECT_LE(stream.windowPeak(),
              std::size_t(cfg.pipelineDepth) + 8 + 1);
}

TEST(LongRun, HybridMillionBranchesBoundedWindow)
{
    const Workload &w = workloadByName("serv.tpcc");
    const auto spec =
        hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8);

    EngineConfig cfg;
    cfg.warmupBranches = 50000;
    cfg.measureBranches = 950000;

    Program p = buildProgram(w);
    auto h = spec.build();
    Engine engine(p, *h, cfg);
    ProgramWalkStream stream(p, 1000000);
    const EngineStats st = engine.run(stream);

    EXPECT_EQ(st.committedBranches, 950000u);
    EXPECT_GT(st.criticOverrides, 0u);
    EXPECT_LE(stream.windowPeak(),
              std::size_t(cfg.pipelineDepth) + 8 + 1);
}

/**
 * The PCBPTRC2 acceptance criterion at full scale: a ten-million-
 * branch trace recorded straight to PCBPTRC2 meets the compactness
 * bound, file bytes <= 4 + 4.25 x records (a quarter of a flat
 * 16-byte header plus 17 bytes per record), and one linear replay
 * returns every record of a fresh walk of the same program while
 * decoding each block exactly once. Recording and
 * replay both stream, so this test's memory stays O(block), not
 * O(trace).
 */
TEST(LongRun, TenMillionBranchTraceCompressesAndReplaysLinearly)
{
    const std::string v2 = testing::TempDir() + "longrun_10m.pcbptrc2";
    constexpr std::uint64_t kBranches = 10000000;

    const Workload &w = workloadByName("mm.mpeg");
    {
        Program p = buildProgram(w);
        Trace2Writer rec(v2);
        ProgramWalkStream stream(p, kBranches);
        for (std::uint64_t i = 0; i < kBranches; ++i) {
            const CommittedBranch *r = stream.at(i);
            ASSERT_NE(r, nullptr);
            rec.append(*r);
            stream.release(i + 1);
        }
        rec.finish();
        ASSERT_EQ(rec.written(), kBranches);
    }

    const auto reader = Trace2Reader::open(v2);
    const Trace2Info info = reader->info();
    EXPECT_EQ(info.recordCount, kBranches);
    EXPECT_LE(double(info.fileBytes), 4.0 + 4.25 * double(kBranches))
        << info.fileBytes << " bytes for " << kBranches << " records";

    Program q = buildProgram(w);
    ProgramWalkStream ref(q, kBranches);
    CompressedTraceStream s(v2);
    for (std::uint64_t i = 0; i < kBranches; ++i) {
        const CommittedBranch *a = ref.at(i);
        const CommittedBranch *b = s.at(i);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr) << "record " << i;
        ASSERT_EQ(a->block, b->block) << "record " << i;
        ASSERT_EQ(a->pc, b->pc) << "record " << i;
        ASSERT_EQ(a->taken, b->taken) << "record " << i;
        ASSERT_EQ(a->numUops, b->numUops) << "record " << i;
        ref.release(i + 1);
        s.release(i + 1);
    }
    EXPECT_EQ(s.at(kBranches), nullptr);
    EXPECT_EQ(s.blocksDecoded(), reader->numBlocks());
    std::remove(v2.c_str());
}

} // namespace
} // namespace pcbp
