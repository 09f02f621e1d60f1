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
#include "workload/trace.hh"

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
    EXPECT_DEATH(makeProphet("ittage:8KB"), "unknown predictor kind");
    EXPECT_DEATH(makeProphet("gshare:7KB"), "unknown budget");
    EXPECT_DEATH(parseCriticKind("oracle"), "unknown critic kind");
    // Retired extension kinds must not map onto a surviving kind.
    EXPECT_DEATH(makeProphet("yags"), "unknown predictor kind");
    EXPECT_DEATH(makeProphet("fusion:8KB"), "unknown predictor kind");
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

TEST(TraceRobustness, MissingFileIsFatal)
{
    EXPECT_DEATH(loadTrace("/nonexistent/dir/foo.trace"),
                 "cannot open");
}

TEST(TraceRobustness, BadMagicIsFatal)
{
    const std::string path = "/tmp/pcbp_badmagic.trace";
    {
        std::ofstream f(path, std::ios::binary);
        f << "NOTATRACEFILE-------";
    }
    EXPECT_DEATH(loadTrace(path), "not a pcbp trace");
    std::remove(path.c_str());
}

TEST(TraceRobustness, TruncatedFileIsFatal)
{
    const Workload &w = workloadByName("fp.swim");
    Program p = buildProgram(w);
    auto trace = walkProgram(p, 100);
    const std::string path = "/tmp/pcbp_trunc.trace";
    saveTrace(path, trace);
    // Chop the file in half.
    {
        std::ifstream in(path, std::ios::binary);
        std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size() / 2));
    }
    EXPECT_DEATH(loadTrace(path), "truncated");
    std::remove(path.c_str());
}

TEST(TraceRobustness, EmptyTraceRoundTrips)
{
    const std::string path = "/tmp/pcbp_empty.trace";
    saveTrace(path, {});
    EXPECT_TRUE(loadTrace(path).empty());
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
    a.behavior = std::make_unique<BiasedBehavior>(1.0, 1);
    p.addBlock(std::move(a));
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
        b.behavior = std::make_unique<BiasedBehavior>(1.0, 1 + i);
        p.addBlock(std::move(b));
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
