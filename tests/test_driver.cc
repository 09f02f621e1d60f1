/**
 * @file
 * Tests for the experiment driver and metrics layer: spec building,
 * aggregation math, bench scaling, trace workloads through the
 * driver, and a handful of deeper mechanism checks that sit
 * naturally at this level.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/stat_registry.hh"
#include "predictors/gskew.hh"
#include "sim/driver.hh"
#include "support.hh"
#include "workload/trace.hh"
#include "workload/trace2.hh"

namespace pcbp
{
namespace
{

// ------------------------------------------------------------- HybridSpec

TEST(HybridSpec, LabelsAreReadable)
{
    const auto alone = prophetAlone(ProphetKind::GSkew, Budget::B16KB);
    EXPECT_EQ(alone.label(), "16KB 2Bc-gskew");

    const auto hyb = hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                                CriticKind::TaggedGshare, Budget::B8KB,
                                8);
    EXPECT_EQ(hyb.label(), "8KB perceptron + 8KB t.gshare");
}

TEST(HybridSpec, BuildRespectsCriticPresence)
{
    const auto alone = prophetAlone(ProphetKind::Gshare, Budget::B4KB);
    EXPECT_FALSE(alone.build()->hasCritic());

    const auto hyb = hybridSpec(ProphetKind::Gshare, Budget::B4KB,
                                CriticKind::FilteredPerceptron,
                                Budget::B4KB, 4);
    auto built = hyb.build();
    EXPECT_TRUE(built->hasCritic());
    EXPECT_EQ(built->numFutureBits(), 4u);
}

TEST(HybridSpec, ProphetAloneHasZeroFutureBits)
{
    const auto alone = prophetAlone(ProphetKind::Gshare, Budget::B4KB);
    EXPECT_EQ(alone.build()->numFutureBits(), 0u);
}

TEST(HybridSpec, AblationKnobsReachTheHybrid)
{
    auto spec = prophetAlone(ProphetKind::Gshare, Budget::B4KB);
    spec.speculativeHistory = false;
    auto h = spec.build();
    // With retired-only update, predictBranch must not advance the
    // registers.
    BranchContext ctx;
    h->predictBranch(0x1000, ctx);
    EXPECT_EQ(h->history(), ctx.histBefore);
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, AggregateAveragesRatesAndSumsCounters)
{
    EngineStats a, b;
    a.committedBranches = 1000;
    a.committedUops = 10000;
    a.finalMispredicts = 100; // 10 misp/Kuops
    b.committedBranches = 1000;
    b.committedUops = 10000;
    b.finalMispredicts = 300; // 30 misp/Kuops
    const AggregateResult agg = aggregate({a, b});
    EXPECT_DOUBLE_EQ(agg.mispPerKuops, 20.0);
    EXPECT_EQ(agg.finalMispredicts, 400u);
    EXPECT_EQ(agg.committedUops, 20000u);
    EXPECT_DOUBLE_EQ(agg.uopsPerFlush(), 50.0);
}

TEST(Metrics, AggregateEmptyIsZero)
{
    const AggregateResult agg = aggregate({});
    EXPECT_DOUBLE_EQ(agg.mispPerKuops, 0.0);
    EXPECT_EQ(agg.committedBranches, 0u);
}

TEST(Metrics, PctReduction)
{
    EXPECT_DOUBLE_EQ(pctReduction(10.0, 5.0), 50.0);
    EXPECT_DOUBLE_EQ(pctReduction(10.0, 12.0), -20.0);
    EXPECT_DOUBLE_EQ(pctReduction(0.0, 1.0), 0.0);
}

TEST(Metrics, AggregateSumsCritiques)
{
    EngineStats a, b;
    a.critiques.record(CritiqueClass::CorrectAgree);
    a.critiques.record(CritiqueClass::IncorrectDisagree);
    b.critiques.record(CritiqueClass::CorrectAgree);
    const AggregateResult agg = aggregate({a, b});
    EXPECT_EQ(agg.critiques.get(CritiqueClass::CorrectAgree), 2u);
    EXPECT_EQ(agg.critiques.get(CritiqueClass::IncorrectDisagree), 1u);
}

// -------------------------------------------------------- engineConfigFor

TEST(RunSet, EngineConfigForScalesWithWorkload)
{
    const Workload &w = workloadByName("unzip");
    const EngineConfig cfg = engineConfigFor(w);
    EXPECT_EQ(cfg.measureBranches, w.simBranches);
    EXPECT_EQ(cfg.warmupBranches, w.warmupBranches);
}

// ------------------------------------------------------- bench scale

TEST(BenchScale, UnsetIsOneAndValuesParseWhole)
{
    EXPECT_EQ(parseBenchScale(nullptr), 1.0);
    EXPECT_EQ(parseBenchScale("1"), 1.0);
    EXPECT_EQ(parseBenchScale("0.05"), 0.05);
    EXPECT_EQ(parseBenchScale("4"), 4.0);
    // Finite and above 0: accepted here, caught by scaleCount.
    EXPECT_EQ(parseBenchScale("1e300"), 1e300);
    // atof read "0.02x" as 0.02 and NaN/infinity passed its check; 0
    // and "abc" only warned and ran at full scale.
    for (const char *bad : {"nan", "inf", "0.02x", "abc", "", " 1",
                            "-1"}) {
        SCOPED_TRACE(std::string("'") + bad + "'");
        EXPECT_EXIT(parseBenchScale(bad), testing::ExitedWithCode(1),
                    "PCBP_BENCH_SCALE wants a finite non-negative "
                    "number");
    }
    EXPECT_EXIT(parseBenchScale("0"), testing::ExitedWithCode(1),
                "PCBP_BENCH_SCALE must be above 0");
}

TEST(BenchScale, ScaleCountIsTheCastBelowTwoToThe53)
{
    // Store keys and goldens embed scaled counts: at scale 1 and the
    // CI scales nothing may move.
    for (const double scale : {1.0, 0.05, 0.02, 4.0}) {
        for (const std::uint64_t n :
             {std::uint64_t(0), std::uint64_t(1), std::uint64_t(999),
              std::uint64_t(1000), std::uint64_t(30001),
              std::uint64_t(1500000), std::uint64_t(123456789),
              (std::uint64_t(1) << 53) - 1}) {
            EXPECT_EQ(scaleCount(double(n), scale, "n"),
                      std::uint64_t(double(n) * scale))
                << n << " x " << scale;
            EXPECT_EQ(scaleCount(double(n) / 3.0, scale, "n"),
                      std::uint64_t(double(n) / 3.0 * scale))
                << n << " / 3 x " << scale;
        }
    }
    EXPECT_EQ(scaleCount(9223372036854775808.0, 1.0, "n"),
              std::uint64_t(1) << 63);
}

TEST(BenchScale, ScaleCountRejectsProductsPast64Bits)
{
    // Each used to wrap or read back as the 1000-branch floor.
    EXPECT_EXIT(scaleCount(double(~std::uint64_t(0)), 1.0,
                           "'branches'"),
                testing::ExitedWithCode(1),
                "'branches' times PCBP_BENCH_SCALE 1 does not fit");
    EXPECT_EXIT(scaleCount(9223372036854775808.0, 2.0, "'warmup'"),
                testing::ExitedWithCode(1),
                "'warmup' times PCBP_BENCH_SCALE 2 does not fit");
    EXPECT_EXIT(scaleCount(1000.0, 1e300, "budget"),
                testing::ExitedWithCode(1),
                "budget times PCBP_BENCH_SCALE");
}

// --------------------------------------------------- trace workloads

/** Commit events and sim-section stats of one tapped run. */
struct TappedRun
{
    std::vector<CommitEvent> events;
    std::string simJson;
    std::uint64_t committedBranches = 0;
};

template <typename Config, typename Run>
TappedRun
tappedRun(Config cfg, const Run &run)
{
    RecordingSink sink;
    StatRegistry reg;
    cfg.commitSink = &sink;
    cfg.statsOut = &reg;
    TappedRun r;
    r.committedBranches = run(cfg).committedBranches;
    r.events = std::move(sink.events);
    r.simJson = reg.simJson();
    return r;
}

void
expectSameRun(const TappedRun &a, const TappedRun &b)
{
    EXPECT_EQ(a.committedBranches, b.committedBranches);
    EXPECT_EQ(a.simJson, b.simJson);
    expectSameEvents(a.events, b.events);
}

TEST(Driver, TraceWorkloadsReplayTheFile)
{
    constexpr std::uint64_t records = 6000, warmup = 600;
    const std::string path =
        testing::TempDir() + "driver_replay.pcbptrc2";
    {
        Program p = buildProgram(workloadByName("mm.mpeg"));
        Trace2Writer writer(path);
        for (const CommittedBranch &r : walkProgram(p, records))
            writer.append(r);
    }
    const Workload &w = workloadByName("trace:" + path);
    const HybridSpec spec =
        hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8);

    // 3000 ends inside the file; 50000 runs past its end, where a
    // walk of the reconstructed CFG would go on committing.
    for (const std::uint64_t measure :
         {std::uint64_t(3000), std::uint64_t(50000)}) {
        SCOPED_TRACE("measure " + std::to_string(measure));
        const std::uint64_t want =
            std::min<std::uint64_t>(measure, records - warmup);

        EngineConfig ec;
        ec.warmupBranches = warmup;
        ec.measureBranches = measure;
        const TappedRun engine =
            tappedRun(ec, [&](const EngineConfig &c) {
                return runAccuracy(w, spec, c);
            });
        const TappedRun engineRef =
            tappedRun(ec, [&](const EngineConfig &c) {
                Program prog = reconstructProgramFromTrace(path, w.name);
                auto hybrid = spec.build();
                CompressedTraceStream stream(path);
                return Engine(prog, *hybrid, c).run(stream);
            });
        expectSameRun(engine, engineRef);
        EXPECT_EQ(engine.committedBranches, want);

        TimingConfig tc;
        tc.warmupBranches = warmup;
        tc.measureBranches = measure;
        const TappedRun timing =
            tappedRun(tc, [&](const TimingConfig &c) {
                return runTiming(w, spec, c);
            });
        const TappedRun timingRef =
            tappedRun(tc, [&](const TimingConfig &c) {
                Program prog = reconstructProgramFromTrace(path, w.name);
                auto hybrid = spec.build();
                CompressedTraceStream stream(path);
                return TimingSim(prog, *hybrid, c).run(stream);
            });
        expectSameRun(timing, timingRef);
        EXPECT_EQ(timing.committedBranches, want);
        if (measure > records) {
            EXPECT_EQ(engine.events.size(), records);
            EXPECT_EQ(timing.events.size(), records);
        }
    }
    std::remove(path.c_str());
}

TEST(Driver, RunH2PExportsIntoStatsOut)
{
    const Workload &w = workloadByName("mm.mpeg");
    const HybridSpec spec =
        hybridSpec(ProphetKind::Gshare, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 4);
    EngineConfig cfg;
    cfg.warmupBranches = 2000;
    cfg.measureBranches = 20000;

    StatRegistry viaDriver;
    EngineConfig dc = cfg;
    dc.statsOut = &viaDriver;
    EngineStats st;
    const H2PReport report = runH2P(w, spec, dc, {}, &st);

    // The same run with a hand-attached profiler exported after it.
    StatRegistry byHand;
    H2PProfiler profiler(cfg.warmupBranches);
    EngineConfig hc = cfg;
    hc.statsOut = &byHand;
    hc.commitSink = &profiler;
    const EngineStats ref = runAccuracy(w, spec, hc);
    profiler.exportStats(byHand);

    EXPECT_EQ(viaDriver.simJson(), byHand.simJson());
    EXPECT_EQ(st.committedBranches, ref.committedBranches);
    EXPECT_EQ(st.finalMispredicts, ref.finalMispredicts);
    EXPECT_EQ(st.committedBranches, 20000u);
    EXPECT_EQ(viaDriver.simValue("engine.committed_branches"),
              st.committedBranches);
    EXPECT_EQ(viaDriver.simValue("h2p.commits"), st.committedBranches);
    EXPECT_EQ(viaDriver.simValue("h2p.mispredicts"), st.finalMispredicts);
    EXPECT_EQ(report.branches, st.committedBranches);
    ASSERT_FALSE(report.top.empty());
    const BranchProfile &worst = report.top[0].profile;
    std::ostringstream key;
    key << "h2p.pc_0x" << std::hex << worst.pc << ".final_wrong";
    EXPECT_EQ(viaDriver.simValue(key.str()), worst.finalWrong);
}

// --------------------------------------------- deeper mechanism checks

TEST(Mechanism, GskewPartialUpdateSparesDisagreeingBanks)
{
    // On a correct majority prediction, a bank that voted against the
    // outcome is left alone (partial update).
    GSkew g(1024, 10);
    HistoryRegister h;
    // Train all banks strongly taken at one context.
    for (int i = 0; i < 8; ++i)
        g.update(0x4000, h, true);
    const auto before = g.banks(0x4000, h);
    ASSERT_TRUE(before.final_);
    // One not-taken outcome: mispredict -> full re-education moves
    // every direction bank one step. A second taken outcome is then
    // correct and must NOT strengthen banks that said not-taken.
    g.update(0x4000, h, false);
    g.update(0x4000, h, true);
    const auto after = g.banks(0x4000, h);
    EXPECT_TRUE(after.final_) << "still predicts taken overall";
}

TEST(Mechanism, UnfilteredCriticTrainsEveryCommit)
{
    // The unfiltered adapter updates its inner predictor on every
    // commit, so a bias flips after enough opposite outcomes even
    // without mispredict-gated allocation.
    auto critic = makeCritic(CriticKind::UnfilteredPerceptron, Budget::B2KB);
    HistoryRegister bor;
    for (int i = 0; i < 8; ++i)
        critic->train(0x5000, bor, true, false); // never "mispredicted"
    EXPECT_TRUE(critic->critique(0x5000, bor).taken);
    for (int i = 0; i < 8; ++i)
        critic->train(0x5000, bor, false, false);
    EXPECT_FALSE(critic->critique(0x5000, bor).taken);
}

TEST(Mechanism, OracleFutureBitsComeFromTheTrace)
{
    // In oracle mode with a fully-biased program, the critic's BOR
    // future bits equal the architectural outcomes; with a prophet
    // that is always wrong, the oracle critic can still learn the
    // (constant) context -> outcome mapping.
    Program p("oracle");
    BasicBlock a;
    a.branchPc = 0x1000;
    a.numUops = 10;
    a.takenTarget = 0;
    a.fallthroughTarget = 0;
    p.addBlock(a, BranchBehavior::biased(1.0, 1));
    p.validate();

    HybridConfig hc;
    hc.numFutureBits = 4;
    ProphetCriticHybrid hybrid(
        makeProphet(ProphetKind::AlwaysNotTaken, Budget::B2KB),
        makeCritic(CriticKind::TaggedGshare, Budget::B2KB), hc);
    EngineConfig cfg;
    cfg.oracleFutureBits = true;
    cfg.measureBranches = 3000;
    cfg.warmupBranches = 500;
    Engine e(p, hybrid, cfg);
    const EngineStats st = e.run();
    // The prophet is always wrong; the oracle-fed critic fixes
    // almost everything after warmup.
    EXPECT_LT(st.mispRate(), 0.05);
}

TEST(Mechanism, CriticFixesWhatProphetCannotOnChainWorkload)
{
    // End-to-end guard used by the benches: on the chain-heavy unzip
    // analogue, 12 future bits must beat 1 future bit.
    const Workload &w = workloadByName("unzip");
    EngineConfig cfg = engineConfigFor(w);
    cfg.measureBranches = 60000;
    cfg.warmupBranches = 10000;
    const double fb1 =
        runAccuracy(w,
                    hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                               CriticKind::TaggedGshare, Budget::B8KB,
                               1),
                    cfg)
            .mispPerKuops();
    const double fb12 =
        runAccuracy(w,
                    hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                               CriticKind::TaggedGshare, Budget::B8KB,
                               12),
                    cfg)
            .mispPerKuops();
    EXPECT_LT(fb12, fb1);
}

TEST(Mechanism, FlushDistanceHistogramTracksMispredicts)
{
    const Workload &w = workloadByName("serv.tpcc");
    const auto spec = prophetAlone(ProphetKind::Gshare, Budget::B4KB);
    EngineConfig cfg;
    cfg.measureBranches = 20000;
    cfg.warmupBranches = 2000;
    const EngineStats st = runAccuracy(w, spec, cfg);
    ASSERT_GT(st.finalMispredicts, 0u);
    EXPECT_EQ(st.flushDistance.count(), st.finalMispredicts);
}

} // namespace
} // namespace pcbp
