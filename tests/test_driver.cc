/**
 * @file
 * Tests for the experiment driver and metrics layer: spec building,
 * aggregation math, parallel set runs, and a handful of deeper
 * mechanism checks that sit naturally at this level.
 */

#include <gtest/gtest.h>

#include "predictors/gskew.hh"
#include "sim/driver.hh"

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
    EXPECT_EQ(h->bhr(), ctx.bhrBefore);
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
    a.behavior = std::make_unique<BiasedBehavior>(1.0, 1);
    p.addBlock(std::move(a));
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
    EXPECT_GT(st.flushDistance.mean(), 0.0);
    EXPECT_LE(st.flushDistance.percentile(50),
              st.flushDistance.percentile(95));
}

} // namespace
} // namespace pcbp
