/**
 * @file
 * Golden regression tests: every component of this library is
 * bit-deterministic, so a handful of exact end-to-end values pin the
 * whole stack (generator, behaviors, predictors, engine, timing
 * model). If any of these change, something in the pipeline changed
 * behavior — intentionally or not — and the repro goldens
 * (tests/golden/repro_quick/) plus any published REPRO.md must be
 * regenerated.
 */

#include <gtest/gtest.h>

#include "sim/driver.hh"
#include "support.hh"

namespace pcbp
{
namespace
{

TEST(Golden, AccuracyEngineHybridOnMmMpeg)
{
    const Workload &w = workloadByName("mm.mpeg");
    EngineConfig cfg;
    cfg.measureBranches = 20000;
    cfg.warmupBranches = 2000;
    const EngineStats st = runAccuracy(
        w,
        hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8),
        cfg);
    EXPECT_EQ(st.finalMispredicts, 1561u);
    EXPECT_EQ(st.committedUops, 370209u);
    EXPECT_EQ(st.criticOverrides, 644u);
    EXPECT_EQ(st.critiques.get(CritiqueClass::CorrectAgree), 6017u);
}

TEST(Golden, AccuracyEngineProphetAloneOnFpSwim)
{
    const Workload &w = workloadByName("fp.swim");
    EngineConfig cfg;
    cfg.measureBranches = 10000;
    cfg.warmupBranches = 1000;
    const EngineStats st = runAccuracy(
        w, prophetAlone(ProphetKind::GSkew, Budget::B16KB), cfg);
    EXPECT_EQ(st.finalMispredicts, 640u);
    EXPECT_EQ(st.committedUops, 273827u);
    EXPECT_EQ(st.btbMisses, 61u);
}

TEST(Golden, TageProphetAloneOnIntCrafty)
{
    const Workload &w = workloadByName("int.crafty");
    EngineConfig cfg;
    cfg.measureBranches = 20000;
    cfg.warmupBranches = 2000;
    const EngineStats st = runAccuracy(
        w, prophetAlone(ProphetKind::Tage, Budget::B8KB), cfg);
    EXPECT_EQ(st.finalMispredicts, 2130u);
    EXPECT_EQ(st.committedUops, 277394u);
    EXPECT_EQ(st.prophetMispredicts, 1713u);
    EXPECT_EQ(st.btbMisses, 628u);
}

TEST(Golden, TageAsProphetInHybridOnServTpcc)
{
    const Workload &w = workloadByName("serv.tpcc");
    EngineConfig cfg;
    cfg.measureBranches = 20000;
    cfg.warmupBranches = 2000;
    const EngineStats st = runAccuracy(
        w,
        hybridSpec(ProphetKind::Tage, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8),
        cfg);
    EXPECT_EQ(st.finalMispredicts, 2816u);
    EXPECT_EQ(st.committedUops, 274397u);
    EXPECT_EQ(st.criticOverrides, 1003u);
    EXPECT_EQ(st.critiques.get(CritiqueClass::CorrectAgree), 2107u);
}

TEST(Golden, Tage16KBHybridOnIntCrafty)
{
    // 5 banks, histories up to 112 bits: the folds cross into the
    // history register's second word.
    const Workload &w = workloadByName("int.crafty");
    EngineConfig cfg;
    cfg.measureBranches = 20000;
    cfg.warmupBranches = 2000;
    const EngineStats st = runAccuracy(
        w,
        hybridSpec(ProphetKind::Tage, Budget::B16KB,
                   CriticKind::TaggedGshare, Budget::B16KB, 8),
        cfg);
    EXPECT_EQ(st.finalMispredicts, 2265u);
    EXPECT_EQ(st.prophetMispredicts, 1750u);
    EXPECT_EQ(st.criticOverrides, 1431u);
    EXPECT_EQ(st.critiques.get(CritiqueClass::CorrectAgree), 2802u);
}

TEST(Golden, H2PReportOnIntCraftyUnderTage)
{
    const Workload &w = workloadByName("int.crafty");
    EngineConfig cfg;
    cfg.measureBranches = 20000;
    cfg.warmupBranches = 2000;
    H2PConfig hcfg;
    hcfg.topN = 8;
    const H2PReport r = runH2P(
        w, prophetAlone(ProphetKind::Tage, Budget::B8KB), cfg, hcfg);
    expectMatchesGolden(r.render(), "h2p_int_crafty_tage.txt");
}

TEST(Golden, H2PReportOnServTpccUnderHybrid)
{
    const Workload &w = workloadByName("serv.tpcc");
    EngineConfig cfg;
    cfg.measureBranches = 20000;
    cfg.warmupBranches = 2000;
    H2PConfig hcfg;
    hcfg.topN = 8;
    const H2PReport r = runH2P(
        w,
        hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8),
        cfg, hcfg);
    expectMatchesGolden(r.render(), "h2p_serv_tpcc_hybrid.txt");
}

TEST(Golden, TimingModelHybridOnWebJbb)
{
    const Workload &w = workloadByName("web.jbb");
    TimingConfig cfg;
    cfg.measureBranches = 8000;
    cfg.warmupBranches = 800;
    Program p = buildProgram(w);
    auto h = hybridSpec(ProphetKind::GSkew, Budget::B8KB,
                        CriticKind::TaggedGshare, Budget::B8KB, 4)
                 .build();
    const TimingStats st = TimingSim(p, *h, cfg).run();
    EXPECT_EQ(st.cycles, 103110u);
    EXPECT_EQ(st.committedUops, 96568u);
    EXPECT_EQ(st.finalMispredicts, 2102u);
}

TEST(Golden, TimingModelTage32KBHybridOnServTpcc)
{
    // 6 banks; the longest history is exactly 128 bits, so its folds
    // read both history words whole.
    const Workload &w = workloadByName("serv.tpcc");
    TimingConfig cfg;
    cfg.measureBranches = 8000;
    cfg.warmupBranches = 800;
    Program p = buildProgram(w);
    auto h = hybridSpec(ProphetKind::Tage, Budget::B32KB,
                        CriticKind::TaggedGshare, Budget::B32KB, 8)
                 .build();
    const TimingStats st = TimingSim(p, *h, cfg).run();
    EXPECT_EQ(st.cycles, 64082u);
    EXPECT_EQ(st.finalMispredicts, 1135u);
    EXPECT_EQ(st.criticOverrides, 604u);
    EXPECT_EQ(st.committedUops, 102762u);
}

} // namespace
} // namespace pcbp
