/**
 * @file
 * Property-based tests: parameterized sweeps over seeds, predictor
 * kinds, budgets, and future-bit counts, checking invariants against
 * reference models rather than specific values.
 */

#include <gtest/gtest.h>

#include <deque>
#include <tuple>

#include "common/history_register.hh"
#include "common/rng.hh"
#include "core/tag_filter.hh"
#include "sim/driver.hh"

namespace pcbp
{
namespace
{

// ---------------------------------------- HistoryRegister vs reference

class HistoryModelTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HistoryModelTest, MatchesDequeReference)
{
    Rng rng(GetParam());
    HistoryRegister h;
    std::deque<bool> model(HistoryRegister::capacity, false);

    for (int step = 0; step < 3000; ++step) {
        const unsigned op = static_cast<unsigned>(rng.nextBelow(4));
        if (op <= 1) {
            const bool bit = rng.nextBool(0.5);
            h.shiftIn(bit);
            model.push_front(bit);
            model.pop_back();
        } else if (op == 2) {
            const unsigned i = static_cast<unsigned>(
                rng.nextBelow(HistoryRegister::capacity));
            ASSERT_EQ(h.bit(i), model[i]) << "step " << step;
        } else {
            const unsigned n =
                1 + static_cast<unsigned>(rng.nextBelow(64));
            std::uint64_t expect = 0;
            for (unsigned i = 0; i < n; ++i)
                expect |= std::uint64_t(model[i]) << i;
            ASSERT_EQ(h.low(n), expect) << "step " << step;
        }
    }

    // Window reads across the whole register.
    for (unsigned first : {0u, 7u, 63u, 64u, 65u, 90u}) {
        const unsigned n = std::min(32u, HistoryRegister::capacity - first);
        std::uint64_t expect = 0;
        for (unsigned i = 0; i < n; ++i)
            expect |= std::uint64_t(model[first + i]) << i;
        EXPECT_EQ(h.window(first, n), expect) << "first=" << first;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistoryModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------------- TagFilter properties

class TagFilterPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(TagFilterPropertyTest, AllocateThenProbeHitsUntilEvicted)
{
    const auto [sets_log2, ways] = GetParam();
    TagFilter f(std::size_t(1) << sets_log2, ways, 10, 18);
    Rng rng(99);

    for (int step = 0; step < 2000; ++step) {
        HistoryRegister bor;
        for (int i = 0; i < 18; ++i)
            bor.shiftIn(rng.nextBool(0.5));
        const Addr pc = 0x1000 + 16 * rng.nextBelow(256);

        f.allocate(f.keyOf(pc, bor));
        ASSERT_TRUE(f.probe(f.keyOf(pc, bor)).hit)
            << "an entry must be visible immediately after allocation";
    }
}

TEST_P(TagFilterPropertyTest, TouchProtectsMru)
{
    const auto [sets_log2, ways] = GetParam();
    if (ways < 2)
        GTEST_SKIP();
    TagFilter f(std::size_t(1) << sets_log2, ways, 10, 18);
    Rng rng(7);
    // Fill one context repeatedly; the most recently used entry
    // must survive a subsequent allocation into the same set.
    HistoryRegister mru_bor;
    mru_bor.shiftIn(true);
    const Addr mru_pc = 0x2000;
    f.allocate(f.keyOf(mru_pc, mru_bor));
    for (int i = 0; i < ways * 4; ++i) {
        f.touch(f.probe(f.keyOf(mru_pc, mru_bor)).entry);
        HistoryRegister other;
        for (int k = 0; k < 18; ++k)
            other.shiftIn(rng.nextBool(0.5));
        f.allocate(f.keyOf(0x3000 + 16 * i, other));
        ASSERT_TRUE(f.probe(f.keyOf(mru_pc, mru_bor)).hit)
            << "MRU entry evicted at step " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TagFilterPropertyTest,
    ::testing::Values(std::make_tuple(0, 4), std::make_tuple(2, 2),
                      std::make_tuple(4, 6), std::make_tuple(6, 3)));

// ------------------------------------------- engine seed/property sweeps

class EngineSeedTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EngineSeedTest, RandomProgramsKeepInvariants)
{
    WorkloadRecipe r;
    r.name = "prop";
    r.seed = GetParam();
    r.targetBlocks = 250;
    r.numChains = 3;
    r.numPhaseChains = 3;
    Program p = generateProgram(r);

    auto hybrid = hybridSpec(ProphetKind::Perceptron, Budget::B4KB,
                             CriticKind::TaggedGshare, Budget::B4KB, 8)
                      .build();
    EngineConfig cfg;
    cfg.measureBranches = 20000;
    cfg.warmupBranches = 2000;
    Engine engine(p, *hybrid, cfg);
    const EngineStats st = engine.run(); // asserts internal invariants

    EXPECT_EQ(st.committedBranches, 20000u);
    EXPECT_LE(st.finalMispredicts, st.committedBranches);
    EXPECT_LE(st.btbMisses, st.committedBranches);
    EXPECT_EQ(st.critiques.total() + st.btbMisses, st.committedBranches);
    EXPECT_GE(st.mispRate(), 0.0);
    EXPECT_LE(st.mispRate(), 1.0);
    // Bookkeeping identity: the final prediction differs from the
    // prophet's only via explicit disagree critiques, so
    //   final = prophet - incorrect_disagree + correct_disagree
    //           + (BTB-miss branches that were taken).
    const auto fixed =
        st.critiques.get(CritiqueClass::IncorrectDisagree);
    const auto broken =
        st.critiques.get(CritiqueClass::CorrectDisagree);
    EXPECT_GE(st.finalMispredicts + fixed,
              st.prophetMispredicts)
        << "only incorrect_disagree critiques can remove mispredicts";
    EXPECT_LE(st.finalMispredicts,
              st.prophetMispredicts - fixed + broken + st.btbMisses)
        << "only correct_disagree and BTB misses can add mispredicts";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSeedTest,
                         ::testing::Values(101, 202, 303, 404, 505,
                                           606, 707, 808));

// ------------------------------------- all prophets x budgets liveness

class ProphetSweepTest
    : public ::testing::TestWithParam<std::tuple<ProphetKind, Budget>>
{
};

TEST_P(ProphetSweepTest, RunsAndPredictsBetterThanCoinFlip)
{
    const auto [kind, budget] = GetParam();
    const Workload &w = workloadByName("mm.mpeg");
    Program p = buildProgram(w);
    auto hybrid = prophetAlone(kind, budget).build();
    EngineConfig cfg;
    cfg.measureBranches = 15000;
    cfg.warmupBranches = 3000;
    const EngineStats st = Engine(p, *hybrid, cfg).run();
    EXPECT_LT(st.mispRate(), 0.35)
        << prophetKindName(kind) << " at " << budgetName(budget);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ProphetSweepTest,
    ::testing::Combine(::testing::Values(ProphetKind::Gshare,
                                         ProphetKind::GSkew,
                                         ProphetKind::Perceptron,
                                         ProphetKind::Bimodal,
                                         ProphetKind::Tage),
                       ::testing::Values(Budget::B2KB, Budget::B8KB,
                                         Budget::B32KB)));

// ---------------------------------------- future bits x critics sweeps

class CritiqueSweepTest
    : public ::testing::TestWithParam<std::tuple<CriticKind, unsigned>>
{
};

TEST_P(CritiqueSweepTest, HybridRunsAndClassifiesEveryCommit)
{
    const auto [critic, fb] = GetParam();
    const Workload &w = workloadByName("int.crafty");
    Program p = buildProgram(w);
    auto hybrid =
        hybridSpec(ProphetKind::GSkew, Budget::B4KB, critic,
                   Budget::B4KB, fb)
            .build();
    EngineConfig cfg;
    cfg.measureBranches = 15000;
    cfg.warmupBranches = 1500;
    const EngineStats st = Engine(p, *hybrid, cfg).run();
    EXPECT_EQ(st.critiques.total() + st.btbMisses, st.committedBranches);
    if (critic == CriticKind::UnfilteredPerceptron) {
        EXPECT_EQ(st.critiques.noneTotal(), 0u)
            << "unfiltered critics critique everything";
    } else {
        EXPECT_GT(st.critiques.noneTotal(), 0u)
            << "filters must reject some branches";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CritiqueSweepTest,
    ::testing::Combine(::testing::Values(CriticKind::TaggedGshare,
                                         CriticKind::FilteredPerceptron,
                                         CriticKind::UnfilteredPerceptron),
                       ::testing::Values(0u, 1u, 4u, 8u, 12u)));

// ------------------------------------------ determinism across threads

class DeterminismTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(DeterminismTest, RunSetMatchesSequentialRuns)
{
    const Workload &w = workloadByName(GetParam());
    const auto spec =
        hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8);
    EngineConfig cfg;
    cfg.measureBranches = 10000;
    cfg.warmupBranches = 1000;
    const EngineStats direct = runAccuracy(w, spec, cfg);
    const EngineStats again = runAccuracy(w, spec, cfg);
    EXPECT_EQ(direct.finalMispredicts, again.finalMispredicts);
    EXPECT_EQ(direct.criticOverrides, again.criticOverrides);
    EXPECT_EQ(direct.committedUops, again.committedUops);
}

INSTANTIATE_TEST_SUITE_P(Workloads, DeterminismTest,
                         ::testing::Values("unzip", "tpcc", "fp.ammp",
                                           "web.jbb"));

} // namespace
} // namespace pcbp
