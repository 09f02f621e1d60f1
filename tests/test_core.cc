/**
 * @file
 * Unit tests for the prophet/critic core: BOR semantics, the tag
 * filter of §4, the two critic designs, critique classification, and
 * the hybrid's checkpoint/repair event protocol.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/bor.hh"
#include "core/critic.hh"
#include "core/critique.hh"
#include "core/filtered_perceptron.hh"
#include "core/presets.hh"
#include "core/prophet_critic.hh"
#include "core/tag_filter.hh"
#include "core/tagged_gshare.hh"
#include "predictors/static_pred.hh"
#include "sim/driver.hh"

namespace pcbp
{
namespace
{

// -------------------------------------------------------------------- BOR

TEST(Bor, CritiqueViewAppendsFutureBitsYoungestLast)
{
    HistoryRegister before;
    before.shiftIn(true); // history bit
    const HistoryRegister view =
        buildCritiqueBor(before, {false, true, true});
    // Youngest = last future bit.
    EXPECT_TRUE(view.bit(0));
    EXPECT_TRUE(view.bit(1));
    EXPECT_FALSE(view.bit(2)); // the branch's own prediction
    EXPECT_TRUE(view.bit(3));  // original history
}

TEST(Bor, EmptyFutureBitsIsIdentity)
{
    HistoryRegister before;
    before.shiftIn(true);
    before.shiftIn(false);
    EXPECT_EQ(buildCritiqueBor(before, {}), before);
}

// -------------------------------------------------------------- TagFilter

HistoryRegister
borOf(std::uint64_t bits, unsigned n)
{
    HistoryRegister h;
    for (unsigned i = n; i-- > 0;)
        h.shiftIn((bits >> i) & 1);
    return h;
}

TEST(TagFilter, MissThenAllocateThenHit)
{
    TagFilter f(64, 4, 10, 18);
    const HistoryRegister bor = borOf(0x2a5a5, 18);
    EXPECT_FALSE(f.probe(f.keyOf(0x4000, bor)).hit);
    f.allocate(f.keyOf(0x4000, bor));
    EXPECT_TRUE(f.probe(f.keyOf(0x4000, bor)).hit);
}

TEST(TagFilter, DistinguishesBorValues)
{
    TagFilter f(64, 4, 10, 18);
    f.allocate(f.keyOf(0x4000, borOf(0x00001, 18)));
    EXPECT_FALSE(f.probe(f.keyOf(0x4000, borOf(0x00002, 18))).hit)
        << "a different BOR value is a different context";
}

TEST(TagFilter, DistinguishesAddresses)
{
    TagFilter f(64, 4, 10, 18);
    const HistoryRegister bor = borOf(0x15555, 18);
    f.allocate(f.keyOf(0x4000, bor));
    EXPECT_FALSE(f.probe(f.keyOf(0x8770, bor)).hit);
}

TEST(TagFilter, LruEvictsOldest)
{
    // 1 set x 2 ways: the third allocation evicts the LRU entry.
    TagFilter f(1, 2, 10, 18);
    const auto bor_a = borOf(0x1, 18);
    const auto bor_b = borOf(0x2, 18);
    const auto bor_c = borOf(0x4, 18);
    f.allocate(f.keyOf(0x1000, bor_a));
    f.allocate(f.keyOf(0x2000, bor_b));
    // Touch A so B becomes LRU.
    f.touch(f.probe(f.keyOf(0x1000, bor_a)).entry);
    f.allocate(f.keyOf(0x3000, bor_c));
    EXPECT_TRUE(f.probe(f.keyOf(0x1000, bor_a)).hit);
    EXPECT_FALSE(f.probe(f.keyOf(0x2000, bor_b)).hit) << "B was LRU";
    EXPECT_TRUE(f.probe(f.keyOf(0x3000, bor_c)).hit);
}

TEST(TagFilter, SizeBitsCountsTagsValidLru)
{
    TagFilter f(64, 4, 10, 18);
    // 256 entries x (1 valid + 10 tag + 2 lru-rank)
    EXPECT_EQ(f.sizeBits(), 256u * 13);
}

TEST(TagFilter, ResetClears)
{
    TagFilter f(64, 4, 10, 18);
    const auto bor = borOf(0x3, 18);
    f.allocate(f.keyOf(0x1000, bor));
    f.reset();
    EXPECT_FALSE(f.probe(f.keyOf(0x1000, bor)).hit);
}

// ----------------------------------------------------------- TaggedGshare

TEST(TaggedGshare, MissMeansImplicitAgree)
{
    TaggedGshare t(64, 6, 10, 18);
    EXPECT_FALSE(t.critique(0x1000, borOf(0x7, 18)).provided);
}

TEST(TaggedGshare, AllocatesOnlyOnMispredict)
{
    TaggedGshare t(64, 6, 10, 18);
    const auto bor = borOf(0x13, 18);
    t.train(0x1000, bor, true, /*mispredicted=*/false);
    EXPECT_FALSE(t.critique(0x1000, bor).provided)
        << "correctly predicted misses must not allocate";
    t.train(0x1000, bor, true, /*mispredicted=*/true);
    const auto c = t.critique(0x1000, bor);
    EXPECT_TRUE(c.provided);
    EXPECT_TRUE(c.taken) << "counter initialized toward the outcome";
}

TEST(TaggedGshare, CounterRetrainsOnHits)
{
    TaggedGshare t(64, 6, 10, 18);
    const auto bor = borOf(0x13, 18);
    t.train(0x1000, bor, false, true); // allocate toward not-taken
    EXPECT_FALSE(t.critique(0x1000, bor).taken);
    t.train(0x1000, bor, true, false); // hit: retrain toward taken
    t.train(0x1000, bor, true, false);
    EXPECT_TRUE(t.critique(0x1000, bor).taken);
}

TEST(TaggedGshare, LearnsContextMapping)
{
    // Context bits determine the outcome: after training, the critic
    // should decode it (the mechanism behind chain fixing).
    TaggedGshare t(1024, 6, 10, 18);
    Rng rng(3);
    int correct = 0, measured = 0;
    for (int i = 0; i < 6000; ++i) {
        const std::uint64_t ctx = rng.nextBelow(16);
        const auto bor = borOf(ctx, 18);
        const bool outcome = (ctx & 1) != ((ctx >> 1) & 1);
        const auto c = t.critique(0x5000, bor);
        if (i > 2000 && c.provided) {
            ++measured;
            correct += c.taken == outcome;
        }
        // Treat "prophet" as always-not-taken: mispredict == outcome.
        t.train(0x5000, bor, outcome, outcome);
    }
    ASSERT_GT(measured, 500);
    EXPECT_GT(double(correct) / measured, 0.9);
}

TEST(TaggedGshare, Table3Geometry)
{
    auto c = makeCritic(CriticKind::TaggedGshare, Budget::B8KB);
    EXPECT_EQ(c->borBits(), 18u);
    // 1024 sets x 6 ways x (2 ctr + 1 valid + 10 tag + 3 lru) bits.
    EXPECT_NEAR(double(c->sizeBytes()), 1024 * 6 * 16 / 8.0, 16.0);
}

// ----------------------------------------------------- FilteredPerceptron

TEST(FilteredPerceptron, FilterGatesThePerceptron)
{
    FilteredPerceptron f(64, 17, 64, 3, 10, 18);
    const auto bor = borOf(0x55, 18);
    EXPECT_FALSE(f.critique(0x1000, bor).provided);
    f.train(0x1000, bor, true, true); // allocate
    EXPECT_TRUE(f.critique(0x1000, bor).provided);
}

TEST(FilteredPerceptron, LearnsFutureBitCopy)
{
    // Outcome equals BOR bit 2 — a single perceptron weight.
    FilteredPerceptron f(64, 17, 256, 3, 10, 18);
    Rng rng(9);
    int correct = 0, measured = 0;
    for (int i = 0; i < 8000; ++i) {
        const auto bor = borOf(rng.nextBelow(64), 18);
        const bool outcome = bor.bit(2);
        const auto c = f.critique(0x2000, bor);
        if (i > 4000 && c.provided) {
            ++measured;
            correct += c.taken == outcome;
        }
        f.train(0x2000, bor, outcome, !c.provided || c.taken != outcome);
    }
    ASSERT_GT(measured, 200);
    EXPECT_GT(double(correct) / measured, 0.85);
}

TEST(FilteredPerceptron, BorBitsIsMaxOfParts)
{
    FilteredPerceptron f(64, 24, 64, 3, 10, 18);
    EXPECT_EQ(f.borBits(), 24u);
    FilteredPerceptron g(64, 13, 64, 3, 10, 18);
    EXPECT_EQ(g.borBits(), 18u);
}

// -------------------------------------------------------- UnfilteredCritic

TEST(UnfilteredCritic, AlwaysProvides)
{
    UnfilteredCritic u(std::make_unique<StaticPredictor>(true));
    EXPECT_TRUE(u.critique(0x1, borOf(0, 18)).provided);
    EXPECT_TRUE(u.critique(0x1, borOf(0, 18)).taken);
}

// --------------------------------------------------------------- Critique

TEST(Critique, Classification)
{
    EXPECT_EQ(classifyCritique(true, true, true),
              CritiqueClass::CorrectAgree);
    EXPECT_EQ(classifyCritique(true, true, false),
              CritiqueClass::CorrectDisagree);
    EXPECT_EQ(classifyCritique(false, true, true),
              CritiqueClass::IncorrectAgree);
    EXPECT_EQ(classifyCritique(false, true, false),
              CritiqueClass::IncorrectDisagree);
    EXPECT_EQ(classifyCritique(true, false, false),
              CritiqueClass::CorrectNone);
    EXPECT_EQ(classifyCritique(false, false, true),
              CritiqueClass::IncorrectNone);
}

TEST(Critique, CountsTotals)
{
    CritiqueCounts c;
    c.record(CritiqueClass::CorrectAgree);
    c.record(CritiqueClass::CorrectAgree);
    c.record(CritiqueClass::IncorrectDisagree);
    c.record(CritiqueClass::CorrectNone);
    EXPECT_EQ(c.explicitTotal(), 3u);
    EXPECT_EQ(c.noneTotal(), 1u);
    EXPECT_EQ(c.total(), 4u);
}

// ------------------------------------------------------------------ Hybrid

TEST(Hybrid, SpeculativeInsertionAndCheckpoint)
{
    HybridConfig cfg;
    cfg.numFutureBits = 4;
    ProphetCriticHybrid h(std::make_unique<StaticPredictor>(true),
                          makeCritic(CriticKind::TaggedGshare,
                                     Budget::B2KB),
                          cfg);
    BranchContext ctx;
    const HistoryRegister before = h.history();
    const bool pred = h.predictBranch(0x1000, ctx);
    EXPECT_TRUE(pred);
    EXPECT_EQ(ctx.histBefore, before);
    EXPECT_TRUE(h.history().bit(0)) << "prediction speculatively inserted";
}

TEST(Hybrid, CheckpointWithoutPredictInvalidatesKey)
{
    // The BTB-miss path reuses a queue slot whose key a previous
    // predict filled; the checkpoint must not hand that key to the
    // commit of a branch no predict hashed.
    ProphetCriticHybrid h(makeProphet(ProphetKind::Gshare, Budget::B2KB),
                          nullptr, HybridConfig{});
    BranchContext ctx;
    h.predictBranch(0x1000, ctx);
    ASSERT_TRUE(ctx.key.valid);
    const HistoryRegister live = h.history();
    h.checkpoint(ctx);
    EXPECT_EQ(ctx.histBefore, live);
    EXPECT_FALSE(ctx.key.valid);
    EXPECT_EQ(h.history(), live) << "a checkpoint inserts no history";
}

TEST(Hybrid, RecoverRestoresAndInsertsOutcome)
{
    HybridConfig cfg;
    cfg.numFutureBits = 2;
    ProphetCriticHybrid h(std::make_unique<StaticPredictor>(true),
                          nullptr, cfg);
    BranchContext ctx;
    h.predictBranch(0x1000, ctx); // inserts T
    BranchContext ctx2;
    h.predictBranch(0x1010, ctx2); // inserts T
    h.recoverMispredict(ctx, false);
    EXPECT_FALSE(h.history().bit(0)) << "outcome N inserted after restore";
    EXPECT_EQ(h.history().window(1, 10), ctx.histBefore.low(10))
        << "older history restored";
}

TEST(Hybrid, OverrideInsertsFinalPrediction)
{
    HybridConfig cfg;
    cfg.numFutureBits = 2;
    ProphetCriticHybrid h(std::make_unique<StaticPredictor>(true),
                          makeCritic(CriticKind::TaggedGshare,
                                     Budget::B2KB),
                          cfg);
    BranchContext ctx;
    h.predictBranch(0x1000, ctx);
    h.overrideRedirect(ctx, false);
    EXPECT_FALSE(h.history().bit(0));
}

TEST(Hybrid, NoCriticMeansProphetPrediction)
{
    HybridConfig cfg;
    cfg.numFutureBits = 0;
    ProphetCriticHybrid h(std::make_unique<StaticPredictor>(false),
                          nullptr, cfg);
    BranchContext ctx;
    const bool pred = h.predictBranch(0x1000, ctx);
    CritiqueDecision d;
    h.critiqueBranch(0x1000, ctx, pred, {}, d);
    EXPECT_FALSE(d.provided);
    EXPECT_FALSE(d.overrode);
    EXPECT_EQ(d.finalPrediction, pred);
}

TEST(Hybrid, ZeroFutureBitsUsesHistoryOnlyBor)
{
    HybridConfig cfg;
    cfg.numFutureBits = 0;
    ProphetCriticHybrid h(std::make_unique<StaticPredictor>(true),
                          makeCritic(CriticKind::TaggedGshare,
                                     Budget::B2KB),
                          cfg);
    BranchContext ctx;
    const bool pred = h.predictBranch(0x1000, ctx);
    CritiqueDecision d;
    h.critiqueBranch(0x1000, ctx, pred, {}, d);
    EXPECT_EQ(d.borAtCritique, ctx.histBefore)
        << "conventional-hybrid mode: no future bits in the view";
}

TEST(Hybrid, CritiqueUsesSuppliedFutureBits)
{
    HybridConfig cfg;
    cfg.numFutureBits = 3;
    ProphetCriticHybrid h(std::make_unique<StaticPredictor>(true),
                          makeCritic(CriticKind::TaggedGshare,
                                     Budget::B2KB),
                          cfg);
    BranchContext ctx;
    const bool pred = h.predictBranch(0x1000, ctx);
    CritiqueDecision d;
    h.critiqueBranch(0x1000, ctx, pred, {pred, false, true}, d);
    EXPECT_TRUE(d.borAtCritique.bit(0));  // youngest = last future bit
    EXPECT_FALSE(d.borAtCritique.bit(1));
    EXPECT_EQ(d.borAtCritique.bit(2), pred);
}

TEST(Hybrid, CriticLearnsToOverrideAtCommit)
{
    // Static prophet always says taken; the branch is always
    // not-taken in a fixed context. After training, the critic must
    // override.
    HybridConfig cfg;
    cfg.numFutureBits = 1;
    ProphetCriticHybrid h(std::make_unique<StaticPredictor>(true),
                          makeCritic(CriticKind::TaggedGshare,
                                     Budget::B2KB),
                          cfg);
    bool overrode = false;
    for (int i = 0; i < 10; ++i) {
        BranchContext ctx;
        const bool pred = h.predictBranch(0x1000, ctx);
        CritiqueDecision d;
        h.critiqueBranch(0x1000, ctx, pred, {pred}, d);
        if (d.overrode) {
            overrode = true;
            h.overrideRedirect(ctx, d.finalPrediction);
        }
        const bool outcome = false;
        h.commitBranch(0x1000, ctx, d, outcome);
        if (d.finalPrediction != outcome)
            h.recoverMispredict(ctx, outcome);
    }
    EXPECT_TRUE(overrode) << "critic never learned to disagree";
}

TEST(Hybrid, NameAndSize)
{
    auto h = hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                        CriticKind::TaggedGshare, Budget::B8KB, 8)
                 .build();
    EXPECT_NE(h->name().find("perceptron"), std::string::npos);
    EXPECT_NE(h->name().find("t.gshare"), std::string::npos);
    EXPECT_NE(h->name().find("8fb"), std::string::npos);
    EXPECT_GT(h->sizeBytes(), 12u * 1024);
    EXPECT_LT(h->sizeBytes(), 24u * 1024);
}

TEST(Presets, CriticKindsRoundTrip)
{
    for (CriticKind k : allCriticKinds())
        EXPECT_EQ(parseCriticKind(criticKindName(k)), k);
}

TEST(Presets, AllCriticsConstructAtAllBudgets)
{
    for (CriticKind k : allCriticKinds()) {
        for (Budget b : {Budget::B2KB, Budget::B8KB, Budget::B32KB}) {
            auto c = makeCritic(k, b);
            ASSERT_NE(c, nullptr);
            EXPECT_GT(c->borBits(), 0u);
        }
    }
}

} // namespace
} // namespace pcbp
