/**
 * @file
 * Unit tests for the spec-core speculation queue (the timing model's
 * FTQ) and the cycle-level timing model: bounds, bandwidth limits,
 * flush behavior, and agreement with the accuracy engine on what
 * commits.
 */

#include <gtest/gtest.h>

#include "predictors/static_pred.hh"
#include "sim/driver.hh"
#include "sim/spec_core.hh"
#include "sim/timing.hh"

namespace pcbp
{
namespace
{

/** Two-block always-taken loop for queue-mechanics tests. */
Program
loopProgram()
{
    Program p("loop");
    for (int i = 0; i < 2; ++i) {
        BasicBlock b;
        b.branchPc = 0x1000 + i * 16;
        b.numUops = 8;
        b.takenTarget = static_cast<BlockId>(1 - i);
        b.fallthroughTarget = static_cast<BlockId>(1 - i);
        p.addBlock(b, BranchBehavior::biased(1.0, i + 1));
    }
    p.validate();
    return p;
}

// --------------------------------------------- spec-core queue (FTQ)

TEST(SpecCoreQueue, FetchFillsFifoInSpeculationOrder)
{
    Program p = loopProgram();
    auto h = prophetAlone(ProphetKind::AlwaysTaken, Budget::B2KB).build();
    SpecCoreConfig cc;
    cc.useBtb = false;
    SpecCore<FtqPayload> core(p, *h, cc);
    core.beginRun(nullptr, 0, p.entry());

    for (int i = 0; i < 4; ++i) {
        auto &e = core.fetchNext();
        e.payload.uopsLeft = e.numUops;
    }
    EXPECT_EQ(core.queueSize(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(core.at(i).traceIdx, i);
        EXPECT_EQ(core.at(i).block, BlockId(i % 2));
        EXPECT_EQ(core.at(i).payload.uopsLeft, 8u);
    }
    const auto &head = core.front();
    core.dropFront();
    EXPECT_EQ(head.traceIdx, 0u);
    EXPECT_EQ(core.front().traceIdx, 1u);
    EXPECT_EQ(core.queueSize(), 3u);
}

TEST(SpecCoreQueue, OldestUncriticized)
{
    Program p = loopProgram();
    auto h = prophetAlone(ProphetKind::AlwaysTaken, Budget::B2KB).build();
    SpecCoreConfig cc;
    cc.useBtb = false;
    SpecCore<FtqPayload> core(p, *h, cc);
    core.beginRun(nullptr, 0, p.entry());

    for (int i = 0; i < 4; ++i)
        core.fetchNext();
    core.at(0).critiqued = true;
    core.at(1).critiqued = true;
    auto idx = core.oldestUncriticized();
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(*idx, 2u);

    core.at(2).critiqued = true;
    core.at(3).critiqued = true;
    EXPECT_FALSE(core.oldestUncriticized().has_value());
}

TEST(SpecCoreQueue, OverrideFlushesYoungerAndRedirects)
{
    // An always-taken program with an always-not-taken prophet and a
    // tagged-gshare critic: once the critic learns, its disagree
    // critique must flush every younger queued prediction.
    Program p = loopProgram();
    auto h = hybridSpec(ProphetKind::AlwaysNotTaken, Budget::B2KB,
                        CriticKind::TaggedGshare, Budget::B2KB, 2)
                 .build();
    SpecCoreConfig cc;
    cc.useBtb = false;
    SpecCore<FtqPayload> core(p, *h, cc);
    core.beginRun(nullptr, 0, p.entry());

    // Train the critic: fetch, critique, commit a few rounds.
    for (int round = 0; round < 64; ++round) {
        while (core.queueSize() < 6)
            core.fetchNext();
        if (!core.front().critiqued)
            core.critique(0);
        const auto &r = core.front();
        core.dropFront();
        core.commitTrain(r, true);
        if (r.finalPred != true) {
            core.clearQueue();
            core.recoverAndRedirect(r, true);
        }
    }

    while (core.queueSize() < 6)
        core.fetchNext();
    ASSERT_FALSE(core.front().critiqued);
    const CritiqueOutcome out = core.critique(0);
    ASSERT_TRUE(out.overrode) << "trained critic must disagree";
    EXPECT_EQ(out.squashed, 5u);
    EXPECT_EQ(core.queueSize(), 1u);
    EXPECT_TRUE(core.front().critiqued);
    EXPECT_TRUE(core.front().finalPred);
    EXPECT_EQ(core.specIndex(), core.front().traceIdx + 1);
}

TEST(SpecCoreQueue, ClearQueueEmpties)
{
    Program p = loopProgram();
    auto h = prophetAlone(ProphetKind::AlwaysTaken, Budget::B2KB).build();
    SpecCoreConfig cc;
    cc.useBtb = false;
    SpecCore<FtqPayload> core(p, *h, cc);
    core.beginRun(nullptr, 0, p.entry());
    core.fetchNext();
    core.fetchNext();
    EXPECT_EQ(core.queueSize(), 2u);
    core.clearQueue();
    EXPECT_TRUE(core.queueEmpty());
}

TEST(SpecCoreQueue, WindowSurvivesSlabGrowthAndTruncates)
{
    // Consumed records stay in the ring as the window: 100 of them
    // plus a queued tail outgrow the initial 64-slot slab, and the
    // relocation must keep every window record in place.
    Program p = loopProgram();
    auto h = prophetAlone(ProphetKind::AlwaysTaken, Budget::B2KB).build();
    SpecCoreConfig cc;
    cc.useBtb = false;
    SpecCore<FtqPayload> core(p, *h, cc);
    core.beginRun(nullptr, 0, p.entry());
    for (int i = 0; i < 104; ++i) {
        core.fetchNext();
        if (i < 100)
            core.consumeFront();
    }
    ASSERT_EQ(core.windowDepth(), 100u);
    ASSERT_EQ(core.queueSize(), 4u);
    for (std::size_t i = 0; i < 100; ++i)
        ASSERT_EQ(core.windowAt(i).traceIdx, i);
    EXPECT_EQ(core.front().traceIdx, 100u);

    core.releaseOldest();
    EXPECT_EQ(core.windowDepth(), 99u);
    EXPECT_EQ(core.windowAt(0).traceIdx, 1u);

    // A mispredict at window index 9 squashes the rest of the window
    // and the whole queue in one step.
    core.truncateAfter(9);
    EXPECT_EQ(core.windowDepth(), 10u);
    EXPECT_TRUE(core.queueEmpty());
    EXPECT_EQ(core.windowAt(9).traceIdx, 10u);
}

// ----------------------------------------------------------------- Timing

TimingConfig
smallTiming(std::uint64_t branches = 20000)
{
    TimingConfig cfg;
    cfg.measureBranches = branches;
    cfg.warmupBranches = branches / 10;
    return cfg;
}

TEST(Timing, UpcBoundedByMachineWidth)
{
    const Workload &w = workloadByName("fp.swim");
    Program p = buildProgram(w);
    auto h = prophetAlone(ProphetKind::Perceptron, Budget::B16KB).build();
    TimingSim sim(p, *h, smallTiming());
    const TimingStats st = sim.run();
    EXPECT_GT(st.upc(), 0.5);
    EXPECT_LE(st.upc(), 6.0) << "cannot beat the 6-uop fetch width";
}

TEST(Timing, CommitsConfiguredWork)
{
    const Workload &w = workloadByName("mm.mpeg");
    Program p = buildProgram(w);
    auto h = prophetAlone(ProphetKind::Gshare, Budget::B8KB).build();
    const auto cfg = smallTiming(10000);
    TimingSim sim(p, *h, cfg);
    const TimingStats st = sim.run();
    EXPECT_EQ(st.committedBranches, cfg.measureBranches);
    EXPECT_GT(st.committedUops, st.committedBranches * 4);
}

TEST(Timing, StreamEndingInWarmupMeasuresNothing)
{
    // 2000 records against a 5000-branch warmup: the measured window
    // never opens, so no cycle may count as measured either.
    const Workload &w = workloadByName("mm.mpeg");
    Program p = buildProgram(w);
    auto h = hybridSpec(ProphetKind::Gshare, Budget::B8KB,
                        CriticKind::TaggedGshare, Budget::B8KB, 8)
                 .build();
    TimingConfig cfg;
    cfg.warmupBranches = 5000;
    cfg.measureBranches = 1000;
    ProgramWalkStream stream(p, 2000);
    const TimingStats st = TimingSim(p, *h, cfg).run(stream);
    EXPECT_EQ(st.committedBranches, 0u);
    EXPECT_EQ(st.committedUops, 0u);
    EXPECT_EQ(st.cycles, 0u);
    EXPECT_EQ(st.upc(), 0.0);
}

TEST(Timing, BetterPredictionHigherUpc)
{
    const Workload &w = workloadByName("int.crafty");
    Program p1 = buildProgram(w);
    auto good =
        prophetAlone(ProphetKind::Perceptron, Budget::B32KB).build();
    const double upc_good =
        TimingSim(p1, *good, smallTiming()).run().upc();

    Program p2 = buildProgram(w);
    auto bad =
        prophetAlone(ProphetKind::AlwaysNotTaken, Budget::B2KB).build();
    const double upc_bad =
        TimingSim(p2, *bad, smallTiming()).run().upc();

    EXPECT_GT(upc_good, upc_bad * 1.2)
        << "mispredict flushes must cost cycles";
}

TEST(Timing, FetchedAtLeastCommitted)
{
    const Workload &w = workloadByName("web.jbb");
    Program p = buildProgram(w);
    auto h = prophetAlone(ProphetKind::Gshare, Budget::B8KB).build();
    TimingSim sim(p, *h, smallTiming());
    const TimingStats st = sim.run();
    EXPECT_GE(st.fetchedUops + 64, st.committedUops)
        << "every committed uop was fetched (within measure-window "
           "boundary fuzz)";
    EXPECT_GE(st.fetchedUops, st.wrongPathFetchedUops);
}

TEST(Timing, MispredictsCauseWrongPathFetch)
{
    const Workload &w = workloadByName("serv.tpcc");
    Program p = buildProgram(w);
    auto h = prophetAlone(ProphetKind::Gshare, Budget::B2KB).build();
    TimingSim sim(p, *h, smallTiming());
    const TimingStats st = sim.run();
    EXPECT_GT(st.finalMispredicts, 0u);
    EXPECT_GT(st.wrongPathFetchedUops, 0u);
}

TEST(Timing, CriticOverridesHappenInFtq)
{
    const Workload &w = workloadByName("int.crafty");
    Program p = buildProgram(w);
    auto h = hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                        CriticKind::TaggedGshare, Budget::B8KB, 8)
                 .build();
    TimingSim sim(p, *h, smallTiming());
    const TimingStats st = sim.run();
    EXPECT_GT(st.criticOverrides, 0u);
    EXPECT_GT(st.ftqEntriesFlushedByCritic, 0u);
}

TEST(Timing, PartialCritiquesRareAtEightBits)
{
    // §5's claim: <0.1% of the time the cache needs a prediction
    // whose critique lacks its future bits (8 fb, prophet 2x faster
    // than the critic). Allow some slack for our smaller runs.
    const Workload &w = workloadByName("mm.mpeg");
    Program p = buildProgram(w);
    auto h = hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                        CriticKind::TaggedGshare, Budget::B8KB, 8)
                 .build();
    TimingSim sim(p, *h, smallTiming());
    const TimingStats st = sim.run();
    EXPECT_LT(double(st.partialCritiques) / double(st.committedBranches),
              0.02);
}

TEST(Timing, DeterministicAcrossRuns)
{
    const Workload &w = workloadByName("ws.cad");
    const auto spec =
        hybridSpec(ProphetKind::GSkew, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 4);
    Program p1 = buildProgram(w);
    auto h1 = spec.build();
    const TimingStats a = TimingSim(p1, *h1, smallTiming()).run();
    Program p2 = buildProgram(w);
    auto h2 = spec.build();
    const TimingStats b = TimingSim(p2, *h2, smallTiming()).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedUops, b.committedUops);
    EXPECT_EQ(a.finalMispredicts, b.finalMispredicts);
}

TEST(Timing, FtqDeeperThanFutureBitsRequired)
{
    const Workload &w = workloadByName("mm.mpeg");
    Program p = buildProgram(w);
    auto h = hybridSpec(ProphetKind::Gshare, Budget::B2KB,
                        CriticKind::TaggedGshare, Budget::B2KB, 12)
                 .build();
    TimingConfig cfg = smallTiming();
    cfg.ftqSize = 8;
    EXPECT_DEATH(TimingSim(p, *h, cfg),
                 "FTQ must be deeper than the future-bit count");
}

TEST(Timing, AgreesWithEngineOnCommittedWork)
{
    // The two simulators share the committed path: same workload,
    // same branch count => same committed uops.
    const Workload &w = workloadByName("fp.ammp");
    const auto spec = prophetAlone(ProphetKind::Gshare, Budget::B8KB);

    EngineConfig ecfg;
    ecfg.measureBranches = 15000;
    ecfg.warmupBranches = 1500;
    Program p1 = buildProgram(w);
    auto h1 = spec.build();
    const EngineStats es = Engine(p1, *h1, ecfg).run();

    TimingConfig tcfg;
    tcfg.measureBranches = 15000;
    tcfg.warmupBranches = 1500;
    Program p2 = buildProgram(w);
    auto h2 = spec.build();
    const TimingStats ts = TimingSim(p2, *h2, tcfg).run();

    EXPECT_EQ(es.committedBranches, ts.committedBranches);
    EXPECT_NEAR(double(es.committedUops), double(ts.committedUops),
                double(es.committedUops) * 0.01);
}

} // namespace
} // namespace pcbp
