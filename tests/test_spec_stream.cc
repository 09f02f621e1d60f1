/**
 * @file
 * Tests for the streaming simulation core: CommittedStream backends,
 * bit-for-bit equivalence between the streaming path and the
 * historical precomputed-vector path, O(pipeline) window bounds, and
 * pcbp_trace-style record -> replay round trips.
 */

#include <cstdio>
#include <cstring>

#include <gtest/gtest.h>

#include "sim/committed_stream.hh"
#include "sim/driver.hh"
#include "support.hh"
#include "workload/trace.hh"
#include "workload/trace2.hh"

namespace pcbp
{
namespace
{

// ---------------------------------------------------------- backends

TEST(CommittedStream, WalkStreamMatchesEagerWalk)
{
    const Workload &w = workloadByName("mm.mpeg");
    Program p1 = buildProgram(w);
    const auto eager = walkProgram(p1, 5000);

    Program p2 = buildProgram(w);
    ProgramWalkStream stream(p2, 5000);
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const CommittedBranch *cb = stream.at(i);
        ASSERT_NE(cb, nullptr);
        EXPECT_EQ(cb->block, eager[i].block);
        EXPECT_EQ(cb->pc, eager[i].pc);
        EXPECT_EQ(cb->taken, eager[i].taken);
        EXPECT_EQ(cb->numUops, eager[i].numUops);
        stream.release(i); // keep only a 1-record tail window
    }
    EXPECT_EQ(stream.at(5000), nullptr) << "stream ends at its limit";
    EXPECT_LE(stream.windowPeak(), 2u);
}

TEST(CommittedStream, ReleasedRecordsCannotBeReRead)
{
    const Workload &w = workloadByName("mm.mpeg");
    Program p = buildProgram(w);
    ProgramWalkStream stream(p, 100);
    ASSERT_NE(stream.at(50), nullptr);
    stream.release(40);
    EXPECT_NE(stream.at(40), nullptr);
    EXPECT_DEATH(stream.at(10), "released");
}

TEST(CommittedStream, PrecomputedStreamReplaysVector)
{
    const Workload &w = workloadByName("fp.swim");
    Program p = buildProgram(w);
    auto trace = walkProgram(p, 1000);
    PrecomputedStream stream(trace);
    EXPECT_EQ(stream.length(), 1000u);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const CommittedBranch *cb = stream.at(i);
        ASSERT_NE(cb, nullptr);
        EXPECT_EQ(cb->block, trace[i].block);
        EXPECT_EQ(cb->taken, trace[i].taken);
    }
    EXPECT_EQ(stream.at(1000), nullptr);
}

TEST(CommittedStream, Trace2WriterStreamsWithoutVector)
{
    const Workload &w = workloadByName("fp.swim");
    Program p = buildProgram(w);
    const std::string path = tmpPath("writer.pcbptrc2");
    {
        ProgramWalkStream walk(p, 2000);
        Trace2Writer writer(path);
        for (std::uint64_t i = 0; i < 2000; ++i) {
            writer.append(*walk.at(i));
            walk.release(i + 1);
        }
        writer.finish();
        EXPECT_EQ(writer.written(), 2000u);
        EXPECT_LE(walk.windowPeak(), 2u);
    }
    Program p2 = buildProgram(w);
    const auto mem = walkProgram(p2, 2000);
    std::size_t i = 0;
    scanTraceFile(path, [&](const CommittedBranch &r) {
        ASSERT_LT(i, mem.size());
        EXPECT_EQ(r.block, mem[i].block) << i;
        EXPECT_EQ(r.pc, mem[i].pc) << i;
        EXPECT_EQ(r.taken, mem[i].taken) << i;
        EXPECT_EQ(r.numUops, mem[i].numUops) << i;
        ++i;
    });
    EXPECT_EQ(i, mem.size());
    std::remove(path.c_str());
}

// ------------------------------------------------------- equivalence

/**
 * The contract of the refactor: the streaming walk produces stats
 * bit-for-bit identical to running over the precomputed trace vector
 * (the seed implementation's behavior, preserved by
 * PrecomputedStream). Quick-suite spread of configs: hybrid,
 * prophet-alone, and the oracle-future-bit ablation.
 */
TEST(StreamEquivalence, EngineHybridQuickSuite)
{
    for (const char *name : {"mm.mpeg", "int.crafty", "serv.tpcc"}) {
        const Workload &w = workloadByName(name);
        const auto spec =
            hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                       CriticKind::TaggedGshare, Budget::B8KB, 8);
        EngineConfig cfg;
        cfg.measureBranches = 20000;
        cfg.warmupBranches = 2000;

        Program p1 = buildProgram(w);
        auto h1 = spec.build();
        const EngineStats streamed = Engine(p1, *h1, cfg).run();

        Program p2 = buildProgram(w);
        auto h2 = spec.build();
        PrecomputedStream pre(walkProgram(p2, 22000));
        Program p3 = buildProgram(w);
        auto h3 = spec.build();
        const EngineStats vectored = Engine(p3, *h3, cfg).run(pre);

        SCOPED_TRACE(name);
        expectSameStats(streamed, vectored);
    }
}

TEST(StreamEquivalence, EngineProphetAloneAndOracle)
{
    const Workload &w = workloadByName("fp.swim");
    EngineConfig cfg;
    cfg.measureBranches = 15000;
    cfg.warmupBranches = 1500;

    for (const bool oracle : {false, true}) {
        HybridSpec spec =
            oracle ? hybridSpec(ProphetKind::Gshare, Budget::B8KB,
                                CriticKind::TaggedGshare, Budget::B8KB, 8)
                   : prophetAlone(ProphetKind::GSkew, Budget::B16KB);
        cfg.oracleFutureBits = oracle;

        Program p1 = buildProgram(w);
        auto h1 = spec.build();
        const EngineStats streamed = Engine(p1, *h1, cfg).run();

        Program p2 = buildProgram(w);
        auto h2 = spec.build();
        PrecomputedStream pre(walkProgram(p2, 16500));
        Program p3 = buildProgram(w);
        auto h3 = spec.build();
        const EngineStats vectored = Engine(p3, *h3, cfg).run(pre);

        SCOPED_TRACE(oracle ? "oracle" : "prophet-alone");
        expectSameStats(streamed, vectored);
    }
}

TEST(StreamEquivalence, TimingQuickSuite)
{
    for (const char *name : {"web.jbb", "ws.cad"}) {
        const Workload &w = workloadByName(name);
        const auto spec =
            hybridSpec(ProphetKind::GSkew, Budget::B8KB,
                       CriticKind::TaggedGshare, Budget::B8KB, 4);
        TimingConfig cfg;
        cfg.measureBranches = 8000;
        cfg.warmupBranches = 800;

        Program p1 = buildProgram(w);
        auto h1 = spec.build();
        const TimingStats streamed = TimingSim(p1, *h1, cfg).run();

        Program p2 = buildProgram(w);
        PrecomputedStream pre(walkProgram(p2, 8800));
        Program p3 = buildProgram(w);
        auto h3 = spec.build();
        const TimingStats vectored = TimingSim(p3, *h3, cfg).run(pre);

        SCOPED_TRACE(name);
        expectSameStats(streamed, vectored);
    }
}

// ----------------------------------------------------- memory bounds

TEST(StreamEquivalence, EngineWindowBoundedByPipeline)
{
    const Workload &w = workloadByName("mm.mpeg");
    const auto spec =
        hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8);
    EngineConfig cfg;
    cfg.measureBranches = 50000;
    cfg.warmupBranches = 5000;

    Program p = buildProgram(w);
    auto h = spec.build();
    Engine engine(p, *h, cfg);
    ProgramWalkStream stream(p, 55000);
    const EngineStats st = engine.run(stream);
    EXPECT_EQ(st.committedBranches, 50000u);
    // Resident stream window must be bounded by pipeline depth plus
    // future-bit lookahead, not by run length.
    EXPECT_LE(stream.windowPeak(),
              std::size_t(cfg.pipelineDepth) + 8 + 1);
}

TEST(StreamEquivalence, TimingWindowBoundedByPipeline)
{
    const Workload &w = workloadByName("web.jbb");
    const auto spec =
        hybridSpec(ProphetKind::GSkew, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 4);
    TimingConfig cfg;
    cfg.measureBranches = 20000;
    cfg.warmupBranches = 2000;

    Program p = buildProgram(w);
    auto h = spec.build();
    TimingSim sim(p, *h, cfg);
    ProgramWalkStream stream(p, 22000);
    const TimingStats st = sim.run(stream);
    EXPECT_EQ(st.committedBranches, 20000u);
    // Bounded by the in-flight structures: instruction window blocks
    // plus the FTQ, regardless of run length.
    EXPECT_LE(stream.windowPeak(),
              cfg.windowSize / 4 + cfg.ftqSize + 1);
}

// ----------------------------------------------------- trace replay

TEST(TraceReplay, RecordedTraceDrivesEngine)
{
    const Workload &w = workloadByName("int.crafty");
    Program p = buildProgram(w);
    const std::string path = tmpPath("replay.pcbptrc2");
    {
        ProgramWalkStream walk(p, 30000);
        Trace2Writer writer(path);
        for (std::uint64_t i = 0; i < 30000; ++i) {
            writer.append(*walk.at(i));
            walk.release(i + 1);
        }
    }

    const Workload &tw = workloadByName("trace:" + path);
    EXPECT_EQ(tw.tracePath, path);
    EXPECT_EQ(tw.warmupBranches + tw.simBranches, 30000u);
    EXPECT_EQ(&tw, &workloadByName("trace:" + path))
        << "trace workloads are cached by name";

    EngineConfig cfg;
    cfg.warmupBranches = 3000;
    cfg.measureBranches = 27000;
    const auto spec =
        hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8);
    const EngineStats st = runAccuracy(tw, spec, cfg);
    EXPECT_EQ(st.committedBranches, 27000u);
    EXPECT_GT(st.committedUops, st.committedBranches);
    EXPECT_GT(st.finalMispredicts, 0u);
    EXPECT_LT(st.mispRate(), 0.5);
    std::remove(path.c_str());
}

TEST(TraceReplay, ReconstructedProgramCoversTraceBlocks)
{
    const Workload &w = workloadByName("mm.mpeg");
    Program p = buildProgram(w);
    const auto trace = walkProgram(p, 20000);
    const std::string path = tmpPath("reconstruct.pcbptrc2");
    {
        Trace2Writer writer(path);
        for (const CommittedBranch &r : trace)
            writer.append(r);
    }

    Program r = reconstructProgramFromTrace(path, "reconstructed");
    // Committed-path consistency: every consecutive record pair is a
    // CFG edge of the reconstruction.
    for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
        ASSERT_EQ(r.successor(trace[i].block, trace[i].taken),
                  trace[i + 1].block);
    }
    // Block metadata survives.
    for (const auto &rec : trace) {
        EXPECT_EQ(r.block(rec.block).branchPc, rec.pc);
        EXPECT_EQ(r.block(rec.block).numUops, rec.numUops);
    }
    std::remove(path.c_str());
}

TEST(TraceReplay, TimingRunsOnTraceWorkload)
{
    const Workload &w = workloadByName("fp.swim");
    Program p = buildProgram(w);
    const std::string path = tmpPath("replay_timing.pcbptrc2");
    {
        Trace2Writer writer(path);
        for (const CommittedBranch &r : walkProgram(p, 15000))
            writer.append(r);
    }

    const Workload &tw = workloadByName("trace:" + path);
    const auto spec = prophetAlone(ProphetKind::Gshare, Budget::B8KB);
    const TimingStats st = runTiming(tw, spec);
    EXPECT_GT(st.committedBranches, 0u);
    EXPECT_GT(st.upc(), 0.5);
    EXPECT_LE(st.upc(), 6.0);
    std::remove(path.c_str());
}

} // namespace
} // namespace pcbp
