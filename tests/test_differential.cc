/**
 * @file
 * Differential tests over the whole predictor registry.
 *
 * PR 2 pinned Engine/TimingSim stream-backend equivalence for a few
 * hand-picked configurations; these tests generalize that contract
 * to every factory-registered prophet (including TAGE) and every
 * critic kind, on randomized CFG workloads across seeds, using the
 * commit-path tap (CommitSink) to compare entire commit-order event
 * streams rather than aggregate counters:
 *
 * - per simulator, the streamed CFG walk and the precomputed-vector
 *   backend must produce bit-identical commit-order predictions and
 *   outcomes;
 * - the committed (architectural) path must be *predictor-invariant*
 *   and *simulator-invariant*: any predictor, either simulator, same
 *   (block, pc, outcome, uops) sequence as the plain program walk.
 *
 * Deliberately NOT asserted: commit-order predictions equal between
 * Engine and TimingSim. They are not — commit-time training reaches
 * the tables at different fetch-to-commit lags in the two pipelines,
 * so individual predictions legitimately differ; only the
 * architectural path is shared.
 */

#include <gtest/gtest.h>

#include "sim/driver.hh"
#include "support.hh"
#include "workload/generator.hh"
#include "workload/trace.hh"

namespace pcbp
{
namespace
{

/** A small randomized CFG workload; deterministic per seed. */
WorkloadRecipe
randomRecipe(std::uint64_t seed)
{
    WorkloadRecipe r;
    r.name = "diff-" + std::to_string(seed);
    r.seed = seed;
    r.targetBlocks = 120 + unsigned(seed % 7) * 30;
    r.numChains = 4;
    r.numPhaseChains = 2;
    return r;
}

/** Engine run over the streamed walk, events recorded. */
std::vector<CommitEvent>
engineStreamedEvents(const WorkloadRecipe &recipe, const HybridSpec &spec,
                     const EngineConfig &cfg)
{
    Program p = generateProgram(recipe);
    auto h = spec.build();
    RecordingSink sink;
    EngineConfig c = cfg;
    c.commitSink = &sink;
    Engine(p, *h, c).run();
    return std::move(sink.events);
}

/** Engine run over the precomputed-vector backend, events recorded. */
std::vector<CommitEvent>
enginePrecomputedEvents(const WorkloadRecipe &recipe,
                        const HybridSpec &spec, const EngineConfig &cfg)
{
    Program pw = generateProgram(recipe);
    PrecomputedStream pre(
        walkProgram(pw, cfg.warmupBranches + cfg.measureBranches));
    Program p = generateProgram(recipe);
    auto h = spec.build();
    RecordingSink sink;
    EngineConfig c = cfg;
    c.commitSink = &sink;
    Engine(p, *h, c).run(pre);
    return std::move(sink.events);
}

EngineConfig
smallEngine()
{
    EngineConfig cfg;
    cfg.measureBranches = 6000;
    cfg.warmupBranches = 600;
    return cfg;
}

// --------------------------------------------- backend equivalence

/**
 * The registry-wide generalization of the PR 2 equivalence tests:
 * for every factory-registered prophet, the streamed and precomputed
 * committed-stream backends must yield bit-identical commit-order
 * prediction/outcome streams.
 */
TEST(Differential, EngineBackendsAgreeForEveryProphet)
{
    for (const ProphetKind kind : allProphetKinds()) {
        for (const std::uint64_t seed : {11u, 29u}) {
            const WorkloadRecipe recipe = randomRecipe(seed);
            const HybridSpec spec = prophetAlone(kind, Budget::B2KB);
            const EngineConfig cfg = smallEngine();

            const auto streamed =
                engineStreamedEvents(recipe, spec, cfg);
            const auto precomputed =
                enginePrecomputedEvents(recipe, spec, cfg);

            SCOPED_TRACE(prophetKindName(kind) + " seed " +
                         std::to_string(seed));
            ASSERT_EQ(streamed.size(),
                      cfg.warmupBranches + cfg.measureBranches);
            expectSameEvents(streamed, precomputed);
        }
    }
}

/** Same contract for every critic kind riding on two prophets. */
TEST(Differential, EngineBackendsAgreeForEveryCritic)
{
    for (const CriticKind critic : allCriticKinds()) {
        for (const ProphetKind prophet :
             {ProphetKind::Gshare, ProphetKind::Tage}) {
            const WorkloadRecipe recipe = randomRecipe(43);
            const HybridSpec spec = hybridSpec(
                prophet, Budget::B2KB, critic, Budget::B2KB, 8);
            const EngineConfig cfg = smallEngine();

            const auto streamed =
                engineStreamedEvents(recipe, spec, cfg);
            const auto precomputed =
                enginePrecomputedEvents(recipe, spec, cfg);

            SCOPED_TRACE(criticKindName(critic) + " on " +
                         prophetKindName(prophet));
            expectSameEvents(streamed, precomputed);
        }
    }
}

/** The timing model honors the same backend contract, registry-wide. */
TEST(Differential, TimingBackendsAgreeForEveryProphet)
{
    for (const ProphetKind kind : allProphetKinds()) {
        const WorkloadRecipe recipe = randomRecipe(17);
        const HybridSpec spec = prophetAlone(kind, Budget::B2KB);
        TimingConfig cfg;
        cfg.measureBranches = 2500;
        cfg.warmupBranches = 250;

        RecordingSink streamed_sink;
        {
            Program p = generateProgram(recipe);
            auto h = spec.build();
            TimingConfig c = cfg;
            c.commitSink = &streamed_sink;
            TimingSim(p, *h, c).run();
        }
        RecordingSink pre_sink;
        {
            Program pw = generateProgram(recipe);
            PrecomputedStream pre(walkProgram(
                pw, cfg.warmupBranches + cfg.measureBranches));
            Program p = generateProgram(recipe);
            auto h = spec.build();
            TimingConfig c = cfg;
            c.commitSink = &pre_sink;
            TimingSim(p, *h, c).run(pre);
        }

        SCOPED_TRACE(prophetKindName(kind));
        expectSameEvents(streamed_sink.events, pre_sink.events);
    }
}

// --------------------------------------- architectural invariance

/**
 * The committed path is independent of the predictor under test and
 * of the simulator driving it: for every registered prophet, both
 * simulators must commit exactly the plain program walk.
 */
TEST(Differential, ArchitecturalPathIsPredictorAndSimulatorInvariant)
{
    const WorkloadRecipe recipe = randomRecipe(7);
    constexpr std::uint64_t branches = 4000;

    Program pw = generateProgram(recipe);
    const auto walk = walkProgram(pw, branches);

    EngineConfig ecfg;
    ecfg.measureBranches = branches - 400;
    ecfg.warmupBranches = 400;
    TimingConfig tcfg;
    tcfg.measureBranches = branches - 400;
    tcfg.warmupBranches = 400;

    for (const ProphetKind kind : allProphetKinds()) {
        SCOPED_TRACE(prophetKindName(kind));
        const HybridSpec spec = prophetAlone(kind, Budget::B2KB);

        RecordingSink engine_sink;
        {
            Program p = generateProgram(recipe);
            auto h = spec.build();
            EngineConfig c = ecfg;
            c.commitSink = &engine_sink;
            Engine(p, *h, c).run();
        }
        RecordingSink timing_sink;
        {
            Program p = generateProgram(recipe);
            auto h = spec.build();
            TimingConfig c = tcfg;
            c.commitSink = &timing_sink;
            TimingSim(p, *h, c).run();
        }

        ASSERT_EQ(engine_sink.events.size(), branches);
        ASSERT_EQ(timing_sink.events.size(), branches);
        for (std::uint64_t i = 0; i < branches; ++i) {
            for (const auto *sink : {&engine_sink, &timing_sink}) {
                const CommitEvent &e = sink->events[i];
                ASSERT_EQ(e.index, i);
                ASSERT_EQ(e.block, walk[i].block) << "at commit " << i;
                ASSERT_EQ(e.pc, walk[i].pc) << "at commit " << i;
                ASSERT_EQ(e.outcome, walk[i].taken)
                    << "at commit " << i;
                ASSERT_EQ(e.numUops, walk[i].numUops)
                    << "at commit " << i;
            }
        }
    }
}

/**
 * Determinism across repeated runs: same recipe, same predictor,
 * same events — the property the sweep store's content keys rely on.
 */
TEST(Differential, RepeatedRunsAreBitIdentical)
{
    for (const ProphetKind kind :
         {ProphetKind::Tage, ProphetKind::Perceptron}) {
        const WorkloadRecipe recipe = randomRecipe(5);
        const HybridSpec spec =
            hybridSpec(kind, Budget::B4KB, CriticKind::TaggedGshare,
                       Budget::B4KB, 8);
        const EngineConfig cfg = smallEngine();
        const auto a = engineStreamedEvents(recipe, spec, cfg);
        const auto b = engineStreamedEvents(recipe, spec, cfg);
        SCOPED_TRACE(prophetKindName(kind));
        expectSameEvents(a, b);
    }
}

// ----------------------------------- compressed-trace replay backend

/**
 * PCBPTRC2 replay must be invisible to every predictor in the
 * registry: a recorded walk replayed through CompressedTraceStream
 * (lazy block decode from the mapped file, decoded-block cache) and
 * through the reference PrecomputedStream over the recorded walk
 * itself — each on a program reconstructed from the same file —
 * yields bit-identical commit-order event streams and stats.
 * Full StatRegistry JSON is deliberately NOT compared — the
 * stream.backend.* sim tag and the host-only trace.store.* counters
 * legitimately differ between backends; the contract is on
 * everything the *predictors* can see.
 */
std::pair<std::vector<CommitEvent>, EngineStats>
engineTraceEvents(const RecordedTrace &t, bool compressed,
                  const HybridSpec &spec, const EngineConfig &cfg)
{
    Program p = reconstructProgramFromTrace(t.path, "diff-trc2");
    auto h = spec.build();
    RecordingSink sink;
    EngineConfig c = cfg;
    c.commitSink = &sink;
    const auto stream = t.stream(compressed);
    const EngineStats st = Engine(p, *h, c).run(*stream);
    return {std::move(sink.events), st};
}

TEST(Trace2Differential, EveryProphetMatchesInMemoryReplay)
{
    const RecordedTrace t(randomRecipe(171), 7000, 512);
    const EngineConfig cfg = smallEngine();
    for (const ProphetKind kind : allProphetKinds()) {
        SCOPED_TRACE("prophet " + prophetKindName(kind));
        const HybridSpec spec = prophetAlone(kind, Budget::B2KB);
        auto [e1, s1] = engineTraceEvents(t, false, spec, cfg);
        auto [e2, s2] = engineTraceEvents(t, true, spec, cfg);
        expectSameEvents(e1, e2);
        expectSameStats(s1, s2);
    }
}

TEST(Trace2Differential, EveryCriticMatchesInMemoryReplay)
{
    const RecordedTrace t(randomRecipe(173), 7000, 512);
    const EngineConfig cfg = smallEngine();
    for (const CriticKind critic : allCriticKinds()) {
        SCOPED_TRACE("critic " + criticKindName(critic));
        const HybridSpec spec =
            hybridSpec(ProphetKind::Perceptron, Budget::B2KB, critic,
                       Budget::B2KB, 8);
        auto [e1, s1] = engineTraceEvents(t, false, spec, cfg);
        auto [e2, s2] = engineTraceEvents(t, true, spec, cfg);
        expectSameEvents(e1, e2);
        expectSameStats(s1, s2);
    }
}

TEST(Trace2Differential, TimingMatchesInMemoryReplay)
{
    const RecordedTrace t(randomRecipe(179), 5000, 512);
    const HybridSpec spec =
        hybridSpec(ProphetKind::Tage, Budget::B2KB,
                   CriticKind::TaggedGshare, Budget::B2KB, 8);
    TimingConfig cfg;
    cfg.warmupBranches = 400;
    cfg.measureBranches = 4000;

    const auto timingRun = [&](bool compressed) {
        Program p = reconstructProgramFromTrace(t.path, "diff-trc2-t");
        auto h = spec.build();
        const auto stream = t.stream(compressed);
        return TimingSim(p, *h, cfg).run(*stream);
    };
    expectSameStats(timingRun(false), timingRun(true));
}

} // namespace
} // namespace pcbp
