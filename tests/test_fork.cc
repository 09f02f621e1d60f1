/**
 * @file
 * Fork/clone equivalence tests (DESIGN.md §11).
 *
 * The fork-based sweep executor rests on one claim: cloning a
 * mid-warmup simulation — predictor, spec core, committed stream with
 * its walk state, all over one shared program — and resuming the
 * clone produces *bit-identical* results to an uninterrupted run. These tests pin that claim
 * registry-wide and at full event granularity:
 *
 * - for every factory prophet and every critic kind, on both
 *   simulators, a run forked at an arbitrary in-warmup branch must
 *   reproduce the uninterrupted run's commit-order event stream
 *   (canonical prefix + fork suffix, event by event) and its final
 *   stats, field by field;
 * - the equivalence must survive checkpoint-slab growth (pipeline
 *   deeper than the slab's initial capacity) and recovery-heavy
 *   configurations (weak prophet, frequent flushes around the fork
 *   point);
 * - the chain drivers (runAccuracyChain / runTimingChain) must equal
 *   per-cell driver runs (each a chain of one), and the sweep
 *   runner's stores must be byte-identical with forking on or off,
 *   at any job count.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "obs/probes.hh"
#include "obs/stat_registry.hh"
#include "sim/driver.hh"
#include "support.hh"
#include "sweep/runner.hh"
#include "workload/generator.hh"

namespace pcbp
{
namespace
{

/** A small randomized CFG workload; deterministic per seed. */
WorkloadRecipe
forkRecipe(std::uint64_t seed)
{
    WorkloadRecipe r;
    r.name = "fork-" + std::to_string(seed);
    r.seed = seed;
    r.targetBlocks = 140 + unsigned(seed % 5) * 25;
    r.numChains = 4;
    r.numPhaseChains = 2;
    return r;
}

/** Uninterrupted engine run: full event stream + stats. */
std::pair<std::vector<CommitEvent>, EngineStats>
engineStraight(const WorkloadRecipe &recipe, const HybridSpec &spec,
               EngineConfig cfg)
{
    Program p = generateProgram(recipe);
    auto h = spec.build();
    RecordingSink sink;
    cfg.commitSink = &sink;
    const EngineStats st = Engine(p, *h, cfg).run();
    return {std::move(sink.events), st};
}

/**
 * The same run, but paused at commit @p fork_at (inside warmup),
 * forked — predictor, stream and engine cloned over the one shared
 * program — and finished on the clone. Returns the canonical prefix concatenated
 * with the fork's suffix, plus the fork's stats.
 */
std::pair<std::vector<CommitEvent>, EngineStats>
engineForked(const WorkloadRecipe &recipe, const HybridSpec &spec,
             EngineConfig cfg, std::uint64_t fork_at)
{
    const std::uint64_t total =
        cfg.warmupBranches + cfg.measureBranches;

    Program p = generateProgram(recipe);
    auto h = spec.build();
    RecordingSink canon_sink;
    EngineConfig canon_cfg = cfg;
    canon_cfg.commitSink = &canon_sink;
    Engine canon(p, *h, canon_cfg);
    ProgramWalkStream stream(p, total);
    canon.beginRun(stream);
    canon.stepUntil(fork_at, stream);
    EXPECT_EQ(canon.committedSoFar(), fork_at);

    auto fork_hybrid = h->clone();
    RecordingSink fork_sink;
    EngineConfig fork_cfg = cfg;
    fork_cfg.commitSink = &fork_sink;
    ProgramWalkStream fork_stream(stream, total);
    Engine fork(canon, *fork_hybrid, fork_cfg, fork_stream);
    const EngineStats st = fork.finishRun(fork_stream);

    std::vector<CommitEvent> events = std::move(canon_sink.events);
    events.insert(events.end(), fork_sink.events.begin(),
                  fork_sink.events.end());
    return {std::move(events), st};
}

/** Uninterrupted timing run: full event stream + stats. */
std::pair<std::vector<CommitEvent>, TimingStats>
timingStraight(const WorkloadRecipe &recipe, const HybridSpec &spec,
               TimingConfig cfg)
{
    Program p = generateProgram(recipe);
    auto h = spec.build();
    RecordingSink sink;
    cfg.commitSink = &sink;
    const TimingStats st = TimingSim(p, *h, cfg).run();
    return {std::move(sink.events), st};
}

/**
 * Timing analogue of engineForked. The pause lands on a cycle
 * boundary at or past @p fork_target (stepUntil can overshoot by up
 * to retireWidth-1 commits), so the target keeps that margin inside
 * warmup, exactly as the chain driver does.
 */
std::pair<std::vector<CommitEvent>, TimingStats>
timingForked(const WorkloadRecipe &recipe, const HybridSpec &spec,
             TimingConfig cfg, std::uint64_t fork_target)
{
    const std::uint64_t total =
        cfg.warmupBranches + cfg.measureBranches;

    Program p = generateProgram(recipe);
    auto h = spec.build();
    RecordingSink canon_sink;
    TimingConfig canon_cfg = cfg;
    canon_cfg.commitSink = &canon_sink;
    TimingSim canon(p, *h, canon_cfg);
    ProgramWalkStream stream(p, total);
    canon.beginRun(stream);
    canon.stepUntil(fork_target, stream);
    EXPECT_GE(canon.committedSoFar(), fork_target);
    EXPECT_LT(canon.committedSoFar(), cfg.warmupBranches);

    auto fork_hybrid = h->clone();
    RecordingSink fork_sink;
    TimingConfig fork_cfg = cfg;
    fork_cfg.commitSink = &fork_sink;
    ProgramWalkStream fork_stream(stream, total);
    TimingSim fork(canon, *fork_hybrid, fork_cfg, fork_stream);
    const TimingStats st = fork.finishRun(fork_stream);

    std::vector<CommitEvent> events = std::move(canon_sink.events);
    events.insert(events.end(), fork_sink.events.begin(),
                  fork_sink.events.end());
    return {std::move(events), st};
}

EngineConfig
smallEngine()
{
    EngineConfig cfg;
    cfg.measureBranches = 4000;
    cfg.warmupBranches = 600;
    return cfg;
}

TimingConfig
smallTiming()
{
    TimingConfig cfg;
    // Must clear the forkability floor (measure >= window + retire).
    cfg.measureBranches = 4000;
    cfg.warmupBranches = 600;
    return cfg;
}

// --------------------------------------------- registry-wide forks

/**
 * Every factory prophet, forked at arbitrary in-warmup points
 * (immediately after the first commit, mid-warmup, and at the last
 * possible snapshot): event streams and stats bit-identical to the
 * uninterrupted run.
 */
TEST(Fork, EngineMatchesUninterruptedForEveryProphet)
{
    for (const ProphetKind kind : allProphetKinds()) {
        const WorkloadRecipe recipe = forkRecipe(31);
        const HybridSpec spec = prophetAlone(kind, Budget::B2KB);
        const EngineConfig cfg = smallEngine();
        const auto [ref_events, ref_stats] =
            engineStraight(recipe, spec, cfg);

        for (const std::uint64_t fork_at : {1ull, 317ull, 599ull}) {
            SCOPED_TRACE(prophetKindName(kind) + " fork@" +
                         std::to_string(fork_at));
            const auto [events, stats] =
                engineForked(recipe, spec, cfg, fork_at);
            expectSameEvents(events, ref_events);
            expectSameStats(stats, ref_stats);
        }
    }
}

/** Every critic kind riding on two prophets, same contract. */
TEST(Fork, EngineMatchesUninterruptedForEveryCritic)
{
    for (const CriticKind critic : allCriticKinds()) {
        for (const ProphetKind prophet :
             {ProphetKind::Gshare, ProphetKind::Tage}) {
            const WorkloadRecipe recipe = forkRecipe(32);
            const HybridSpec spec = hybridSpec(
                prophet, Budget::B2KB, critic, Budget::B2KB, 8);
            const EngineConfig cfg = smallEngine();

            SCOPED_TRACE(criticKindName(critic) + " on " +
                         prophetKindName(prophet));
            const auto [ref_events, ref_stats] =
                engineStraight(recipe, spec, cfg);
            const auto [events, stats] =
                engineForked(recipe, spec, cfg, 211);
            expectSameEvents(events, ref_events);
            expectSameStats(stats, ref_stats);
        }
    }
}

/** The timing model honors the same contract, registry-wide. */
TEST(Fork, TimingMatchesUninterruptedForEveryProphet)
{
    for (const ProphetKind kind : allProphetKinds()) {
        const WorkloadRecipe recipe = forkRecipe(33);
        const HybridSpec spec = prophetAlone(kind, Budget::B2KB);
        const TimingConfig cfg = smallTiming();
        ASSERT_TRUE(timingForkable(cfg));
        const auto [ref_events, ref_stats] =
            timingStraight(recipe, spec, cfg);

        for (const std::uint64_t target : {37ull, 500ull}) {
            SCOPED_TRACE(prophetKindName(kind) + " target " +
                         std::to_string(target));
            const auto [events, stats] =
                timingForked(recipe, spec, cfg, target);
            expectSameEvents(events, ref_events);
            expectSameStats(stats, ref_stats);
        }
    }
}

/** Timing hybrid (critic overrides + FTQ flushes around the fork). */
TEST(Fork, TimingMatchesUninterruptedForHybrid)
{
    const WorkloadRecipe recipe = forkRecipe(34);
    const HybridSpec spec =
        hybridSpec(ProphetKind::Gshare, Budget::B2KB,
                   CriticKind::TaggedGshare, Budget::B2KB, 8);
    const TimingConfig cfg = smallTiming();
    const auto [ref_events, ref_stats] =
        timingStraight(recipe, spec, cfg);
    const auto [events, stats] = timingForked(recipe, spec, cfg, 433);
    expectSameEvents(events, ref_events);
    expectSameStats(stats, ref_stats);
}

// ----------------------------------------------------- stress cases

/**
 * Checkpoint-slab growth: a pipeline deeper than the spec core's
 * initial slab capacity forces mid-run reallocation; forking after
 * the growth must still be exact (absolute indices survive the
 * copy).
 */
TEST(Fork, SurvivesCheckpointSlabGrowth)
{
    const WorkloadRecipe recipe = forkRecipe(35);
    const HybridSpec spec =
        hybridSpec(ProphetKind::Perceptron, Budget::B2KB,
                   CriticKind::TaggedGshare, Budget::B2KB, 8);
    EngineConfig cfg = smallEngine();
    cfg.pipelineDepth = 96; // > the initial 64-entry slab
    const auto [ref_events, ref_stats] =
        engineStraight(recipe, spec, cfg);
    for (const std::uint64_t fork_at : {5ull, 480ull}) {
        SCOPED_TRACE("fork@" + std::to_string(fork_at));
        const auto [events, stats] =
            engineForked(recipe, spec, cfg, fork_at);
        expectSameEvents(events, ref_events);
        expectSameStats(stats, ref_stats);
    }
}

/**
 * The timing analogue: the TimingSim's instruction window lives in
 * the same ring, so a window deeper than the initial 64 slots grows
 * the slab mid-run. Retiring one uop per cycle backs the window up
 * to its 2048-uop bound: on this workload the slab doubles at commits
 * 433 and 1366, so targets 1 and 150 fork before any growth and 590
 * forks after the first one (its fork then grows the copied slab).
 */
TEST(Fork, TimingSurvivesWindowSlabGrowth)
{
    const WorkloadRecipe recipe = forkRecipe(36);
    const HybridSpec spec =
        hybridSpec(ProphetKind::Gshare, Budget::B2KB,
                   CriticKind::TaggedGshare, Budget::B2KB, 8);
    TimingConfig cfg = smallTiming();
    cfg.retireWidth = 1;
    ASSERT_TRUE(timingForkable(cfg));

    StatRegistry reg;
    TimingConfig counted = cfg;
    counted.statsOut = &reg;
    const auto [ref_events, ref_stats] =
        timingStraight(recipe, spec, counted);
#if PCBP_OBS
    ASSERT_GE(reg.simValue("core.slab_growths"), 2u)
        << "the window must outgrow the initial slab";
#else
    // Compiled out: no probe counts the growths, so no core.* key.
    EXPECT_EQ(reg.simJson().find("\"core."), std::string::npos);
#endif

    for (const std::uint64_t target : {1ull, 150ull, 590ull}) {
        SCOPED_TRACE("target " + std::to_string(target));
        const auto [events, stats] =
            timingForked(recipe, spec, cfg, target);
        expectSameEvents(events, ref_events);
        expectSameStats(stats, ref_stats);
    }
}

/**
 * Recovery-heavy forking: a tiny prophet on a phase-churning
 * workload flushes constantly, so snapshots routinely land with
 * in-flight wrong-path state; the clone must reproduce every
 * recovery.
 */
TEST(Fork, SurvivesRecoveryHeavyWorkload)
{
    WorkloadRecipe recipe = forkRecipe(36);
    recipe.numPhaseChains = 6; // churn: phases invalidate history
    const HybridSpec spec =
        hybridSpec(ProphetKind::Gshare, Budget::B2KB,
                   CriticKind::FilteredPerceptron, Budget::B2KB, 12);
    const EngineConfig cfg = smallEngine();
    const auto [ref_events, ref_stats] =
        engineStraight(recipe, spec, cfg);
    for (const std::uint64_t fork_at : {63ull, 599ull}) {
        SCOPED_TRACE("fork@" + std::to_string(fork_at));
        const auto [events, stats] =
            engineForked(recipe, spec, cfg, fork_at);
        expectSameEvents(events, ref_events);
        expectSameStats(stats, ref_stats);
    }
}

// -------------------------------------------------- chain drivers

/** runAccuracyChain == one runAccuracy per config, stats equal. */
TEST(Fork, AccuracyChainMatchesIndividualRuns)
{
    const Workload &w = workloadByName("int.crafty");
    const HybridSpec spec =
        hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8);

    std::vector<EngineConfig> configs;
    for (const std::uint64_t wb : {500ull, 1500ull, 3000ull}) {
        EngineConfig cfg;
        cfg.warmupBranches = wb;
        cfg.measureBranches = 2000;
        configs.push_back(cfg);
    }

    ChainObs obs;
    const std::vector<EngineStats> chained =
        runAccuracyChain(w, buildProgram(w), spec, configs, &obs);
    EXPECT_GT(obs.warmupBranchesSaved, 0u);

    ASSERT_EQ(chained.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        expectSameStats(chained[i], runAccuracy(w, spec, configs[i]));
    }
}

/** runTimingChain == one runTiming per config, stats equal. */
TEST(Fork, TimingChainMatchesIndividualRuns)
{
    const Workload &w = workloadByName("mm.mpeg");
    const HybridSpec spec =
        hybridSpec(ProphetKind::GSkew, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8);

    std::vector<TimingConfig> configs;
    for (const std::uint64_t wb : {800ull, 2400ull}) {
        TimingConfig cfg;
        cfg.warmupBranches = wb;
        cfg.measureBranches = 4000;
        ASSERT_TRUE(timingForkable(cfg));
        configs.push_back(cfg);
    }

    ChainObs obs;
    const std::vector<TimingStats> chained =
        runTimingChain(w, buildProgram(w), spec, configs, &obs);
    EXPECT_GT(obs.warmupBranchesSaved, 0u);

    ASSERT_EQ(chained.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        expectSameStats(chained[i], runTiming(w, spec, configs[i]));
    }
}

// ------------------------------------------------- runner parity

/**
 * The end-to-end contract the executor advertises: the persisted
 * store of a shared-warmup grid is byte-identical with forking on or
 * off, at any job count — accuracy and timing grids alike.
 */
TEST(Fork, SweepStoreBytesIdenticalForkVsReplay)
{
    for (const bool timing : {false, true}) {
        SweepSpec spec;
        spec.name = timing ? "fork-parity-t" : "fork-parity-a";
        spec.timing = timing;
        spec.axes.prophets = {ProphetKind::Gshare};
        spec.axes.critics = {std::nullopt, CriticKind::TaggedGshare};
        spec.workloads = {"mm.mpeg", "web.jbb"};
        spec.branches = timing ? 4000 : 3000;
        spec.warmups = {400, 900, 1400};

        auto runWith = [&](bool fork, unsigned jobs) {
            ResultStore store;
            SweepRunOptions opt;
            opt.fork = fork;
            opt.jobs = jobs;
            runSweep(spec, store, opt);
            return ResultStore::exportJson(store.all());
        };

        SCOPED_TRACE(timing ? "timing" : "accuracy");
        const std::string replay = runWith(false, 1);
        EXPECT_EQ(runWith(true, 1), replay);
        EXPECT_EQ(runWith(true, 4), replay);
    }
}

// -------------------------------------- compressed-trace workloads

/**
 * The chain driver's fork seam on a PCBPTRC2 workload: a shared
 * warmup ladder over CompressedTraceStream forks (shared mmap
 * reader, copied decode cursor) must equal per-cell linear replays.
 */
TEST(Fork, AccuracyChainMatchesIndividualRunsOnCompressedTrace)
{
    const RecordedTrace t(forkRecipe(61), 6000, 256);
    const HybridSpec spec =
        hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8);

    std::vector<EngineConfig> configs;
    for (const std::uint64_t wb : {500ull, 1500ull, 3000ull}) {
        EngineConfig cfg;
        cfg.warmupBranches = wb;
        cfg.measureBranches = 2000;
        configs.push_back(cfg);
    }

    const Workload &w = workloadByName("trace:" + t.path);
    ChainObs obs;
    const std::vector<EngineStats> chained =
        runAccuracyChain(w, buildProgram(w), spec, configs, &obs);
    EXPECT_GT(obs.warmupBranchesSaved, 0u);

    ASSERT_EQ(chained.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        expectSameStats(chained[i], runAccuracy(w, spec, configs[i]));
    }
}

/** Same seam through the timing chain. */
TEST(Fork, TimingChainMatchesIndividualRunsOnCompressedTrace)
{
    const RecordedTrace t(forkRecipe(67), 7000, 256);
    const Workload &w = workloadByName("trace:" + t.path);
    const HybridSpec spec =
        hybridSpec(ProphetKind::GSkew, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8);

    std::vector<TimingConfig> configs;
    for (const std::uint64_t wb : {800ull, 2400ull}) {
        TimingConfig cfg;
        cfg.warmupBranches = wb;
        cfg.measureBranches = 4000;
        ASSERT_TRUE(timingForkable(cfg));
        configs.push_back(cfg);
    }

    ChainObs obs;
    const std::vector<TimingStats> chained =
        runTimingChain(w, buildProgram(w), spec, configs, &obs);
    EXPECT_GT(obs.warmupBranchesSaved, 0u);

    ASSERT_EQ(chained.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        expectSameStats(chained[i], runTiming(w, spec, configs[i]));
    }
}

/**
 * The sweep executor end to end on a compressed trace: persisted
 * ResultStore bytes identical with forking on or off, at any job
 * count.
 */
TEST(Fork, SweepStoreBytesIdenticalForkVsReplayOnCompressedTrace)
{
    const RecordedTrace t(forkRecipe(71), 5000, 256);
    SweepSpec spec;
    spec.name = "fork-parity-trc2";
    spec.axes.prophets = {ProphetKind::Gshare};
    spec.axes.critics = {std::nullopt, CriticKind::TaggedGshare};
    spec.workloads = {"trace:" + t.path};
    spec.branches = 2500;
    spec.warmups = {400, 900, 1400};

    auto runWith = [&](bool fork, unsigned jobs) {
        ResultStore store;
        SweepRunOptions opt;
        opt.fork = fork;
        opt.jobs = jobs;
        runSweep(spec, store, opt);
        return ResultStore::exportJson(store.all());
    };

    const std::string replay = runWith(false, 1);
    EXPECT_EQ(runWith(true, 1), replay);
    EXPECT_EQ(runWith(true, 4), replay);
}

// ---------------------------------------------------- shared programs

/** Two walks of one program, record by record. */
void
expectSameWalk(const std::vector<CommittedBranch> &a,
               const std::vector<CommittedBranch> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].block, b[i].block) << "at record " << i;
        ASSERT_EQ(a[i].pc, b[i].pc) << "at record " << i;
        ASSERT_EQ(a[i].taken, b[i].taken) << "at record " << i;
        ASSERT_EQ(a[i].numUops, b[i].numUops) << "at record " << i;
    }
}

/**
 * A built program holds no walk state: two streams over one const
 * program, read alternately record by record, each equal a lone walk.
 */
TEST(SharedProgram, InterleavedWalksEqualALoneWalk)
{
    const Program p = generateProgram(forkRecipe(81));
    const std::vector<CommittedBranch> lone = walkProgram(p, 6000);

    ProgramWalkStream a(p, 6000), b(p, 6000);
    std::vector<CommittedBranch> from_a, from_b;
    for (std::uint64_t i = 0; i < 6000; ++i) {
        from_a.push_back(*a.at(i));
        from_b.push_back(*b.at(i));
        a.release(i + 1);
        b.release(i + 1);
    }
    expectSameWalk(from_a, lone);
    expectSameWalk(from_b, lone);
}

/** A stream forked mid-walk continues exactly where its original
 *  does, and the original is undisturbed by it. */
TEST(SharedProgram, ForkedWalkEqualsTheOriginalsContinuation)
{
    const Program p = generateProgram(forkRecipe(82));
    const std::vector<CommittedBranch> lone = walkProgram(p, 6000);

    ProgramWalkStream original(p, 6000);
    ASSERT_NE(original.at(2500), nullptr); // walk ahead of the reader
    original.release(2000);
    ProgramWalkStream fork(original, 6000);

    std::vector<CommittedBranch> rest_original, rest_fork;
    for (std::uint64_t i = 2000; i < 6000; ++i) {
        rest_fork.push_back(*fork.at(i));
        rest_original.push_back(*original.at(i));
        fork.release(i + 1);
        original.release(i + 1);
    }
    const std::vector<CommittedBranch> rest(lone.begin() + 2000,
                                            lone.end());
    expectSameWalk(rest_fork, rest);
    expectSameWalk(rest_original, rest);
}

/** Walks on several threads at once share one program (what a
 *  sweep's workers do); each equals a lone walk. */
TEST(SharedProgram, ConcurrentWalksEqualALoneWalk)
{
    const Program p = generateProgram(forkRecipe(83));
    const std::vector<CommittedBranch> lone = walkProgram(p, 20000);

    std::vector<std::vector<CommittedBranch>> walks(4);
    std::vector<std::thread> threads;
    for (auto &w : walks)
        threads.emplace_back([&p, &w] { w = walkProgram(p, 20000); });
    for (std::thread &t : threads)
        t.join();
    for (const auto &w : walks)
        expectSameWalk(w, lone);
}

/**
 * Run @p spec into a fresh store file; returns the file's bytes and
 * sets @p built to the run's `sweep.programs_built`.
 */
std::string
storeBytes(const SweepSpec &spec, bool fork, unsigned jobs,
           std::uint64_t &built)
{
    const std::string path = tmpPath(spec.name + ".jsonl");
    std::remove(path.c_str());
    StatRegistry reg;
    {
        ResultStore store(path);
        SweepRunOptions opt;
        opt.fork = fork;
        opt.jobs = jobs;
        opt.stats = &reg;
        runSweep(spec, store, opt);
    }
    built = hostValue(reg.toJson(), "sweep.programs_built");
    const std::string bytes = slurp(path);
    std::remove(path.c_str());
    return bytes;
}

/**
 * A sweep builds each distinct workload's program once, however many
 * units (chains or lone cells) and workers walk it, and its store
 * equals the `--jobs 1 --no-fork` store byte for byte.
 */
TEST(SharedProgram, SweepBuildsEachWorkloadOnce)
{
    for (const bool timing : {false, true}) {
        SCOPED_TRACE(timing ? "timing" : "accuracy");
        SweepSpec spec;
        spec.name = timing ? "shared-program-t" : "shared-program-a";
        spec.timing = timing;
        spec.axes.prophets = {ProphetKind::Gshare, ProphetKind::Bimodal};
        spec.axes.critics = {std::nullopt, CriticKind::TaggedGshare};
        spec.workloads = {"mm.mpeg", "web.jbb", "fp.swim"};
        spec.branches = timing ? 4000 : 3000;
        spec.warmups = {400, 900};

        std::uint64_t built_replay = 0, built_fork = 0;
        const std::string replay =
            storeBytes(spec, false, 1, built_replay);
        EXPECT_EQ(built_replay, 3u) << "one build per workload, not "
                                       "one per cell";
        EXPECT_EQ(storeBytes(spec, true, 4, built_fork), replay);
        EXPECT_EQ(built_fork, 3u);
    }
}

/** The same for a PCBPTRC2 workload: its CFG is reconstructed from
 *  the file once per sweep, not once per unit. */
TEST(SharedProgram, SweepReconstructsATraceOnce)
{
    const RecordedTrace t(forkRecipe(84), 5000, 256);
    SweepSpec spec;
    spec.name = "shared-program-trc2";
    spec.axes.prophets = {ProphetKind::Gshare, ProphetKind::Bimodal};
    spec.axes.critics = {std::nullopt, CriticKind::TaggedGshare};
    spec.workloads = {"trace:" + t.path};
    spec.branches = 2500;
    spec.warmups = {400, 900};

    std::uint64_t built_replay = 0, built_fork = 0;
    const std::string replay = storeBytes(spec, false, 1, built_replay);
    EXPECT_EQ(built_replay, 1u);
    EXPECT_EQ(storeBytes(spec, true, 4, built_fork), replay);
    EXPECT_EQ(built_fork, 1u);
}

} // namespace
} // namespace pcbp
