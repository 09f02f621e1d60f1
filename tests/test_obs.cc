/**
 * @file
 * Tests for the observability subsystem (src/obs/): the hierarchical
 * StatRegistry's merge/dump semantics, the `--jobs`-independence of
 * sim-section dumps, the Perfetto span tracer's event ordering and
 * B/E nesting, the per-cell stats block's store compatibility, the
 * mutex-guarded log sink under parallelFor concurrency, parallelFor's
 * host counters, and the progress heartbeat.
 *
 * The ObsValidate tests double as the CI artifact validators: point
 * PCBP_OBS_VALIDATE_STATS / PCBP_OBS_VALIDATE_TRACE at files written
 * by `--stats-out` / `--trace-out` and they schema-check them (they
 * skip when the variables are unset).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/probes.hh"
#include "obs/progress.hh"
#include "obs/span_trace.hh"
#include "obs/stat_registry.hh"
#include "sim/driver.hh"
#include "sim/metrics.hh"
#include "support.hh"
#include "sweep/runner.hh"

namespace pcbp
{
namespace
{

// ----------------------------------------------------- StatRegistry

TEST(StatRegistry, ScalarKindsAndMerge)
{
    StatRegistry a;
    a.add("x.count", 3);
    a.add("x.count", 2);
    a.setMax("x.peak", 7);
    a.setMax("x.peak", 4); // lower: must not regress the max
    EXPECT_EQ(a.simValue("x.count"), 5u);
    EXPECT_EQ(a.simValue("x.peak"), 7u);
    EXPECT_EQ(a.simValue("missing"), 0u);

    StatRegistry b;
    b.add("x.count", 10);
    b.setMax("x.peak", 6);
    b.add("y.only_b", 1);

    a.merge(b);
    EXPECT_EQ(a.simValue("x.count"), 15u); // Sum adds
    EXPECT_EQ(a.simValue("x.peak"), 7u);   // Max keeps larger
    EXPECT_EQ(a.simValue("y.only_b"), 1u); // absent entries appear
}

TEST(StatRegistry, MergeIsCommutative)
{
    // The property runSweep's run-wide dump relies on: cells merge
    // in completion order, which --jobs changes.
    auto make = [](std::uint64_t seed) {
        StatRegistry r;
        r.add("a", seed);
        r.add("b", seed * 3);
        r.setMax("peak", seed * 7 % 13);
        Histogram h(4, 8);
        h.sample(seed % 30);
        h.sample((seed * 5) % 30);
        r.hist("dist", h);
        return r;
    };
    StatRegistry ab = make(2);
    ab.merge(make(9));
    StatRegistry ba = make(9);
    ba.merge(make(2));
    EXPECT_EQ(ab.simJson(), ba.simJson());
}

TEST(StatRegistry, JsonShapeAndOrdering)
{
    StatRegistry r;
    r.add("zeta", 1);
    r.add("alpha", 2);
    r.setHost("wall_ns", 123);
    Histogram h(2, 4);
    h.sample(3);
    r.hist("flush", h);

    const std::string js = r.toJson();
    EXPECT_EQ(js.rfind("{\"schema\":\"pcbp-stats-1\",\"sim\":{", 0),
              0u);
    // Lexicographic key order inside sections.
    EXPECT_LT(js.find("\"alpha\":2"), js.find("\"zeta\":1"));
    EXPECT_NE(js.find("\"host\":{\"wall_ns\":123}"),
              std::string::npos);
    EXPECT_NE(js.find("\"hist\":{"), std::string::npos);

    // simJson drops the host section entirely.
    EXPECT_EQ(r.simJson().find("wall_ns"), std::string::npos);
}

TEST(StatRegistry, WriteFilesEmitsJsonAndMarkdown)
{
    StatRegistry r;
    r.add("core.commits", 42);
    const std::string path =
        testing::TempDir() + "pcbp_obs_stats.json";
    r.writeFiles(path);

    std::ifstream js(path), md(path + ".md");
    ASSERT_TRUE(js);
    ASSERT_TRUE(md);
    std::ostringstream jb, mb;
    jb << js.rdbuf();
    mb << md.rdbuf();
    EXPECT_NE(jb.str().find("\"core.commits\":42"),
              std::string::npos);
    EXPECT_NE(mb.str().find("core.commits"), std::string::npos);
    std::remove(path.c_str());
    std::remove((path + ".md").c_str());
}

// --------------------------------------------- engine + core export

TEST(ObsExport, EngineStatsMatchRegistryCounters)
{
    const Workload &w = workloadByName("mm.mpeg");
    EngineConfig cfg;
    cfg.warmupBranches = 1000;
    cfg.measureBranches = 10000;
    StatRegistry reg;
    cfg.statsOut = &reg;
    const EngineStats st = runAccuracy(
        w,
        hybridSpec(ProphetKind::Gshare, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8),
        cfg);

    EXPECT_EQ(reg.simValue("engine.committed_branches"),
              st.committedBranches);
    EXPECT_EQ(reg.simValue("engine.final_mispredicts"),
              st.finalMispredicts);
    EXPECT_EQ(reg.simValue("engine.critic_overrides"),
              st.criticOverrides);
    // Core protocol counters: commits include warmup; every commit
    // was fetched first.
    EXPECT_EQ(reg.simValue("core.commits"),
              cfg.warmupBranches + cfg.measureBranches);
    EXPECT_GE(reg.simValue("core.fetches"),
              reg.simValue("core.commits"));
    EXPECT_GT(reg.simValue("core.critiques"), 0u);
    EXPECT_GT(reg.simValue("core.queue_peak"), 0u);
    // Stream/identity and predictor config stats.
    EXPECT_EQ(reg.simValue("stream.backend.program_walk"), 1u);
    EXPECT_GT(reg.simValue("predictor.prophet.size_bits"), 0u);
    EXPECT_GT(reg.simValue("predictor.critic.size_bits"), 0u);
}

TEST(ObsExport, DisabledRegistryChangesNothing)
{
    const Workload &w = workloadByName("int.crafty");
    EngineConfig cfg;
    cfg.warmupBranches = 500;
    cfg.measureBranches = 5000;
    const HybridSpec spec =
        prophetAlone(ProphetKind::Gshare, Budget::B8KB);

    const EngineStats plain = runAccuracy(w, spec, cfg);
    StatRegistry reg;
    cfg.statsOut = &reg;
    const EngineStats observed = runAccuracy(w, spec, cfg);

    // Observability must never perturb simulation results.
    EXPECT_EQ(plain.finalMispredicts, observed.finalMispredicts);
    EXPECT_EQ(plain.committedUops, observed.committedUops);
    EXPECT_FALSE(reg.empty());
}

TEST(ObsExport, H2PProfilerExportsPerPcSection)
{
    const Workload &w = workloadByName("mm.mpeg");
    EngineConfig cfg;
    cfg.warmupBranches = 500;
    cfg.measureBranches = 8000;
    H2PProfiler profiler(cfg.warmupBranches);
    cfg.commitSink = &profiler;
    StatRegistry reg;
    cfg.statsOut = &reg;
    runAccuracy(w, prophetAlone(ProphetKind::Gshare, Budget::B8KB),
                cfg);

    profiler.exportStats(reg, "h2p", 4);
    EXPECT_EQ(reg.simValue("h2p.commits"), cfg.measureBranches);
    EXPECT_GT(reg.simValue("h2p.mispredicts"), 0u);
    EXPECT_GT(reg.simValue("h2p.static_branches"), 0u);
    // Bounded per-PC export: count distinct pc groups via the execs
    // stat — at most max_pcs of them.
    const std::string js = reg.simJson();
    std::size_t pcs = 0, pos = 0;
    const std::string needle = ".execs\":";
    while ((pos = js.find(needle, pos)) != std::string::npos) {
        ++pcs;
        pos += needle.size();
    }
    EXPECT_GE(pcs, 1u);
    EXPECT_LE(pcs, 4u);
}

// ------------------------------------------------ sweep determinism

SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.name = "obs-grid";
    spec.axes.prophets = {ProphetKind::Gshare};
    spec.axes.critics = {std::nullopt, CriticKind::TaggedGshare};
    spec.workloads = {"mm.mpeg", "int.crafty"};
    spec.branches = 4000;
    return spec;
}

TEST(ObsSweep, SimDumpIsJobsIndependent)
{
    auto runWith = [&](unsigned jobs) {
        ResultStore store;
        StatRegistry reg;
        SweepRunOptions opt;
        opt.jobs = jobs;
        opt.stats = &reg;
        runSweep(tinySpec(), store, opt);
        return reg.simJson();
    };
    const std::string one = runWith(1);
    const std::string four = runWith(4);
    EXPECT_EQ(one, four);
    EXPECT_NE(one.find("engine.committed_branches"),
              std::string::npos);
}

TEST(ObsSweep, CollectionKeepsStoreBytesIdentical)
{
    // Stats collection on (but the per-cell block off) must not
    // change a single persisted byte.
    const std::string p1 = testing::TempDir() + "pcbp_obs_plain.jsonl";
    const std::string p2 = testing::TempDir() + "pcbp_obs_stats.jsonl";
    std::remove(p1.c_str());
    std::remove(p2.c_str());
    {
        ResultStore store(p1);
        SweepRunOptions opt;
        opt.jobs = 2;
        runSweep(tinySpec(), store, opt);
    }
    {
        ResultStore store(p2);
        StatRegistry reg;
        SpanTracer tracer;
        SweepRunOptions opt;
        opt.jobs = 2;
        opt.stats = &reg;
        opt.tracer = &tracer;
        runSweep(tinySpec(), store, opt);
        EXPECT_EQ(tracer.size(), 4u); // one span per executed cell
    }
    std::ifstream f1(p1, std::ios::binary), f2(p2, std::ios::binary);
    std::ostringstream b1, b2;
    b1 << f1.rdbuf();
    b2 << f2.rdbuf();
    EXPECT_EQ(b1.str(), b2.str());
    EXPECT_FALSE(b1.str().empty());
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST(ObsSweep, ForkCountersLandInHostSection)
{
    // A three-step warmup ladder over one config is one fork group:
    // the canonical (largest-warmup) cell runs, the other two fork
    // off it at their own warmup boundary (wb-1 for the accuracy
    // engine), so every counter here is exact and deterministic.
    SweepSpec spec;
    spec.name = "obs-fork";
    spec.axes.prophets = {ProphetKind::Gshare};
    spec.axes.critics = {CriticKind::TaggedGshare};
    spec.workloads = {"mm.mpeg"};
    spec.branches = 2000;
    spec.warmups = {400, 800, 1200};

    auto hostJson = [&](bool fork) {
        ResultStore store;
        StatRegistry reg;
        SweepRunOptions opt;
        opt.jobs = 2;
        opt.stats = &reg;
        opt.fork = fork;
        runSweep(spec, store, opt);
        return reg.toJson();
    };

    const std::string on = hostJson(true);
    EXPECT_NE(on.find("\"sweep.fork.groups\":1"), std::string::npos)
        << on;
    EXPECT_NE(on.find("\"sweep.fork.cells_forked\":2"),
              std::string::npos);
    EXPECT_NE(on.find("\"sweep.fork.warmup_branches_saved\":1198"),
              std::string::npos);

    // Forking off: the keys stay in the schema, pinned to zero.
    const std::string off = hostJson(false);
    EXPECT_NE(off.find("\"sweep.fork.groups\":0"), std::string::npos)
        << off;
    EXPECT_NE(off.find("\"sweep.fork.cells_forked\":0"),
              std::string::npos);
    EXPECT_NE(off.find("\"sweep.fork.warmup_branches_saved\":0"),
              std::string::npos);
}

TEST(ObsSweep, StartsNoMoreWorkersThanUnits)
{
    // Two cells that cannot share a fork chain: two units, so two
    // workers however many `jobs` asks for.
    const SweepSpec spec = SweepSpec::parse("future_bits = 4, 8\n"
                                            "branches = 2000\n"
                                            "workloads = mm.mpeg\n");
    ResultStore store;
    StatRegistry reg;
    SweepRunOptions opt;
    opt.jobs = 64;
    opt.stats = &reg;
    EXPECT_EQ(runSweep(spec, store, opt).executedCells, 2u);
    EXPECT_EQ(hostValue(reg.toJson(), "pool.workers"), 2u);
}

TEST(ObsSweep, CellStatsBlockRoundTripsAndStaysOptional)
{
    ResultStore store;
    StatRegistry reg;
    SweepRunOptions opt;
    opt.jobs = 1;
    opt.stats = &reg;
    opt.cellStats = true;
    std::vector<CellResult> seen;
    opt.onCellDone = [&](const SweepCell &, const CellResult &r) {
        seen.push_back(r);
    };
    runSweep(tinySpec(), store, opt);
    ASSERT_EQ(seen.size(), 4u);

    for (const CellResult &r : seen) {
        ASSERT_FALSE(r.stats.empty());
        const std::string line = r.toJson();
        // The stats object trails every legacy field.
        EXPECT_LT(line.find("\"critiques\":"),
                  line.find("\"stats\":{"));
        CellResult back;
        ASSERT_TRUE(CellResult::tryFromJson(line, back));
        EXPECT_EQ(back.stats, r.stats);
        EXPECT_EQ(back.toJson(), line);
    }

    // Flag off: no stats key, and a legacy line (no stats field)
    // still parses with an empty block.
    CellResult bare = seen[0];
    bare.stats.clear();
    const std::string line = bare.toJson();
    EXPECT_EQ(line.find("\"stats\""), std::string::npos);
    CellResult back;
    ASSERT_TRUE(CellResult::tryFromJson(line, back));
    EXPECT_TRUE(back.stats.empty());
}

// ------------------------------------------------------- span trace

/**
 * Walk a pcbp-trace-1 document: timestamps non-decreasing, and per
 * tid every E matches the name of the most recent unclosed B (the
 * nesting property Perfetto needs to build flame graphs).
 */
void
checkTraceDocument(const std::string &js)
{
    ASSERT_NE(js.find("\"traceEvents\":["), std::string::npos);
    ASSERT_NE(js.find("\"schema\":\"pcbp-trace-1\""),
              std::string::npos);

    std::map<unsigned, std::vector<std::string>> stacks;
    double lastTs = -1.0;
    std::istringstream is(js);
    std::string line;
    while (std::getline(is, line)) {
        const bool isB = line.find("\"ph\":\"B\"") != std::string::npos;
        const bool isE = line.find("\"ph\":\"E\"") != std::string::npos;
        if (!isB && !isE)
            continue;

        auto field = [&](const char *key) {
            const std::size_t k = line.find(key);
            EXPECT_NE(k, std::string::npos) << line;
            return k + std::string(key).size();
        };
        const std::size_t n0 = field("\"name\":\"");
        const std::string name =
            line.substr(n0, line.find('"', n0) - n0);
        const std::size_t t0 = field("\"tid\":");
        const unsigned tid =
            unsigned(std::strtoul(line.c_str() + t0, nullptr, 10));
        const std::size_t s0 = field("\"ts\":");
        const double ts = std::atof(line.c_str() + s0);

        EXPECT_GE(ts, lastTs) << "unsorted event: " << line;
        lastTs = ts;

        auto &stack = stacks[tid];
        if (isB) {
            stack.push_back(name);
        } else {
            ASSERT_FALSE(stack.empty())
                << "E without open B on tid " << tid << ": " << line;
            EXPECT_EQ(stack.back(), name)
                << "non-nesting E on tid " << tid;
            stack.pop_back();
        }
    }
    for (const auto &kv : stacks)
        EXPECT_TRUE(kv.second.empty())
            << "unclosed B events on tid " << kv.first;
}

TEST(SpanTrace, EventsSortAndNest)
{
    SpanTracer t;
    t.nameThread(0, "main");
    t.nameThread(1, "worker1");
    // Nested on tid 0; overlapping across tids; shared boundary.
    t.record("outer", "test", 0, 100, 900);
    t.record("inner", "test", 0, 200, 500);
    t.record("inner2", "test", 0, 500, 900); // ties with inner E/outer E
    t.record("other", "test", 1, 50, 400);
    t.record("clamped", "test", 1, 600, 10); // end < start: clamps
    EXPECT_EQ(t.size(), 5u);

    const std::string js = t.toJson();
    EXPECT_NE(js.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(js.find("\"worker1\""), std::string::npos);
    checkTraceDocument(js);
}

TEST(SpanTrace, RenamingThreadDoesNotDuplicateMetadata)
{
    SpanTracer t;
    t.nameThread(0, "first");
    t.nameThread(0, "second"); // e.g. runSweep once per figure
    const std::string js = t.toJson();
    EXPECT_EQ(js.find("\"first\""), std::string::npos);
    std::size_t metas = 0, pos = 0;
    while ((pos = js.find("thread_name", pos)) != std::string::npos) {
        ++metas;
        ++pos;
    }
    EXPECT_EQ(metas, 1u);
}

TEST(SpanTrace, SweepTraceIsValidAndWorkerTagged)
{
    ResultStore store;
    SpanTracer tracer;
    SweepRunOptions opt;
    opt.jobs = 2;
    opt.tracer = &tracer;
    runSweep(tinySpec(), store, opt);

    const std::string js = tracer.toJson();
    checkTraceDocument(js);
    EXPECT_NE(js.find("\"cat\":\"cell\""), std::string::npos);
}

// ------------------------------------------- logging + parallelFor

TEST(ObsLogging, SinkLinesStayAtomicUnderParallelFor)
{
    ScopedLogCapture capture;
    parallelFor(4, 200, [&](std::size_t i, unsigned) {
        logRawLine("line-" + std::to_string(i % 7) + "-suffix");
    });
    const auto lines = capture.lines();
    ASSERT_EQ(lines.size(), 200u);
    for (const std::string &l : lines) {
        // Each captured line must be exactly one emitted message —
        // never an interleaving of two.
        EXPECT_EQ(l.rfind("line-", 0), 0u) << l;
        EXPECT_EQ(l.substr(l.size() - 7), "-suffix") << l;
    }
}

TEST(ObsParallelFor, ExportStatsAccountsEveryTask)
{
    StatRegistry reg;
    for (int round = 0; round < 4; ++round)
        EXPECT_EQ(parallelFor(3, 50, [](std::size_t, unsigned) {}, &reg),
                  3u);

    const std::string js = reg.toJson();
    EXPECT_EQ(hostValue(js, "pool.workers"), 3u);
    EXPECT_EQ(hostValue(js, "pool.batches"), 4u);
    EXPECT_EQ(hostValue(js, "pool.tasks"), 200u);
    EXPECT_EQ(hostValue(js, "pool.steals"), 0u);
    EXPECT_EQ(hostValue(js, "pool.worker0.tasks") +
                  hostValue(js, "pool.worker1.tasks") +
                  hostValue(js, "pool.worker2.tasks"),
              200u);
    // Host-only: the sim section must stay empty.
    EXPECT_NE(js.find("\"sim\":{}"), std::string::npos);
}

TEST(ObsParallelFor, IdleCountsTheTailWait)
{
    // Index 0 returns 20 ms after index 1 has, so the worker that
    // ran index 1 sits idle at least that long before the call ends.
    std::atomic<bool> oneDone{false};
    StatRegistry reg;
    parallelFor(
        2, 2,
        [&](std::size_t i, unsigned) {
            if (i == 1) {
                oneDone = true;
                return;
            }
            while (!oneDone)
                std::this_thread::yield();
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        },
        &reg);
    EXPECT_GE(hostValue(reg.toJson(), "pool.idle_ns"), 20000000u);
}

TEST(ObsParallelFor, ReportsValidWorker)
{
    std::vector<unsigned> worker(64, 999);
    parallelFor(3, worker.size(),
                [&](std::size_t i, unsigned w) { worker[i] = w; });
    for (unsigned w : worker)
        EXPECT_LT(w, 3u);
}

// --------------------------------------------------------- progress

TEST(ObsProgress, HeartbeatLinesAndFinalSummary)
{
    if (logLevel() < LogLevel::Info)
        GTEST_SKIP() << "PCBP_LOG_LEVEL filters progress output";
    ScopedLogCapture capture;
    ProgressMeter meter(3, "cells", 0); // interval 0: every tick
    meter.tick(1000);
    meter.tick(1000);
    meter.tick(2000);
    meter.finish();

    const auto lines = capture.lines();
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[0].rfind("progress: 1/3 cells (33%)", 0), 0u)
        << lines[0];
    EXPECT_NE(lines[0].find("branches/s"), std::string::npos);
    EXPECT_NE(lines[0].find("ETA"), std::string::npos);
    // The final cell and finish() report 100% and no ETA.
    EXPECT_EQ(lines[2].rfind("progress: 3/3 cells (100%)", 0), 0u);
    EXPECT_EQ(lines[2].find("ETA"), std::string::npos);
    EXPECT_NE(lines[3].find("| done"), std::string::npos);
    EXPECT_EQ(meter.done(), 3u);
}

TEST(ObsProgress, ResumedUnitsCountTowardCompletion)
{
    if (logLevel() < LogLevel::Info)
        GTEST_SKIP() << "PCBP_LOG_LEVEL filters progress output";
    ScopedLogCapture capture;
    ProgressMeter meter(10, "cells", 0);
    meter.setResumed(9);
    meter.tick(500); // completes the grid: must emit despite throttle
    const auto lines = capture.lines();
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].rfind("progress: 10/10 cells (100%)", 0), 0u);
    EXPECT_EQ(meter.done(), 10u);
}

TEST(ObsProgress, ThrottleSuppressesIntermediateTicks)
{
    if (logLevel() < LogLevel::Info)
        GTEST_SKIP() << "PCBP_LOG_LEVEL filters progress output";
    ScopedLogCapture capture;
    // Huge interval: only the first tick (lastEmit==0) and the
    // grid-completing tick may emit.
    ProgressMeter meter(5, "cells", 3600 * 1000);
    for (int i = 0; i < 5; ++i)
        meter.tick(100);
    const auto lines = capture.lines();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].rfind("progress: 1/5", 0), 0u);
    EXPECT_EQ(lines[1].rfind("progress: 5/5", 0), 0u);
}

// ------------------------------------------------------ obs probes

TEST(ObsProbes, NullCountersAreIgnored)
{
    // The hot-path contract: a detached component (obs == nullptr)
    // must tolerate every probe macro.
    struct Counters
    {
        std::uint64_t n = 0;
        std::uint64_t peak = 0;
    } c;
    Counters *obs = nullptr;
    pcbp_obs_inc(obs, n);
    pcbp_obs_add(obs, n, 5);
    pcbp_obs_max(obs, peak, 9);
    obs = &c;
    pcbp_obs_inc(obs, n);
    pcbp_obs_add(obs, n, 5);
    pcbp_obs_max(obs, peak, 9);
    pcbp_obs_max(obs, peak, 2);
    EXPECT_EQ(c.n, 6u);
    EXPECT_EQ(c.peak, 9u);
}

// ------------------------------------------------- golden + schema

TEST(ObsGolden, SweepStatsSimDump)
{
    // Pins the full deterministic dump of a small two-workload grid:
    // stat names, section shape, and every counter value. Drift here
    // means either the schema or the simulation changed.
    ResultStore store;
    StatRegistry reg;
    SweepRunOptions opt;
    opt.jobs = 2;
    opt.stats = &reg;
    runSweep(tinySpec(), store, opt);
    expectMatchesGolden(reg.simJson() + "\n", "obs/sweep_stats.json");
}

// ------------------------------------- CI artifact schema validators

std::string
slurpEnvFile(const char *var)
{
    const char *path = std::getenv(var);
    if (!path || !*path)
        return "";
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << var << " points at unreadable " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(ObsValidate, StatsArtifact)
{
    const std::string js = slurpEnvFile("PCBP_OBS_VALIDATE_STATS");
    if (js.empty())
        GTEST_SKIP() << "PCBP_OBS_VALIDATE_STATS not set";
    EXPECT_EQ(js.rfind("{\"schema\":\"pcbp-stats-1\",\"sim\":{", 0),
              0u);
    EXPECT_NE(js.find("\"host\":{"), std::string::npos);
    // A real run always exports these.
    EXPECT_NE(js.find("engine.committed_branches"),
              std::string::npos);
    EXPECT_EQ(js.back(), '\n');
}

TEST(ObsValidate, TraceArtifact)
{
    const std::string js = slurpEnvFile("PCBP_OBS_VALIDATE_TRACE");
    if (js.empty())
        GTEST_SKIP() << "PCBP_OBS_VALIDATE_TRACE not set";
    checkTraceDocument(js);
}

} // namespace
} // namespace pcbp
