/**
 * @file
 * Tests for the sweep orchestration subsystem: the shared-cursor
 * parallelFor, SweepSpec parsing / expansion, the resumable
 * ResultStore, and the runner's determinism and resume contracts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/stat_registry.hh"
#include "support.hh"
#include "sweep/runner.hh"

namespace pcbp
{
namespace
{

// ------------------------------------------------------ parallelFor

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(100);
    EXPECT_EQ(parallelFor(4, hits.size(),
                          [&](std::size_t i, unsigned) {
                              hits[i].fetch_add(1);
                          }),
              4u);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, HandlesEmptyAndTinyBatches)
{
    EXPECT_EQ(parallelFor(8, 0, [&](std::size_t, unsigned) { FAIL(); }),
              0u);

    // One index needs one worker, whatever `jobs` asks for.
    std::atomic<int> hits{0};
    EXPECT_EQ(parallelFor(8, 1,
                          [&](std::size_t, unsigned) {
                              hits.fetch_add(1);
                          }),
              1u);
    EXPECT_EQ(hits.load(), 1);
}

TEST(ParallelFor, SingleWorkerRunsSeriallyOnCaller)
{
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    parallelFor(1, 10, [&](std::size_t i, unsigned worker) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(worker, 0u);
        order.push_back(i); // no race: single worker
    });
    // One worker: strictly serial, in order — the runner's ordered
    // flush depends on this for --jobs 1.
    EXPECT_EQ(order,
              (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ParallelFor, SlowIndexDoesNotHoldBackTheOthers)
{
    // Index 0 returns only once every other index has run, so the
    // other workers must take all of them, including any a static
    // split would have queued behind index 0. The deadline turns a
    // regression into a failure instead of a hang.
    for (const std::size_t n : {3, 50}) { // fewer, more than jobs
        std::atomic<std::size_t> others{0};
        bool sawAll = false;
        parallelFor(4, n, [&](std::size_t i, unsigned) {
            if (i != 0) {
                others.fetch_add(1);
                return;
            }
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(30);
            while (others.load() < n - 1 &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            sawAll = others.load() == n - 1;
        });
        EXPECT_TRUE(sawAll) << n;
    }
}

TEST(ParallelFor, RethrowsTheFirstExceptionAfterJoining)
{
    // On the caller alone, a throw stops the loop at once.
    std::vector<std::size_t> ran;
    EXPECT_THROW(parallelFor(1, 10,
                             [&](std::size_t i, unsigned) {
                                 ran.push_back(i);
                                 if (i == 3)
                                     throw std::runtime_error("3");
                             }),
                 std::runtime_error);
    EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3}));

    // On any worker: every index handed out before the throw still
    // runs, and the exception reaches the caller.
    std::atomic<int> calls{0};
    EXPECT_THROW(parallelFor(4, 100,
                             [&](std::size_t i, unsigned) {
                                 calls.fetch_add(1);
                                 if (i == 50)
                                     throw std::runtime_error("50");
                             }),
                 std::runtime_error);
    EXPECT_GE(calls.load(), 51);
    EXPECT_LE(calls.load(), 100);
}

// -------------------------------------------------------- SweepSpec

TEST(SweepSpec, ParsesTextFormat)
{
    const SweepSpec spec = SweepSpec::parse(
        "# a comment\n"
        "name = demo\n"
        "prophet = gshare, perceptron  # trailing comment\n"
        "prophet_budget = 4KB, 16KB\n"
        "critic = none, t.gshare\n"
        "critic_budget = 8KB\n"
        "future_bits = 1, 8\n"
        "spec_history = on, off\n"
        "repair_history = off\n"
        "branches = 5000\n"
        "workloads = mm.mpeg, FP00\n");
    EXPECT_EQ(spec.name, "demo");
    ASSERT_EQ(spec.axes.prophets.size(), 2u);
    EXPECT_EQ(spec.axes.prophets[1], ProphetKind::Perceptron);
    ASSERT_EQ(spec.axes.critics.size(), 2u);
    EXPECT_FALSE(spec.axes.critics[0].has_value());
    EXPECT_EQ(*spec.axes.critics[1], CriticKind::TaggedGshare);
    EXPECT_EQ(spec.axes.futureBits, (std::vector<unsigned>{1, 8}));
    EXPECT_EQ(spec.axes.speculativeHistory,
              (std::vector<bool>{true, false}));
    EXPECT_EQ(spec.axes.repairHistory, (std::vector<bool>{false}));
    EXPECT_EQ(spec.branches, 5000u);
    // mm.mpeg + the two FP00 workloads.
    EXPECT_EQ(spec.resolveWorkloads().size(), 3u);
}

/** The grid @p text expands to is the grid @p code expands to. */
void
expectSameCells(const SweepSpec &text, const SweepSpec &code)
{
    const auto a = text.cells();
    const auto b = code.cells();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].key(), b[i].key());
}

TEST(SweepSpec, TextBuildsTheSameGridAsCode)
{
    SweepSpec spec;
    spec.name = "rt";
    spec.axes.prophets = {ProphetKind::GSkew, ProphetKind::Gshare};
    spec.axes.prophetBudgets = {Budget::B2KB, Budget::B32KB};
    spec.axes.critics = {std::nullopt, CriticKind::FilteredPerceptron};
    spec.axes.criticBudgets = {Budget::B16KB};
    spec.axes.futureBits = {0, 12};
    spec.axes.speculativeHistory = {false};
    spec.branches = 1234;
    spec.workloads = {"INT00", "unzip"};

    const SweepSpec text = SweepSpec::parse(
        "name = rt\n"
        "prophet = 2Bc-gskew, gshare\n"
        "prophet_budget = 2KB, 32KB\n"
        "critic = none, f.perceptron\n"
        "critic_budget = 16KB\n"
        "future_bits = 0, 12\n"
        "spec_history = off\n"
        "branches = 1234\n"
        "workloads = INT00, unzip\n");
    EXPECT_EQ(text.name, spec.name);
    expectSameCells(text, spec);
}

TEST(SweepSpec, RejectsBadInput)
{
    EXPECT_EXIT(SweepSpec::parse("bogus_key = 1\n"),
                testing::ExitedWithCode(1), "unknown key");
    EXPECT_EXIT(SweepSpec::parse("prophet = warlock\n"),
                testing::ExitedWithCode(1), "unknown predictor kind");
    EXPECT_EXIT(SweepSpec::parse("no equals sign"),
                testing::ExitedWithCode(1), "expected");
    EXPECT_EXIT(SweepSpec::parse("name = a\nname = b\n"),
                testing::ExitedWithCode(1), "duplicate key");
    EXPECT_EXIT(SweepSpec::parse("workloads = NOPE\n").cells(),
                testing::ExitedWithCode(1), "unknown");
    EXPECT_EXIT(SweepSpec::parse("future_bits = abc\n"),
                testing::ExitedWithCode(1), "bad value");
    EXPECT_EXIT(SweepSpec::parse("future_bits = 4x\n"),
                testing::ExitedWithCode(1), "bad value");
    EXPECT_EXIT(SweepSpec::parse("branches = -5\n"),
                testing::ExitedWithCode(1), "bad value");

    // Out-of-range numbers: no exception escapes, nothing wraps, and
    // values the simulators would assert on never reach a cell.
    const struct
    {
        const char *text;
        const char *key;
    } out_of_range[] = {
        {"branches = 99999999999999999999999\n", "branches"},
        {"warmup = 18446744073709551616\n", "warmup"},
        {"future_bits = 4294967304\n", "future_bits"},
        {"filter_tag_bits = 4294967306\n", "filter_tag_bits"},
        {"future_bits = 24\n", "future_bits"},
        {"future_bits = 8, 24\n", "future_bits"},
        {"future_bits = 32\nmode = timing\n", "future_bits"},
        {"filter_tag_bits = 3\n", "filter_tag_bits"},
        {"filter_tag_bits = 17\n", "filter_tag_bits"},
    };
    for (const auto &c : out_of_range) {
        EXPECT_EXIT(SweepSpec::parse(std::string(c.text) +
                                     "workloads = mm.mpeg\n"),
                    testing::ExitedWithCode(1),
                    std::string("line 1: bad value '[0-9]+' for '") +
                        c.key + "'")
            << c.text;
    }
}

TEST(SweepSpec, ScaledCountsPast64BitsAreRejected)
{
    // parseUint accepts 2^64 - 1, but scaling it overflowed the cast
    // and the cell ran at the 1000-branch floor.
    for (const char *key : {"branches", "warmup"}) {
        EXPECT_EXIT(SweepSpec::parse(std::string(key) +
                                     " = 18446744073709551615\n"
                                     "workloads = mm.mpeg\n")
                        .cells(),
                    testing::ExitedWithCode(1),
                    std::string("'") + key +
                        "' times PCBP_BENCH_SCALE 1 does not fit")
            << key;
    }
}

TEST(SweepSpec, BoundaryValuesRun)
{
    // The deepest future-bit count each simulator supports, and both
    // ends of the filter tag-width range, parse and run.
    for (const char *text :
         {"future_bits = 23\n",
          "future_bits = 31\nmode = timing\n"}) {
        const SweepSpec spec = SweepSpec::parse(
            std::string(text) + "filter_tag_bits = 0, 4, 16\n"
                                "branches = 2000\n"
                                "workloads = mm.mpeg\n");
        ResultStore store;
        SweepRunOptions opt;
        opt.jobs = 1;
        EXPECT_EQ(runSweep(spec, store, opt).executedCells, 3u) << text;
    }
}

TEST(SweepSpec, ParsesTimingAndAblationAxes)
{
    const SweepSpec spec = SweepSpec::parse(
        "name = t\n"
        "mode = timing\n"
        "filter_tag_bits = 4, 10\n"
        "workloads = mm.mpeg\n");
    EXPECT_TRUE(spec.timing);
    EXPECT_EQ(spec.axes.filterTagBits, (std::vector<unsigned>{4, 10}));
    const auto cells = spec.cells();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_TRUE(cells[0].timing);

    const SweepSpec oracle = SweepSpec::parse(
        "oracle = off, on\nworkloads = mm.mpeg\n");
    EXPECT_FALSE(oracle.timing);
    ASSERT_EQ(oracle.cells().size(), 2u);
    EXPECT_FALSE(oracle.cells()[0].oracleFutureBits);
    EXPECT_TRUE(oracle.cells()[1].oracleFutureBits);
    EXPECT_TRUE(oracle.cells()[1].engineConfig().oracleFutureBits);

    EXPECT_EXIT(SweepSpec::parse("mode = sideways\n"),
                testing::ExitedWithCode(1), "bad value");
    EXPECT_EXIT(SweepSpec::parse("mode = timing\noracle = on\n"
                                 "workloads = mm.mpeg\n")
                    .cells(),
                testing::ExitedWithCode(1), "oracle axis");
}

TEST(SweepSpec, TimingAndAblationTextBuildsTheSameGridAsCode)
{
    SweepSpec spec;
    spec.name = "rt2";
    spec.timing = true;
    spec.axes.filterTagBits = {0, 8};
    spec.branches = 2000;
    spec.workloads = {"mm.mpeg"};

    const SweepSpec text = SweepSpec::parse("name = rt2\n"
                                            "mode = timing\n"
                                            "filter_tag_bits = 0, 8\n"
                                            "branches = 2000\n"
                                            "workloads = mm.mpeg\n");
    EXPECT_TRUE(text.timing);
    expectSameCells(text, spec);
}

TEST(SweepSpec, NonDefaultKnobsAppendKeySuffixes)
{
    SweepSpec spec;
    spec.workloads = {"mm.mpeg"};
    spec.branches = 2000;
    const std::string base = spec.cells()[0].key();
    // Plain accuracy cells keep the historical key format.
    EXPECT_EQ(base.find(";md="), std::string::npos);
    EXPECT_EQ(base.find(";tb="), std::string::npos);
    EXPECT_EQ(base.find(";ofb="), std::string::npos);

    SweepSpec timing = spec;
    timing.timing = true;
    EXPECT_EQ(timing.cells()[0].key(), base + ";md=t");

    SweepSpec tagged = spec;
    tagged.axes.filterTagBits = {6};
    EXPECT_EQ(tagged.cells()[0].key(), base + ";tb=6");

    SweepSpec oracle = spec;
    oracle.axes.oracleFutureBits = {true};
    EXPECT_EQ(oracle.cells()[0].key(), base + ";ofb=1");
}

TEST(SweepSpec, InapplicableAblationAxesCollapse)
{
    // Baselines have no critique path (no oracle bits consumed) and
    // unfiltered critics have no tags: those grid points collapse
    // instead of multiplying into duplicate cells.
    SweepSpec spec;
    spec.axes.critics = {std::nullopt,
                         CriticKind::UnfilteredPerceptron,
                         CriticKind::TaggedGshare};
    spec.axes.filterTagBits = {8, 10};
    spec.axes.oracleFutureBits = {false, true};
    spec.workloads = {"mm.mpeg"};
    spec.branches = 2000;
    // none: 1; u.perceptron: 2 oracle; t.gshare: 2 tags x 2 oracle.
    EXPECT_EQ(spec.cells().size(), 7u);
}

TEST(SweepSpec, BaselineRowsCollapseCriticAxes)
{
    SweepSpec spec;
    spec.axes.critics = {std::nullopt, CriticKind::TaggedGshare};
    spec.axes.criticBudgets = {Budget::B2KB, Budget::B8KB};
    spec.axes.futureBits = {1, 4, 8};
    spec.workloads = {"mm.mpeg"};
    // Hybrid rows: 2 critic budgets x 3 future bits = 6. Baseline
    // rows collapse both axes to a single cell.
    EXPECT_EQ(spec.cells().size(), 7u);
}

TEST(SweepSpec, CellKeyEncodesEverySimulationInput)
{
    SweepSpec spec;
    spec.workloads = {"mm.mpeg"};
    spec.branches = 2000;
    const auto base = spec.cells();
    ASSERT_EQ(base.size(), 1u);

    SweepSpec longer = spec;
    longer.branches = 4000;
    EXPECT_NE(base[0].key(), longer.cells()[0].key());

    SweepSpec noRepair = spec;
    noRepair.axes.repairHistory = {false};
    EXPECT_NE(base[0].key(), noRepair.cells()[0].key());

    EXPECT_NE(base[0].hash(), longer.cells()[0].hash());
}

// ------------------------------------------------------ ResultStore

CellResult
sampleResult(const char *key)
{
    CellResult r;
    r.key = key;
    r.hash = 42;
    r.workload = "mm.mpeg";
    r.suite = "MM";
    r.prophet = "perceptron:8KB";
    r.critic = "t.gshare:8KB";
    r.futureBits = 8;
    r.measureBranches = 2000;
    r.committedBranches = 2000;
    r.committedUops = 30000;
    r.finalMispredicts = 111;
    r.prophetMispredicts = 222;
    r.critiques.counts[1] = 7;
    return r;
}

TEST(ResultStore, JsonRoundTrips)
{
    const CellResult r = sampleResult("w=x;p=y");
    const CellResult back = CellResult::fromJson(r.toJson());
    EXPECT_EQ(back.key, r.key);
    EXPECT_EQ(back.hash, r.hash);
    EXPECT_EQ(back.workload, r.workload);
    EXPECT_EQ(back.critic, r.critic);
    EXPECT_EQ(back.futureBits, r.futureBits);
    EXPECT_EQ(back.finalMispredicts, r.finalMispredicts);
    EXPECT_EQ(back.critiques.counts[1], 7u);
    EXPECT_EQ(back.toJson(), r.toJson());
}

TEST(ResultStore, PersistsAndReloads)
{
    const std::string path =
        testing::TempDir() + "pcbp_store_test.jsonl";
    std::remove(path.c_str());
    {
        ResultStore store(path);
        store.put(sampleResult("k1"));
        store.put(sampleResult("k2"));
        EXPECT_EQ(store.size(), 2u);
    }
    ResultStore reload(path);
    EXPECT_EQ(reload.size(), 2u);
    EXPECT_TRUE(reload.has("k1"));
    EXPECT_FALSE(reload.has("k3"));
    ASSERT_NE(reload.find("k2"), nullptr);
    EXPECT_EQ(reload.find("k2")->finalMispredicts, 111u);
    std::remove(path.c_str());
}

TEST(ResultStore, TornFinalLineIsDroppedAndTruncated)
{
    const std::string path =
        testing::TempDir() + "pcbp_torn_test.jsonl";
    std::remove(path.c_str());
    {
        ResultStore store(path);
        store.put(sampleResult("k1"));
    }
    // Simulate a kill mid-append: half a JSON line, no newline.
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"key\":\"k2\",\"hash\":12,\"worklo";
    }
    {
        ResultStore store(path);
        EXPECT_EQ(store.size(), 1u); // torn line dropped
        EXPECT_TRUE(store.has("k1"));
        // The put() that cuts the torn tail back, where its cell
        // reruns, is what warns.
        ScopedLogCapture capture;
        store.put(sampleResult("k2")); // append lands on clean bytes
        const std::vector<std::string> lines = capture.lines();
        ASSERT_EQ(lines.size(), 1u);
        EXPECT_NE(lines[0].find("torn final line"), std::string::npos)
            << lines[0];
    }
    ResultStore reload(path);
    EXPECT_EQ(reload.size(), 2u);
    EXPECT_TRUE(reload.has("k2"));
    std::remove(path.c_str());
}

TEST(ResultStore, UnterminatedFinalLineIsTreatedAsTorn)
{
    // Regression: a write torn exactly at the newline leaves a final
    // line that *parses* but is not terminated. Keeping it used to
    // make the next append concatenate onto it, merging two records
    // into one corrupt line (losing a result and breaking the
    // byte-determinism contract). The line must be dropped and the
    // file truncated, like any other torn tail.
    const std::string path =
        testing::TempDir() + "pcbp_noeol_test.jsonl";
    std::remove(path.c_str());
    {
        ResultStore store(path);
        store.put(sampleResult("k1"));
        store.put(sampleResult("k2"));
    }
    // Strip the trailing newline: k2's line is now unterminated.
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        std::string content = os.str();
        ASSERT_EQ(content.back(), '\n');
        content.pop_back();
        in.close();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << content;
    }
    std::string reference;
    {
        ResultStore store(path);
        EXPECT_EQ(store.size(), 1u); // k2 dropped, will rerun
        EXPECT_TRUE(store.has("k1"));
        EXPECT_FALSE(store.has("k2"));
        store.put(sampleResult("k2")); // the "rerun" lands cleanly
        reference = slurp(path);
    }
    // The repaired file replays completely and stays byte-stable.
    ResultStore reload(path);
    EXPECT_EQ(reload.size(), 2u);
    EXPECT_TRUE(reload.has("k2"));
    EXPECT_EQ(slurp(path), reference);
    std::remove(path.c_str());
}

TEST(ResultStore, OpeningATornStoreLeavesItsBytes)
{
    // A store opened only to read it (`pcbp_sweep status` or
    // `export`, `pcbp_repro render`) must not write: while a run in
    // another process appends, the torn tail it sees can be the line
    // that writer is half way through.
    const std::string path =
        testing::TempDir() + "pcbp_torn_read_test.jsonl";
    std::remove(path.c_str());
    {
        ResultStore store(path);
        store.put(sampleResult("k1"));
        store.put(sampleResult("k2"));
    }
    std::string content = slurp(path);
    const std::size_t first_nl = content.find('\n');
    ASSERT_LT(first_nl + 41, content.size());
    content.resize(first_nl + 41); // k2's line cut after 40 bytes
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << content;
    }
    {
        ScopedLogCapture capture;
        const ResultStore store(path);
        EXPECT_TRUE(capture.lines().empty())
            << "a read-only open reruns nothing, so it must not say so";
        EXPECT_EQ(store.size(), 1u);
        EXPECT_TRUE(store.has("k1"));
        StatRegistry reg;
        store.exportStats(reg);
        EXPECT_NE(reg.toJson().find("\"store.torn_drops\":1"),
                  std::string::npos);
    }
    EXPECT_EQ(slurp(path), content);
    std::remove(path.c_str());
}

TEST(ResultStore, MidFileCorruptionIsFatal)
{
    const std::string path =
        testing::TempDir() + "pcbp_corrupt_test.jsonl";
    std::remove(path.c_str());
    {
        ResultStore store(path);
        store.put(sampleResult("k1"));
        store.put(sampleResult("k2"));
    }
    // Corrupt the FIRST line; valid data after it means this is not
    // an interrupted append, so refuse to guess.
    {
        std::ifstream in(path);
        std::string l1, l2;
        std::getline(in, l1);
        std::getline(in, l2);
        in.close();
        std::ofstream out(path, std::ios::trunc);
        out << l1.substr(0, l1.size() / 2) << "\n" << l2 << "\n";
    }
    EXPECT_EXIT(ResultStore store(path), testing::ExitedWithCode(1),
                "malformed line");
    std::remove(path.c_str());
}

TEST(ResultStore, ExportsCsvWithDerivedColumns)
{
    const std::string csv =
        ResultStore::exportCsv({sampleResult("k1")});
    EXPECT_NE(csv.find("misp_per_kuops"), std::string::npos);
    // 111 mispredicts over 30000 uops = 3.7 misp/Kuops.
    EXPECT_NE(csv.find("3.700000"), std::string::npos);
    EXPECT_NE(csv.find("mm.mpeg,MM,perceptron:8KB,t.gshare:8KB,8"),
              std::string::npos);
}

// ----------------------------------------------------------- Runner

SweepSpec
smallGrid()
{
    SweepSpec spec;
    spec.name = "test-grid";
    spec.axes.prophets = {ProphetKind::Gshare, ProphetKind::Bimodal};
    spec.axes.critics = {std::nullopt, CriticKind::TaggedGshare};
    spec.axes.criticBudgets = {Budget::B2KB};
    spec.axes.futureBits = {4};
    spec.branches = 2000;
    spec.workloads = {"mm.mpeg", "fp.swim"};
    return spec;
}

TEST(Runner, ResumeSkipsCompletedCells)
{
    const SweepSpec spec = smallGrid();
    const std::size_t total = spec.cells().size();
    ASSERT_EQ(total, 8u); // 2 prophets x {none, critic} x 2 workloads

    const std::string path =
        testing::TempDir() + "pcbp_resume_test.jsonl";
    std::remove(path.c_str());

    // "Interrupted" run: only 3 cells land in the store.
    {
        ResultStore store(path);
        SweepRunOptions opt;
        opt.jobs = 1;
        opt.maxCells = 3;
        const SweepRunSummary s = runSweep(spec, store, opt);
        EXPECT_EQ(s.totalCells, total);
        EXPECT_EQ(s.skippedCells, 0u);
        EXPECT_EQ(s.executedCells, 3u);
    }
    // The re-run computes only the delta.
    {
        ResultStore store(path);
        EXPECT_EQ(store.size(), 3u);
        SweepRunOptions opt;
        opt.jobs = 1;
        const SweepRunSummary s = runSweep(spec, store, opt);
        EXPECT_EQ(s.skippedCells, 3u);
        EXPECT_EQ(s.executedCells, total - 3);
        EXPECT_EQ(store.size(), total);
    }
    // A third run is a no-op.
    {
        ResultStore store(path);
        const SweepRunSummary s = runSweep(spec, store, {});
        EXPECT_EQ(s.skippedCells, total);
        EXPECT_EQ(s.executedCells, 0u);
    }
    std::remove(path.c_str());
}

TEST(Runner, JobsDoNotAffectResults)
{
    const SweepSpec spec = smallGrid();
    const std::string p1 = testing::TempDir() + "pcbp_jobs1.jsonl";
    const std::string p4 = testing::TempDir() + "pcbp_jobs4.jsonl";
    std::remove(p1.c_str());
    std::remove(p4.c_str());
    {
        ResultStore store(p1);
        SweepRunOptions opt;
        opt.jobs = 1;
        runSweep(spec, store, opt);
    }
    {
        ResultStore store(p4);
        SweepRunOptions opt;
        opt.jobs = 4;
        runSweep(spec, store, opt);
    }
    // Byte-identical stores — same results, same order — and
    // therefore byte-identical exports.
    EXPECT_EQ(slurp(p1), slurp(p4));
    const ResultStore s1(p1), s4(p4);
    EXPECT_EQ(ResultStore::exportCsv(s1.all()),
              ResultStore::exportCsv(s4.all()));
    EXPECT_EQ(ResultStore::exportJson(s1.all()),
              ResultStore::exportJson(s4.all()));
    std::remove(p1.c_str());
    std::remove(p4.c_str());
}

TEST(Runner, KilledMidGridThenResumedIsByteIdentical)
{
    // The store's full invariant: however a grid's execution is cut
    // up — different --jobs, interruption after any prefix, a kill
    // that tears the final line — the finished JSONL file (and so
    // every export) is byte-identical to an uninterrupted run.
    const SweepSpec spec = smallGrid();
    const std::size_t total = spec.cells().size();

    const std::string ref_path =
        testing::TempDir() + "pcbp_bytes_ref.jsonl";
    std::remove(ref_path.c_str());
    {
        ResultStore store(ref_path);
        SweepRunOptions opt;
        opt.jobs = 1;
        runSweep(spec, store, opt);
    }
    const std::string reference = slurp(ref_path);
    ASSERT_FALSE(reference.empty());

    // Interrupt after every possible prefix length, resume with a
    // different worker count each time.
    const std::string path =
        testing::TempDir() + "pcbp_bytes_cut.jsonl";
    for (std::size_t cut = 1; cut < total; ++cut) {
        std::remove(path.c_str());
        {
            ResultStore store(path);
            SweepRunOptions opt;
            opt.jobs = 1 + unsigned(cut % 4);
            opt.maxCells = cut;
            runSweep(spec, store, opt);
        }
        {
            ResultStore store(path);
            SweepRunOptions opt;
            opt.jobs = 8;
            const SweepRunSummary s = runSweep(spec, store, opt);
            EXPECT_EQ(s.skippedCells, cut);
        }
        EXPECT_EQ(slurp(path), reference) << "cut at " << cut;
    }

    // A kill that tears the final line mid-record: resume must drop
    // the tail, rerun that cell, and still converge byte-identical.
    {
        std::remove(path.c_str());
        std::ofstream out(path, std::ios::binary);
        const std::size_t keep = reference.find('\n', 0) + 1;
        out << reference.substr(0, keep)
            << reference.substr(keep, 40); // torn second line
    }
    {
        ResultStore store(path);
        EXPECT_EQ(store.size(), 1u);
        runSweep(spec, store, {});
    }
    EXPECT_EQ(slurp(path), reference) << "after torn-line resume";

    std::remove(ref_path.c_str());
    std::remove(path.c_str());
}

TEST(Runner, ForkAndReplayStoresMatchCommittedGolden)
{
    // Both execution paths are pinned by a committed artifact, not
    // only by agreement with each other: a grid with a warmup axis
    // (fork chains) and an oracle axis (cells that must replay) has
    // to reproduce the golden store byte for byte with forking on
    // and with it off.
    SweepSpec spec = smallGrid();
    spec.warmups = {400, 1200};
    spec.axes.oracleFutureBits = {false, true};

    const auto storeBytes = [&](bool fork) {
        const std::string path =
            testing::TempDir() + "pcbp_fork_golden.jsonl";
        std::remove(path.c_str());
        {
            ResultStore store(path);
            SweepRunOptions opt;
            opt.jobs = 2;
            opt.fork = fork;
            runSweep(spec, store, opt);
        }
        const std::string bytes = slurp(path);
        std::remove(path.c_str());
        return bytes;
    };

    expectMatchesGolden(storeBytes(true), "sweep_fork_store.jsonl");
    expectMatchesGolden(storeBytes(false), "sweep_fork_store.jsonl");
}

TEST(Runner, InMemoryStoreServesPortedBenches)
{
    SweepSpec spec = smallGrid();
    spec.axes.prophets = {ProphetKind::Gshare};
    ResultStore store;
    runSweep(spec, store);
    // Every cell is retrievable and carries real counters.
    for (const auto &cell : spec.cells()) {
        const EngineStats st = store.statsFor(cell);
        EXPECT_GT(st.committedBranches, 0u) << cell.key();
    }
    // With a critic, override machinery must have engaged somewhere.
    std::uint64_t overrides = 0;
    for (const auto &r : store.all())
        overrides += r.criticOverrides;
    EXPECT_GT(overrides, 0u);
}

TEST(Runner, MissingCellIsFatal)
{
    const SweepSpec spec = smallGrid();
    const ResultStore store;
    EXPECT_EXIT(store.statsFor(spec.cells()[0]),
                testing::ExitedWithCode(1), "no result for cell");
}

SweepSpec
timingGrid()
{
    SweepSpec spec;
    spec.name = "timing-grid";
    spec.timing = true;
    spec.axes.prophets = {ProphetKind::Gshare};
    spec.axes.critics = {std::nullopt, CriticKind::TaggedGshare};
    spec.axes.criticBudgets = {Budget::B2KB};
    spec.axes.futureBits = {4};
    spec.branches = 2000;
    spec.workloads = {"mm.mpeg"};
    return spec;
}

TEST(Runner, TimingGridRunsTheTimingModel)
{
    const SweepSpec spec = timingGrid();
    ResultStore store;
    const SweepRunSummary s = runSweep(spec, store);
    EXPECT_EQ(s.executedCells, 2u);
    for (const auto &cell : spec.cells()) {
        const CellResult *r = store.find(cell.key());
        ASSERT_NE(r, nullptr);
        EXPECT_TRUE(r->timing);
        const TimingStats st = store.timingStatsFor(cell);
        EXPECT_GT(st.cycles, 0u);
        EXPECT_GT(st.fetchedUops, st.committedUops);
        EXPECT_GT(st.upc(), 0.0);
        // Wrong accessor for the mode is a bug in the caller.
        EXPECT_EXIT(store.statsFor(cell), testing::ExitedWithCode(1),
                    "timing stats");
    }
    const double upc =
        meanUpcCells(store, spec.cells(),
                     [](const SweepCell &c) { return !c.spec.critic; });
    EXPECT_GT(upc, 0.0);
}

TEST(Runner, TimingGridMatchesDirectTimingRun)
{
    const SweepSpec spec = timingGrid();
    ResultStore store;
    runSweep(spec, store);
    for (const auto &cell : spec.cells()) {
        const TimingStats direct = runTiming(
            *cell.workload, cell.spec, cell.timingConfig());
        const TimingStats stored = store.timingStatsFor(cell);
        EXPECT_EQ(stored.cycles, direct.cycles) << cell.key();
        EXPECT_EQ(stored.committedUops, direct.committedUops);
        EXPECT_EQ(stored.finalMispredicts, direct.finalMispredicts);
        EXPECT_EQ(stored.fetchedUops, direct.fetchedUops);
    }
}

TEST(Runner, TimingAndAccuracyCellsShareAStoreFile)
{
    const std::string path =
        testing::TempDir() + "pcbp_mixed_store.jsonl";
    std::remove(path.c_str());
    SweepSpec acc = smallGrid();
    acc.axes.prophets = {ProphetKind::Gshare};
    const SweepSpec tim = timingGrid();
    {
        ResultStore store(path);
        runSweep(acc, store);
        runSweep(tim, store);
    }
    // Both kinds replay from disk with their counters intact.
    ResultStore reload(path);
    for (const auto &cell : acc.cells())
        EXPECT_GT(reload.statsFor(cell).committedBranches, 0u);
    for (const auto &cell : tim.cells())
        EXPECT_GT(reload.timingStatsFor(cell).cycles, 0u);
    std::remove(path.c_str());
}

TEST(ResultStore, LoadsStoresWrittenBeforeTheTimingFields)
{
    // Resume compatibility: stores written before the timing-mode /
    // ablation-axis fields existed must keep loading (their cells
    // are all accuracy-mode with default knobs). Regression for a
    // bug where the loader required the new fields, aborting on
    // multi-line legacy stores and truncating single-line ones.
    auto legacyLine = [](const char *key) {
        std::string line = sampleResult(key).toJson();
        for (const char *field :
             {",\"filter_tag_bits\":0", ",\"oracle\":0",
              ",\"timing\":0", ",\"cycles\":0",
              ",\"fetched_uops\":0"}) {
            const auto at = line.find(field);
            EXPECT_NE(at, std::string::npos) << field;
            line.erase(at, std::string(field).size());
        }
        return line;
    };

    CellResult r;
    ASSERT_TRUE(CellResult::tryFromJson(legacyLine("k1"), r));
    EXPECT_FALSE(r.timing);
    EXPECT_FALSE(r.oracleFutureBits);
    EXPECT_EQ(r.filterTagBits, 0u);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.finalMispredicts, 111u);

    const std::string path =
        testing::TempDir() + "pcbp_legacy_store.jsonl";
    std::remove(path.c_str());
    {
        std::ofstream out(path);
        out << legacyLine("k1") << "\n" << legacyLine("k2") << "\n";
    }
    const std::string before = slurp(path);
    {
        ResultStore store(path);
        EXPECT_EQ(store.size(), 2u);
        EXPECT_TRUE(store.has("k1"));
        store.put(sampleResult("k3")); // appends in the new format
    }
    // Nothing was truncated, and the mixed-format file replays.
    EXPECT_EQ(slurp(path).substr(0, before.size()), before);
    const ResultStore reload(path);
    EXPECT_EQ(reload.size(), 3u);
    std::remove(path.c_str());
}

TEST(ResultStore, TimingJsonRoundTrips)
{
    CellResult r = sampleResult("w=m;md=t");
    r.timing = true;
    r.cycles = 123456;
    r.fetchedUops = 98765;
    r.oracleFutureBits = true;
    r.filterTagBits = 6;
    const CellResult back = CellResult::fromJson(r.toJson());
    EXPECT_TRUE(back.timing);
    EXPECT_EQ(back.cycles, 123456u);
    EXPECT_EQ(back.fetchedUops, 98765u);
    EXPECT_TRUE(back.oracleFutureBits);
    EXPECT_EQ(back.filterTagBits, 6u);
    EXPECT_EQ(back.toJson(), r.toJson());
    EXPECT_NEAR(back.upc(), 30000.0 / 123456.0, 1e-12);
}

} // namespace
} // namespace pcbp
