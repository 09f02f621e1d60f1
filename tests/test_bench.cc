/**
 * @file
 * Tests for the perf subsystem (src/perf/) and the hot-path
 * optimization pass it measures:
 *
 *  - the BENCH_*.json schema is pinned by a golden built from fixed
 *    fake measurements (so the golden is byte-deterministic) and the
 *    parser round-trips what the writer emits;
 *  - `compare` regression-threshold logic: within-threshold drops
 *    pass, beyond-threshold drops gate, improvements and one-sided
 *    benchmarks never gate, incomparable runs are flagged;
 *  - the registry executes: a real (tiny) measurement produces sane
 *    numbers, and the committed quick baseline names exactly the
 *    registered benchmarks;
 *  - the checkpoint-arena SpecCore stays event-identical to the seed
 *    protocol: the commit-event stream of a hybrid engine run is
 *    pinned by a golden, and a deeper-than-the-initial-slab pipeline
 *    (forcing ring growth + wraparound) stays deterministic.
 */

#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "perf/bench_report.hh"
#include "sim/driver.hh"
#include "support.hh"

namespace pcbp
{
namespace
{

/** A BenchResult with fixed fake numbers (schema tests only). */
BenchResult
fakeResult(const std::string &name, const std::string &group,
           double ns_median, std::uint64_t items)
{
    BenchResult r;
    r.name = name;
    r.group = group;
    r.unit = "item";
    r.m.repeats = 5;
    r.m.itemsPerRep = items;
    r.m.nsMedian = ns_median;
    r.m.nsMin = ns_median * 0.9;
    r.m.nsMax = ns_median * 1.25;
    r.m.cyclesMedian = ns_median * 2.0;
    return r;
}

BenchRun
fakeRun(std::vector<BenchResult> results)
{
    BenchRun run;
    run.name = "fake";
    run.quick = false;
    run.scale = 1.0;
    run.repeats = 5;
    run.results = std::move(results);
    return run;
}

TEST(BenchReport, JsonSchemaGolden)
{
    const BenchRun run = fakeRun({
        fakeResult("engine.hybrid_tgshare", "engine", 5.0e8, 1550000),
        fakeResult("pred.\"quoted\"", "predictor", 2.5e7, 2000000),
    });
    expectMatchesGolden(benchRunToJson(run), "bench_schema.json");
}

TEST(BenchReport, MarkdownSummaryGolden)
{
    const BenchRun run = fakeRun(
        {fakeResult("engine.hybrid_tgshare", "engine", 5.0e8, 1550000)});
    expectMatchesGolden(benchRunTable(run).toMarkdown(),
                        "bench_summary.md");
}

TEST(BenchReport, JsonRoundTrips)
{
    const BenchRun run = fakeRun({
        fakeResult("engine.hybrid_tgshare", "engine", 5.0e8, 1550000),
        fakeResult("pred.gshare", "predictor", 2.5e7, 2000000),
        // Escaped quotes/backslashes must survive the round trip.
        fakeResult("pred.\"q\\uoted\"", "predictor", 1.0e7, 500000),
    });
    const BenchRun parsed = benchRunFromJson(benchRunToJson(run));
    ASSERT_EQ(parsed.results.size(), run.results.size());
    EXPECT_EQ(parsed.name, "fake");
    EXPECT_FALSE(parsed.quick);
    EXPECT_DOUBLE_EQ(parsed.scale, 1.0);
    EXPECT_EQ(parsed.repeats, 5u);
    for (std::size_t i = 0; i < run.results.size(); ++i) {
        EXPECT_EQ(parsed.results[i].name, run.results[i].name);
        EXPECT_EQ(parsed.results[i].group, run.results[i].group);
        EXPECT_EQ(parsed.results[i].unit, run.results[i].unit);
        EXPECT_EQ(parsed.results[i].m.itemsPerRep,
                  run.results[i].m.itemsPerRep);
        EXPECT_DOUBLE_EQ(parsed.results[i].m.nsMedian,
                         run.results[i].m.nsMedian);
    }
}

TEST(BenchReport, RejectsUnknownSchema)
{
    EXPECT_DEATH(
        benchRunFromJson("{\"schema\": \"pcbp-bench-9\", \"name\": "
                         "\"x\", \"benchmarks\": []}"),
        "unsupported schema");
}

TEST(BenchCompare, ThresholdLogic)
{
    // Baseline 100 Mitems/s; current rows at -5%, -15%, and +20%.
    const BenchRun base = fakeRun({
        fakeResult("a", "g", 1.0e9, 100000000),
        fakeResult("b", "g", 1.0e9, 100000000),
        fakeResult("c", "g", 1.0e9, 100000000),
    });
    const BenchRun cur = fakeRun({
        fakeResult("a", "g", 1.0e9 / 0.95, 100000000),
        fakeResult("b", "g", 1.0e9 / 0.85, 100000000),
        fakeResult("c", "g", 1.0e9 / 1.20, 100000000),
    });

    const BenchComparison cmp = compareBenchRuns(base, cur, 0.10);
    EXPECT_FALSE(cmp.incomparable);
    ASSERT_EQ(cmp.deltas.size(), 3u);

    EXPECT_NEAR(cmp.deltas[0].delta, -0.05, 1e-9);
    EXPECT_FALSE(cmp.deltas[0].regression); // within threshold
    EXPECT_NEAR(cmp.deltas[1].delta, -0.15, 1e-9);
    EXPECT_TRUE(cmp.deltas[1].regression); // beyond threshold
    EXPECT_NEAR(cmp.deltas[2].delta, 0.20, 1e-9);
    EXPECT_FALSE(cmp.deltas[2].regression); // improvement
    EXPECT_TRUE(cmp.regressed);

    // A tighter threshold flips the -5% row too.
    EXPECT_TRUE(compareBenchRuns(base, cur, 0.04).deltas[0].regression);
    // A looser one passes everything.
    EXPECT_FALSE(compareBenchRuns(base, cur, 0.20).regressed);
}

TEST(BenchCompare, OneSidedBenchmarksNeverGate)
{
    const BenchRun base =
        fakeRun({fakeResult("gone", "g", 1.0e9, 1000)});
    const BenchRun cur = fakeRun({fakeResult("new", "g", 1.0e9, 1000)});
    const BenchComparison cmp = compareBenchRuns(base, cur, 0.10);
    EXPECT_FALSE(cmp.regressed);
    ASSERT_EQ(cmp.deltas.size(), 2u);
    EXPECT_TRUE(cmp.deltas[0].missingBaseline); // "new"
    EXPECT_TRUE(cmp.deltas[1].missingCurrent);  // "gone"
}

TEST(BenchCompare, JsonSummaryIncludesOneSidedBenchmarks)
{
    // "kept" is on both sides (a regression at -15%), "gone" only in
    // the baseline, "new" only in the current run. The JSON summary
    // must carry all three — the one-sided rows used to exist only
    // as stderr lines, which a CI artifact can't capture.
    const BenchRun base = fakeRun({
        fakeResult("kept", "g", 1.0e9, 100000000),
        fakeResult("gone", "g", 1.0e9, 1000),
    });
    const BenchRun cur = fakeRun({
        fakeResult("kept", "g", 1.0e9 / 0.85, 100000000),
        fakeResult("new", "g", 1.0e9, 1000),
    });
    const BenchComparison cmp = compareBenchRuns(base, cur, 0.10);
    const std::string json = benchComparisonToJson(cmp, 0.10);

    EXPECT_NE(json.find("\"schema\": \"pcbp-bench-compare-1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"mismatched\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"regressed\": true"), std::string::npos);
    // Both one-sided rows are present and flagged.
    EXPECT_NE(json.find("\"name\": \"new\", \"baseline\": 0.000"),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"gone\""), std::string::npos);
    EXPECT_NE(json.find("\"missing_baseline\": true"),
              std::string::npos);
    EXPECT_NE(json.find("\"missing_current\": true"),
              std::string::npos);

    // The full document is schema-pinned by a golden (fixed fake
    // numbers keep it byte-deterministic).
    expectMatchesGolden(json, "bench_compare_schema.json");
}

TEST(BenchCompare, MismatchedModesAreFlagged)
{
    BenchRun base = fakeRun({fakeResult("a", "g", 1.0e9, 1000)});
    BenchRun cur = base;
    cur.quick = true;
    EXPECT_TRUE(compareBenchRuns(base, cur, 0.10).incomparable);
    cur.quick = base.quick;
    cur.scale = 0.5;
    EXPECT_TRUE(compareBenchRuns(base, cur, 0.10).incomparable);
    EXPECT_FALSE(compareBenchRuns(base, base, 0.10).incomparable);
}

TEST(BenchRegistry, TinyMeasurementRuns)
{
    BenchContext ctx;
    ctx.quick = true;
    ctx.repeats = 1;
    const BenchResult r = runBench(benchByName("pred.gshare"), ctx);
    EXPECT_EQ(r.group, "predictor");
    EXPECT_GT(r.m.itemsPerRep, 0u);
    EXPECT_GT(r.m.nsMedian, 0.0);
    EXPECT_GT(r.m.throughput(), 0.0);
    EXPECT_EQ(r.m.nsMin, r.m.nsMax); // one repetition
}

TEST(BenchRegistry, FilterAndLookup)
{
    EXPECT_FALSE(benchesMatching("").empty());
    EXPECT_EQ(benchesMatching("engine.hybrid").size(), 2u);
    // Comma-separated filters match any listed substring.
    EXPECT_EQ(benchesMatching("engine.hybrid,timing.").size(), 3u);
    EXPECT_EQ(benchByName("engine.hybrid_tgshare").group, "engine");
    EXPECT_DEATH(benchByName("engine.nope"), "unknown benchmark");
}

TEST(BenchRegistry, QuickBaselineNamesEveryRegisteredBenchmark)
{
    // Every CI compare runs --warn-only, so nothing else notices when
    // a benchmark enters or leaves the registry without its baseline
    // row (docs/PERFORMANCE.md).
    const BenchRun base = loadBenchRun(
        PCBP_TEST_GOLDEN_DIR
        "/../../bench/baselines/BENCH_quick_baseline.json");
    std::set<std::string> baseline, registry;
    for (const BenchResult &r : base.results)
        baseline.insert(r.name);
    for (const BenchDef &d : allBenches())
        registry.insert(d.name);
    EXPECT_EQ(baseline, registry);
}

/** Records every commit event into a deterministic FNV-1a hash. */
class HashingSink : public CommitSink
{
  public:
    void
    onCommit(const CommitEvent &e) override
    {
        mix(e.index);
        mix(e.block);
        mix(e.pc);
        mix(e.numUops);
        mix((std::uint64_t(e.btbHit) << 5) |
            (std::uint64_t(e.prophetPred) << 4) |
            (std::uint64_t(e.finalPred) << 3) |
            (std::uint64_t(e.critiqueProvided) << 2) |
            (std::uint64_t(e.criticOverrode) << 1) |
            std::uint64_t(e.outcome));
        ++events;
    }

    std::uint64_t hash = 1469598103934665603ULL;
    std::uint64_t events = 0;

  private:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 1099511628211ULL;
        }
    }
};

/**
 * The checkpoint-arena SpecCore must produce the exact commit-event
 * stream the seed protocol produced (the golden was recorded against
 * the seed-equivalent engine; see DESIGN.md §9).
 */
TEST(ArenaRegression, HybridCommitEventsMatchSeedGolden)
{
    const Workload &w = workloadByName("mm.mpeg");
    HashingSink sink;
    EngineConfig cfg;
    cfg.warmupBranches = 2000;
    cfg.measureBranches = 20000;
    cfg.commitSink = &sink;
    const EngineStats st = runAccuracy(
        w,
        hybridSpec(ProphetKind::Gshare, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8),
        cfg);

    std::ostringstream os;
    os << "workload=" << w.name << "\n"
       << "events=" << sink.events << "\n"
       << "event_hash=" << sink.hash << "\n"
       << "finalMispredicts=" << st.finalMispredicts << "\n"
       << "criticOverrides=" << st.criticOverrides << "\n"
       << "squashedPredictions=" << st.squashedPredictions << "\n";
    expectMatchesGolden(os.str(), "bench_arena_events.txt");
}

/**
 * A pipeline deeper than the arena's initial slab forces growth and
 * ring wraparound mid-run; the run must complete and stay
 * bit-deterministic.
 */
TEST(ArenaRegression, DeepPipelineGrowsSlabDeterministically)
{
    const Workload &w = workloadByName("int.crafty");
    EngineConfig cfg;
    cfg.pipelineDepth = 100; // > the 64-record initial slab
    cfg.warmupBranches = 500;
    cfg.measureBranches = 5000;

    const HybridSpec spec =
        hybridSpec(ProphetKind::Gshare, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8);
    const EngineStats a = runAccuracy(w, spec, cfg);
    const EngineStats b = runAccuracy(w, spec, cfg);

    EXPECT_EQ(a.committedBranches, 5000u);
    EXPECT_EQ(a.committedBranches, b.committedBranches);
    EXPECT_EQ(a.finalMispredicts, b.finalMispredicts);
    EXPECT_EQ(a.committedUops, b.committedUops);
    EXPECT_EQ(a.criticOverrides, b.criticOverrides);
    EXPECT_EQ(a.wrongPathUops, b.wrongPathUops);
}

} // namespace
} // namespace pcbp
