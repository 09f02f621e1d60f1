/**
 * @file
 * Tests for the perf subsystem (src/perf/) and the hot-path
 * optimization pass it measures:
 *
 *  - the BENCH_*.json schema and the Markdown summary are pinned by
 *    goldens built from fixed fake measurements (so the goldens are
 *    byte-deterministic);
 *  - the registry executes: a real (tiny) measurement produces sane
 *    numbers, and filters and lookups find the registered benchmarks;
 *  - the checkpoint-arena SpecCore stays event-identical to the seed
 *    protocol: the commit-event stream of a hybrid engine run is
 *    pinned by a golden, and a deeper-than-the-initial-slab pipeline
 *    (forcing ring growth + wraparound) stays deterministic.
 */

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
