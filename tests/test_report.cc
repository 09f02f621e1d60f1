/**
 * @file
 * Tests for the reproduction/report subsystem: the ReportTable
 * renderers (Markdown/CSV/JSON), the figure registry, and the
 * runRepro pipeline's contracts — goldens for the quick run,
 * byte-determinism across `jobs`, and byte-identical convergence
 * across kill-and-resume boundaries.
 */

#include <cstdio>
#include <filesystem>
#include <set>

#include <gtest/gtest.h>

#include "report/repro.hh"
#include "support.hh"
#include "workload/trace2.hh"

namespace pcbp
{
namespace
{

std::string
tempOut(const char *name)
{
    const std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

// ------------------------------------------------------ ReportTable

TEST(ReportTable, MarkdownEscapesPipes)
{
    ReportTable t("t", "title", {"a|b", "c"});
    t.addNote("a note");
    t.addRow({"x|y", "z"});
    const std::string md = t.toMarkdown();
    EXPECT_NE(md.find("**title**"), std::string::npos);
    EXPECT_NE(md.find("a note"), std::string::npos);
    EXPECT_NE(md.find("a\\|b"), std::string::npos);
    EXPECT_NE(md.find("x\\|y"), std::string::npos);
}

TEST(ReportTable, CsvQuotesSpecialCells)
{
    ReportTable t("t", "the, title", {"col,1", "col\"2", "c"});
    t.addRow({"a,b", "say \"hi\"", "plain"});
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("# t: the, title"), std::string::npos);
    EXPECT_NE(csv.find("\"col,1\",\"col\"\"2\",c"),
              std::string::npos);
    EXPECT_NE(csv.find("\"a,b\",\"say \"\"hi\"\"\",plain"),
              std::string::npos);
}

TEST(ReportTable, JsonEscapesAndStructures)
{
    ReportTable t("id1", "say \"hi\"", {"a"});
    t.addNote("line\nbreak");
    t.addRow({"v\\w"});
    const std::string js = t.toJson();
    EXPECT_NE(js.find("\"title\":\"say \\\"hi\\\"\""),
              std::string::npos);
    EXPECT_NE(js.find("\"notes\":[\"line\\nbreak\"]"),
              std::string::npos);
    EXPECT_NE(js.find("\"rows\":[[\"v\\\\w\"]]"), std::string::npos);
}

TEST(ReportTable, RowWidthMismatchIsFatal)
{
    ReportTable t("t", "title", {"a", "b"});
    EXPECT_EXIT(t.addRow({"only one"}), testing::ExitedWithCode(1),
                "row width");
}

// --------------------------------------------------------- registry

TEST(FigureRegistry, IdsAreUniqueAndResolvable)
{
    std::set<std::string> ids;
    for (const auto &f : allFigures()) {
        EXPECT_TRUE(ids.insert(f.id).second) << "duplicate " << f.id;
        EXPECT_EQ(&figureById(f.id), &f);
        EXPECT_NE(f.sweeps, nullptr);
        EXPECT_NE(f.render, nullptr);
        EXPECT_FALSE(f.claim.empty());
        EXPECT_FALSE(f.expected.empty());
    }
    EXPECT_EXIT(figureById("fig99"), testing::ExitedWithCode(1),
                "unknown figure");
}

TEST(FigureRegistry, SelectionKeepsPaperOrderAndDeduplicates)
{
    const auto all = figuresByIds({"all"});
    EXPECT_EQ(all.size(), allFigures().size());
    const auto picked = figuresByIds({"table4", "fig5", "fig5"});
    ASSERT_EQ(picked.size(), 2u);
    EXPECT_EQ(picked[0]->id, "fig5"); // registry order, not request
    EXPECT_EQ(picked[1]->id, "table4");
    EXPECT_EQ(figuresByIds({}).size(), allFigures().size());
}

TEST(FigureRegistry, EveryFigureAcceptsWorkloadOverrides)
{
    // The ROADMAP contract: any figure runs on any workload grid.
    FigureOptions fo;
    fo.workloads = {"mm.mpeg", "fp.swim"};
    fo.branches = 1500;
    for (const auto &f : allFigures()) {
        ResultStore store;
        for (const auto &spec : f.sweeps(fo)) {
            EXPECT_EQ(spec.resolveWorkloads().size(), 2u) << f.id;
            runSweep(spec, store);
        }
        const auto tables = f.render(fo, store);
        EXPECT_FALSE(tables.empty()) << f.id;
        for (const auto &t : tables)
            EXPECT_FALSE(t.rows().empty()) << f.id << "/" << t.id();
    }
}

// ----------------------------------------------------------- repro

TEST(Repro, QuickRunMatchesGoldens)
{
    // The acceptance pin: `pcbp_repro run --quick` emits REPRO.md and
    // per-figure artifacts that match the checked-in goldens (two
    // figures pinned in all three formats to keep golden churn
    // reviewable; REPRO.md covers every figure's Markdown).
    ReproOptions opts;
    opts.quick = true;
    opts.outDir = tempOut("pcbp_repro_quick");
    const ReproSummary s = runRepro(opts);
    ASSERT_TRUE(s.complete);
    EXPECT_EQ(s.reportPath, opts.outDir + "/REPRO.md");
    expectMatchesGolden(slurp(opts.outDir + "/REPRO.md"),
                        "repro_quick/REPRO.md");
    for (const char *stem :
         {"fig5.csv", "fig5.json", "table4.csv", "table4.json"})
        expectMatchesGolden(slurp(opts.outDir + "/" + stem),
                            std::string("repro_quick/") + stem);
    std::filesystem::remove_all(opts.outDir);
}

TEST(Repro, JobsDoNotAffectAnyArtifact)
{
    auto run = [&](unsigned jobs, const char *name) {
        ReproOptions opts;
        opts.figures = {"fig5"};
        opts.figure.branches = 1500;
        opts.jobs = jobs;
        opts.outDir = tempOut(name);
        const ReproSummary s = runRepro(opts);
        EXPECT_TRUE(s.complete);
        return opts.outDir;
    };
    const std::string a = run(1, "pcbp_repro_j1");
    const std::string b = run(4, "pcbp_repro_j4");
    for (const char *f :
         {"/REPRO.md", "/fig5.csv", "/fig5.json",
          "/store/fig5.jsonl"})
        EXPECT_EQ(slurp(a + f), slurp(b + f)) << f;
    std::filesystem::remove_all(a);
    std::filesystem::remove_all(b);
}

TEST(Repro, KilledMidGridResumesByteIdentical)
{
    ReproOptions ref_opts;
    ref_opts.figures = {"fig5"};
    ref_opts.figure.branches = 1500;
    ref_opts.outDir = tempOut("pcbp_repro_ref");
    ASSERT_TRUE(runRepro(ref_opts).complete);
    const std::string ref_report = slurp(ref_opts.outDir + "/REPRO.md");
    const std::string ref_store =
        slurp(ref_opts.outDir + "/store/fig5.jsonl");

    // Interrupt after a few cells: no report yet, partial store.
    ReproOptions opts = ref_opts;
    opts.outDir = tempOut("pcbp_repro_cut");
    opts.maxCells = 7;
    opts.jobs = 3;
    const ReproSummary cut = runRepro(opts);
    EXPECT_FALSE(cut.complete);
    EXPECT_EQ(cut.executedCells, 7u);
    EXPECT_TRUE(cut.reportPath.empty());
    EXPECT_FALSE(
        std::filesystem::exists(opts.outDir + "/REPRO.md"));

    // The resumed run computes only the delta and converges to the
    // reference bytes, store file included.
    opts.maxCells = 0;
    opts.jobs = 2;
    const ReproSummary resumed = runRepro(opts);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.skippedCells, 7u);
    EXPECT_EQ(slurp(opts.outDir + "/REPRO.md"), ref_report);
    EXPECT_EQ(slurp(opts.outDir + "/store/fig5.jsonl"), ref_store);

    std::filesystem::remove_all(ref_opts.outDir);
    std::filesystem::remove_all(opts.outDir);
}

TEST(Repro, RenderOnlyNeverSimulates)
{
    ReproOptions opts;
    opts.figures = {"fig5"};
    opts.figure.branches = 1500;
    opts.outDir = tempOut("pcbp_repro_render");

    // On an empty store, render-only reports incompleteness.
    ReproOptions render = opts;
    render.renderOnly = true;
    const ReproSummary missing = runRepro(render);
    EXPECT_FALSE(missing.complete);
    EXPECT_EQ(missing.executedCells, 0u);

    // After a real run, render-only reproduces the report bytes.
    ASSERT_TRUE(runRepro(opts).complete);
    const std::string ref = slurp(opts.outDir + "/REPRO.md");
    std::filesystem::remove(opts.outDir + "/REPRO.md");
    const ReproSummary again = runRepro(render);
    EXPECT_TRUE(again.complete);
    EXPECT_EQ(again.executedCells, 0u);
    EXPECT_EQ(slurp(opts.outDir + "/REPRO.md"), ref);
    std::filesystem::remove_all(opts.outDir);
}

TEST(Repro, RenderIntoMissingDirectoryCreatesNothing)
{
    // Render-only never writes a store, so it has no reason to make
    // the directories a run would put them in.
    ReproOptions opts;
    opts.figures = {"fig5"};
    opts.figure.branches = 1500;
    opts.outDir = tempOut("pcbp_repro_render_missing");
    opts.renderOnly = true;
    const ReproSummary s = runRepro(opts);
    EXPECT_FALSE(s.complete);
    EXPECT_EQ(s.skippedCells, 0u);
    EXPECT_FALSE(std::filesystem::exists(opts.outDir));
}

TEST(Repro, TraceWorkloadDrivesAFigure)
{
    // The `trace:<path>` override: record a committed stream, then
    // reproduce a figure against the trace instead of a registry
    // workload.
    const std::string trace =
        testing::TempDir() + "pcbp_repro_trace.pcbptrc2";
    {
        const Workload &w = workloadByName("mm.mpeg");
        Program program = buildProgram(w);
        ProgramWalkStream stream(program, 4000);
        Trace2Writer writer(trace);
        for (std::uint64_t i = 0; i < 4000; ++i) {
            const CommittedBranch *cb = stream.at(i);
            ASSERT_NE(cb, nullptr);
            writer.append(*cb);
            stream.release(i + 1);
        }
        writer.finish();
    }
    FigureOptions fo;
    fo.workloads = {"trace:" + trace};
    fo.branches = 1500;
    const FigureDef &fig = figureById("fig5");
    ResultStore store;
    for (const auto &spec : fig.sweeps(fo))
        runSweep(spec, store);
    const auto tables = fig.render(fo, store);
    ASSERT_EQ(tables.size(), 1u);
    // One workload row plus the AVG row.
    EXPECT_EQ(tables[0].rows().size(), 2u);
    std::remove(trace.c_str());
}

} // namespace
} // namespace pcbp
