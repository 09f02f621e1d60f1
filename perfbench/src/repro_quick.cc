/**
 * @file
 * repro-quick: runRepro over every figure in quick mode with one
 * worker per core into an empty directory, one figure per call, then
 * a second call that resumes over every complete store and re-renders
 * the whole report. Per-cell fixed
 * costs, pool scheduling, store writes and replays, and rendering
 * dominate; no figure uses TAGE.
 */

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>

#include "bench.hh"
#include "obs/span_trace.hh"
#include "obs/stat_registry.hh"
#include "report/repro.hh"

namespace perfbench
{

namespace
{

namespace fs = std::filesystem;

/** One figure cell in this many is re-run outside runRepro when
 *  traced, to split a cell into its parts. */
constexpr std::size_t kSampleStride = 24;

/** Files byte-compared against the committed goldens. */
const std::set<std::string> kGolden = {"REPRO.md", "fig5.csv", "fig5.json",
                                       "table4.csv", "table4.json"};

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** Numeric field @p name ("mb", "wb") of a cell key. */
std::uint64_t
keyField(const std::string &key, const std::string &name)
{
    const std::size_t at = key.find(";" + name + "=");
    if (at == std::string::npos)
        return 0;
    return std::stoull(key.substr(at + name.size() + 2));
}

/** One op per artifact under @p dir: its digest, and for the golden
 *  files whether the bytes match. */
void
checkArtifacts(const fs::path &dir, const std::string &golden_dir,
               std::vector<Op> &ops)
{
    std::vector<fs::path> files;
    for (const auto &e : fs::recursive_directory_iterator(dir))
        if (e.is_regular_file())
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    for (const fs::path &f : files) {
        const std::string rel = fs::relative(f, dir).generic_string();
        Op op;
        op.name = rel;
        op.out = {{"digest", fileDigest(f.string())}};
        if (kGolden.count(rel))
            op.ok = slurp(f) == slurp(fs::path(golden_dir) / rel);
        ops.push_back(std::move(op));
    }
}

/** An op for one runRepro call: its cell counts and time. */
Op
summaryOp(const std::string &name, const pcbp::ReproSummary &s,
          std::uint64_t t0, std::uint64_t t1)
{
    Op op;
    op.name = name;
    op.out = {{"total", s.totalCells},
              {"executed", s.executedCells},
              {"skipped", s.skippedCells}};
    op.ok = s.complete;
    op.seconds = double(t1 - t0) / 1e9;
    return op;
}

/** The sampled figure cells, run one by one with the decorators. */
void
sampleCells(const std::vector<pcbp::SweepCell> &cells, LayerAcc &layers)
{
    for (std::size_t i = 0; i < cells.size(); i += kSampleStride) {
        const pcbp::SweepCell &sc = cells[i];
        const std::uint64_t t0 = nowNs();
        pcbp::Program program = pcbp::buildProgram(*sc.workload);
        layers.buildProgramMs.push_back(double(nowNs() - t0) / 1e6);

        CellDef cell;
        cell.name = sc.key();
        cell.spec = sc.spec;
        cell.timing = sc.timing;
        cell.engine = sc.engineConfig();
        cell.timingCfg = sc.timingConfig();
        pcbp::ProgramWalkStream stream(program, cell.branches());
        runCell(cell, program, stream, &layers, false);
    }
}

/** The resume pass's parts, timed outside runRepro: store replay and
 *  rendering. */
void
timeResumeParts(const fs::path &dir, const pcbp::ReproOptions &ro,
                std::map<std::string, double> &layers)
{
    const auto figures = pcbp::figuresByIds(ro.figures);
    pcbp::FigureOptions fo = ro.figure;
    fo.branches = pcbp::kQuickBranches;

    std::vector<std::unique_ptr<pcbp::ResultStore>> stores;
    const std::uint64_t t0 = nowNs();
    for (const pcbp::FigureDef *f : figures) {
        stores.push_back(std::make_unique<pcbp::ResultStore>(
            (dir / "store" / (f->id + ".jsonl")).string()));
    }
    const std::uint64_t t1 = nowNs();
    std::vector<const pcbp::ResultStore *> ptrs;
    for (std::size_t i = 0; i < figures.size(); ++i) {
        const auto tables = figures[i]->render(fo, *stores[i]);
        pcbp::tablesToCsv(tables);
        pcbp::tablesToJson(tables);
        ptrs.push_back(stores[i].get());
    }
    pcbp::renderReproMarkdown(figures, ptrs, ro);
    const std::uint64_t t2 = nowNs();
    layers["sweep.store_replay_ms"] = double(t1 - t0) / 1e6;
    layers["report.render_ms"] = double(t2 - t1) / 1e6;
}

} // namespace

void
runReproQuick(const Options &opt, Report &report)
{
    pcbp::ReproOptions base;
    base.quick = true;
    base.jobs = opt.jobs;
    pcbp::FigureOptions fo;
    fo.branches = pcbp::kQuickBranches;
    const auto figures = pcbp::figuresByIds(base.figures);

    const std::uint64_t start = nowNs();
    do {
        Pass pass;
        pass.traced = opt.trace && report.passes.size() % 2 == 1;
        const fs::path dir = fs::path(opt.workDir) /
                             ("pass" + std::to_string(report.passes.size()));

        // Set-up, repeated before every pass: what runRepro does before
        // its first cell — an empty store directory and every figure's
        // grid expanded.
        const std::uint64_t s0 = nowNs();
        fs::create_directories(dir / "store");
        std::vector<pcbp::SweepCell> all_cells;
        for (const pcbp::FigureDef *f : figures)
            for (const pcbp::SweepSpec &spec : f->sweeps(fo))
                for (pcbp::SweepCell &c : spec.cells())
                    all_cells.push_back(std::move(c));
        report.setupS.push_back(double(nowNs() - s0) / 1e9);

        pcbp::StatRegistry stats;
        pcbp::SpanTracer tracer;
        std::vector<std::string> keys; // of every executed cell
        pcbp::ReproOptions ro = base;
        ro.outDir = dir.string();
        ro.log = [&](const std::string &line) {
            const std::size_t at = line.find(": w=");
            if (at != std::string::npos)
                keys.push_back(line.substr(at + 2));
        };
        if (pass.traced) {
            ro.stats = &stats;
            ro.tracer = &tracer;
        }

        // The first call runs one figure at a time, so that each
        // figure is timed on its own.
        std::uint64_t fresh_ns = 0;
        for (const pcbp::FigureDef *f : figures) {
            ro.figures = {f->id};
            const std::size_t first_key = keys.size();
            const std::uint64_t t0 = nowNs();
            const pcbp::ReproSummary fresh = pcbp::runRepro(ro);
            const std::uint64_t t1 = nowNs();
            Op op = summaryOp("fresh/" + f->id, fresh, t0, t1);
            for (std::size_t k = first_key; k < keys.size(); ++k) {
                const std::uint64_t branches =
                    keyField(keys[k], "mb") + keyField(keys[k], "wb");
                const bool timing =
                    keys[k].find(";md=t") != std::string::npos;
                (timing ? op.timBranches : op.accBranches) += branches;
            }
            pass.ops.push_back(op);
            fresh_ns += t1 - t0;
        }

        // The second call resumes over every figure's complete store.
        pcbp::ReproOptions resume = base;
        resume.outDir = ro.outDir;
        const std::uint64_t t2 = nowNs();
        const pcbp::ReproSummary resumed = pcbp::runRepro(resume);
        const std::uint64_t t3 = nowNs();
        pass.ops.push_back(summaryOp("resume", resumed, t2, t3));
        checkArtifacts(dir, opt.goldenDir, pass.ops);
        pass.wallS = double(fresh_ns + (t3 - t2)) / 1e9;

        if (pass.traced) {
            const std::string trace_path = opt.workDir + "/spans.json";
            const std::string stats_path = opt.workDir + "/stats.json";
            tracer.writeFile(trace_path);
            stats.writeFiles(stats_path);
            report.files["spans"] = trace_path;
            report.files["stats"] = stats_path;

            LayerAcc layers;
            sampleCells(all_cells, layers);
            pass.layers = layers.metrics();
            timeResumeParts(dir, resume, pass.layers);

            std::uint64_t warmup = 0;
            for (const std::string &key : keys)
                warmup += keyField(key, "wb");
            const std::set<std::string> unique(keys.begin(), keys.end());
            pass.layers["sweep.unique_cell_ratio"] =
                keys.empty() ? 0.0 : double(unique.size()) / double(keys.size());
            pass.layers["sweep.executed_warmup_branches"] = double(warmup);
        }
        fs::remove_all(dir);
        report.passes.push_back(std::move(pass));
    } while (morePasses(report, start, opt.seconds, opt.trace ? 2 : 1));
}

} // namespace perfbench
