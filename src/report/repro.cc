#include "report/repro.hh"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/progress.hh"
#include "obs/span_trace.hh"
#include "obs/stat_registry.hh"

namespace pcbp
{

namespace
{

/** The figure options in effect after quick-mode defaulting. */
FigureOptions
effectiveFigureOptions(const ReproOptions &opts)
{
    FigureOptions fo = opts.figure;
    if (opts.quick && fo.branches == 0)
        fo.branches = kQuickBranches;
    return fo;
}

std::string
joinList(const std::vector<std::string> &items)
{
    std::string s;
    for (const auto &i : items)
        s += (s.empty() ? "" : ",") + i;
    return s;
}

/**
 * The canonical `pcbp_repro run` invocation for these options —
 * embedded in the report so every REPRO.md says how to regenerate
 * itself. Deliberately omits --jobs (no effect on output) and the
 * actual out path (environment-specific).
 */
std::string
canonicalCommand(const std::vector<const FigureDef *> &figures,
                 const ReproOptions &opts)
{
    std::string cmd = "pcbp_repro run --figures ";
    std::vector<std::string> ids;
    for (const FigureDef *f : figures)
        ids.push_back(f->id);
    cmd += ids.size() == allFigures().size() ? "all" : joinList(ids);
    if (!opts.figure.workloads.empty())
        cmd += " --workloads " + joinList(opts.figure.workloads);
    if (opts.figure.branches)
        cmd += " --branches " + std::to_string(opts.figure.branches);
    else if (opts.quick)
        cmd += " --quick";
    cmd += " --out <dir>";
    return cmd;
}

/**
 * GitHub-style heading anchor: lowercase, alphanumerics kept,
 * spaces to dashes, everything else dropped. tools/check_docs.py
 * implements the same rule; keep them in sync.
 */
std::string
slugify(const std::string &heading)
{
    std::string out;
    for (const char c : heading) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += char(std::tolower(static_cast<unsigned char>(c)));
        else if (c == ' ')
            out += '-';
        else if (c == '-' || c == '_')
            out += c;
    }
    return out;
}

std::string
figureHeading(const FigureDef &f)
{
    return f.paperRef + ": " + f.title + " (" + f.id + ")";
}

} // namespace

std::string
renderReproMarkdown(const std::vector<const FigureDef *> &figures,
                    const std::vector<const ResultStore *> &stores,
                    const ReproOptions &opts)
{
    pcbp_assert(figures.size() == stores.size());
    const FigureOptions fo = effectiveFigureOptions(opts);

    std::ostringstream os;
    os << "# REPRO — Prophet/Critic Hybrid Branch Prediction\n\n"
       << "Reproduction report for *Prophet/Critic Hybrid Branch "
          "Prediction* (Falcón, Stark, Ramírez, Lai, Valero — ISCA "
          "2004) on this repository's synthetic workload analogues. "
          "Generated — do not edit; regenerate with the command "
          "below. Per-figure commentary and known deviations live in "
          "`docs/FIGURES.md`.\n\n"
       << "**Command.** `" << canonicalCommand(figures, opts)
       << "`\n\n";

    // ------------------------------------------------- provenance
    std::size_t cells = 0;
    for (std::size_t i = 0; i < figures.size(); ++i)
        for (const auto &spec : figures[i]->sweeps(fo))
            cells += spec.cells().size();

    os << "## Provenance\n\n"
       << "| field | value |\n| :--- | ---: |\n"
       << "| figures | " << figures.size() << " |\n"
       << "| grid cells | " << cells << " |\n"
       << "| workloads | "
       << (fo.defaultWorkloads() ? std::string("figure defaults")
                                 : joinList(fo.workloads))
       << " |\n"
       << "| branches per cell | "
       << (fo.branches ? std::to_string(fo.branches) +
                             (opts.quick ? " (quick)" : "")
                       : std::string("workload defaults"))
       << " |\n"
       << "| PCBP_BENCH_SCALE | " << fmtDouble(benchScale(), 2)
       << " |\n\n"
       << "Output is byte-identical for any `--jobs` value and "
          "across kill/resume boundaries (sweep-runner contract); "
          "deltas versus paper-reported numbers appear as `paper` "
          "columns in the tables.\n\n";

    // --------------------------------------------------- contents
    os << "## Contents\n\n";
    for (const FigureDef *f : figures)
        os << "- [" << figureHeading(*f) << "](#"
           << slugify(figureHeading(*f)) << ")\n";
    os << "\n";

    // ---------------------------------------------------- figures
    for (std::size_t i = 0; i < figures.size(); ++i) {
        const FigureDef &f = *figures[i];
        os << "## " << figureHeading(f) << "\n\n"
           << "**Claim (paper).** " << f.claim << "\n\n"
           << "**Expected on the seed suites.** " << f.expected
           << "\n\n"
           << "**Reproduce.** `pcbp_repro run --figures " << f.id
           << "` — artifacts: `" << f.id << ".csv`, `" << f.id
           << ".json`.\n\n";
        for (const auto &table : f.render(fo, *stores[i]))
            os << table.toMarkdown() << "\n";
    }
    return os.str();
}

ReproSummary
runRepro(const ReproOptions &opts)
{
    namespace fs = std::filesystem;
    const auto figures = figuresByIds(opts.figures);
    const FigureOptions fo = effectiveFigureOptions(opts);

    const fs::path out(opts.outDir);
    const fs::path storeDir = out / "store";
    if (!opts.renderOnly) {
        std::error_code ec;
        fs::create_directories(storeDir, ec);
        if (ec)
            pcbp_fatal("repro: cannot create ", storeDir.string(), ": ",
                       ec.message());
    }

    auto log = [&](const std::string &line) {
        if (opts.log)
            opts.log(line);
    };

    std::unique_ptr<ProgressMeter> meter;
    if (opts.progress && !opts.renderOnly) {
        std::size_t total = 0;
        for (const FigureDef *f : figures)
            for (const auto &spec : f->sweeps(fo))
                total += spec.cells().size();
        meter = std::make_unique<ProgressMeter>(total, "cells");
    }

    ReproSummary summary;
    std::vector<std::unique_ptr<ResultStore>> stores;
    for (const FigureDef *f : figures) {
        const std::string store_path =
            (storeDir / (f->id + ".jsonl")).string();
        auto store = std::make_unique<ResultStore>(store_path);
        const std::uint64_t figStart =
            opts.tracer ? opts.tracer->now() : 0;

        ReproFigureSummary fsum;
        fsum.id = f->id;
        for (const auto &spec : f->sweeps(fo)) {
            const bool budget_spent =
                opts.maxCells &&
                summary.executedCells + fsum.executedCells >=
                    opts.maxCells;
            if (opts.renderOnly || budget_spent) {
                // Count without executing anything.
                const auto cells = spec.cells();
                fsum.totalCells += cells.size();
                for (const auto &cell : cells)
                    if (store->has(cell.key()))
                        ++fsum.skippedCells;
                continue;
            }
            SweepRunOptions run;
            run.jobs = opts.jobs;
            if (opts.maxCells)
                run.maxCells = opts.maxCells - summary.executedCells -
                               fsum.executedCells;
            run.stats = opts.stats;
            run.tracer = opts.tracer;
            run.fork = opts.fork;
            run.onCellDone = [&](const SweepCell &cell,
                                 const CellResult &result) {
                log(f->id + ": " + cell.key());
                if (meter)
                    meter->tick(result.committedBranches);
            };
            const SweepRunSummary s = runSweep(spec, *store, run);
            fsum.totalCells += s.totalCells;
            fsum.executedCells += s.executedCells;
            fsum.skippedCells += s.skippedCells;
            if (meter)
                meter->setResumed(summary.skippedCells +
                                  fsum.skippedCells);
        }
        log(f->id + ": " + std::to_string(fsum.totalCells) +
            " cells (" + std::to_string(fsum.executedCells) +
            " executed, " + std::to_string(fsum.skippedCells) +
            " resumed)");
        if (opts.tracer) {
            opts.tracer->record(f->id, "figure", 0, figStart,
                                opts.tracer->now());
        }
        if (opts.stats)
            store->exportStats(*opts.stats, "store." + f->id);

        summary.totalCells += fsum.totalCells;
        summary.executedCells += fsum.executedCells;
        summary.skippedCells += fsum.skippedCells;
        summary.figures.push_back(std::move(fsum));
        stores.push_back(std::move(store));
    }
    if (meter)
        meter->finish();

    summary.complete =
        summary.skippedCells + summary.executedCells ==
        summary.totalCells;
    if (!summary.complete)
        return summary;

    // ----------------------------------------- render the artifacts
    auto write = [&](const fs::path &path, const std::string &text) {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        if (!f)
            pcbp_fatal("repro: cannot write ", path.string());
        f << text;
    };

    std::vector<const ResultStore *> store_ptrs;
    for (const auto &s : stores)
        store_ptrs.push_back(s.get());

    for (std::size_t i = 0; i < figures.size(); ++i) {
        const auto tables = figures[i]->render(fo, *store_ptrs[i]);
        write(out / (figures[i]->id + ".csv"), tablesToCsv(tables));
        write(out / (figures[i]->id + ".json"),
              tablesToJson(tables));
    }
    const fs::path report = out / "REPRO.md";
    write(report, renderReproMarkdown(figures, store_ptrs, opts));
    summary.reportPath = report.string();
    log("report: " + summary.reportPath);
    return summary;
}

} // namespace pcbp
