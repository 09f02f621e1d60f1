/**
 * @file
 * engine-long: independent long cells back to back on one thread,
 * each with its own warmup, over a small-footprint program (mm.mpeg)
 * and a large one (serv.tpcc). Nearly all time goes to the
 * predictors, the spec core and the simulators.
 */

#include "bench.hh"

namespace perfbench
{

namespace
{

/**
 * Cells run at the registry budgets divided by this (still ~30x a
 * quick repro cell): shorter passes give each cell more timed passes
 * per run, which is what steadies its fastest-pass time.
 */
constexpr std::uint64_t kBudgetDivisor = 2;

std::vector<CellDef>
engineLongCells(const pcbp::Workload &w)
{
    using pcbp::Budget;
    using pcbp::CriticKind;
    using pcbp::ProphetKind;

    std::vector<CellDef> cells;
    const auto add = [&](const pcbp::HybridSpec &spec, bool timing) {
        CellDef c;
        c.name = w.name + (timing ? "|timing|" : "|accuracy|") + spec.label();
        c.spec = spec;
        c.timing = timing;
        c.engine = pcbp::engineConfigFor(w);
        c.engine.measureBranches /= kBudgetDivisor;
        c.engine.warmupBranches /= kBudgetDivisor;
        c.timingCfg = pcbp::timingConfigFor(w);
        c.timingCfg.measureBranches /= kBudgetDivisor;
        c.timingCfg.warmupBranches /= kBudgetDivisor;
        cells.push_back(std::move(c));
    };
    for (const ProphetKind k :
         {ProphetKind::Gshare, ProphetKind::Perceptron, ProphetKind::Tage}) {
        add(pcbp::prophetAlone(k, Budget::B8KB), false);
        add(pcbp::hybridSpec(k, Budget::B8KB, CriticKind::TaggedGshare,
                             Budget::B8KB, 8),
            false);
    }
    add(pcbp::hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                         CriticKind::FilteredPerceptron, Budget::B8KB, 8),
        false);
    for (const ProphetKind k : {ProphetKind::Perceptron, ProphetKind::Tage}) {
        add(pcbp::hybridSpec(k, Budget::B8KB, CriticKind::TaggedGshare,
                             Budget::B8KB, 8),
            true);
    }
    return cells;
}

} // namespace

void
runEngineLong(const Options &opt, Report &report)
{
    // Every cell runs on its own program. At the default seed those
    // are copies of the registry program; at any other seed each is a
    // distinct re-seeding, so one run samples eighteen programs and no
    // single program's luck sets the figures.
    std::vector<CellDef> cells;
    std::vector<pcbp::Workload> workloads;
    for (const char *name : {"mm.mpeg", "serv.tpcc"}) {
        const std::vector<CellDef> recipe_cells =
            engineLongCells(pcbp::workloadByName(name));
        for (std::size_t v = 0; v < recipe_cells.size(); ++v) {
            cells.push_back(recipe_cells[v]);
            workloads.push_back(seededWorkload(name, opt.seed, v));
        }
    }

    const std::uint64_t start = nowNs();
    do {
        Pass pass;
        pass.traced = opt.trace && report.passes.size() % 2 == 1;
        LayerAcc layers;

        // Set-up, repeated before every pass: build every program.
        std::vector<pcbp::Program> programs;
        const std::uint64_t s0 = nowNs();
        for (const pcbp::Workload &w : workloads) {
            const std::uint64_t b0 = nowNs();
            programs.push_back(pcbp::buildProgram(w));
            layers.buildProgramMs.push_back(double(nowNs() - b0) / 1e6);
        }
        report.setupS.push_back(double(nowNs() - s0) / 1e9);

        const std::uint64_t t0 = nowNs();
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const std::uint64_t c0 = nowNs();
            pcbp::ProgramWalkStream stream(programs[i], cells[i].branches());
            Op op = runCell(cells[i], programs[i], stream,
                            pass.traced ? &layers : nullptr, false);
            op.seconds = double(nowNs() - c0) / 1e9;
            pass.ops.push_back(std::move(op));
        }
        pass.wallS = double(nowNs() - t0) / 1e9;
        if (pass.traced)
            pass.layers = layers.metrics();
        report.passes.push_back(std::move(pass));
    } while (morePasses(report, start, opt.seconds, opt.trace ? 2 : 1));
}

} // namespace perfbench
