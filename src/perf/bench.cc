#include "perf/bench.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/presets.hh"
#include "predictors/factory.hh"
#include "report/figure.hh"
#include "sim/driver.hh"
#include "sweep/runner.hh"

namespace pcbp
{

MeasureOptions
BenchContext::measureOptions() const
{
    MeasureOptions opt;
    opt.repeats = repeats ? repeats : (quick ? 3u : 5u);
    opt.warmupReps = 1;
    return opt;
}

namespace
{

/** Micro-bench iteration count (quick mode and PCBP_BENCH_SCALE). */
std::uint64_t
microIters(const BenchContext &ctx)
{
    const double base = ctx.quick ? 200000.0 : 2000000.0;
    return std::max<std::uint64_t>(
        scaleCount(base, benchScale(), "micro-bench iterations"), 10000);
}

/**
 * Deterministic (pc, outcome, history) stimulus for the micro
 * benches: 4096 static branches, 60% taken, history fed with the
 * outcomes.
 */
struct Stimulus
{
    explicit Stimulus(std::uint64_t seed) : rng(seed) {}

    void
    step()
    {
        pc = 0x400000 + (rng.nextBelow(4096) << 4);
        outcome = rng.nextBool(0.6);
        hist.shiftIn(outcome);
    }

    Rng rng;
    Addr pc = 0x400000;
    bool outcome = false;
    HistoryRegister hist;
};

std::uint64_t
prophetBody(ProphetKind kind, const BenchContext &ctx)
{
    auto pred = makeProphet(kind, Budget::B8KB);
    Stimulus s(42);
    const std::uint64_t iters = microIters(ctx);
    for (std::uint64_t i = 0; i < iters; ++i) {
        s.step();
        // The lookup cannot be dead-code-eliminated: predictors
        // are reached through the factory's opaque vtable.
        (void)pred->predict(s.pc, s.hist);
        pred->update(s.pc, s.hist, s.outcome);
    }
    return iters;
}

std::uint64_t
criticBody(CriticKind kind, const BenchContext &ctx)
{
    auto critic = makeCritic(kind, Budget::B8KB);
    Stimulus s(43);
    const std::uint64_t iters = microIters(ctx);
    for (std::uint64_t i = 0; i < iters; ++i) {
        s.step();
        const CritiqueResult r = critic->critique(s.pc, s.hist);
        critic->train(s.pc, s.hist, s.outcome, !r.provided);
    }
    return iters;
}

std::uint64_t
hybridEventBody(const BenchContext &ctx)
{
    auto hybrid = hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                             CriticKind::TaggedGshare, Budget::B8KB, 8)
                      .build();
    Stimulus s(44);
    FutureBits fb;
    const std::uint64_t iters = microIters(ctx);
    for (std::uint64_t i = 0; i < iters; ++i) {
        s.step();
        BranchContext bctx;
        const bool pred = hybrid->predictBranch(s.pc, bctx);
        fb.clear();
        for (unsigned b = 0; b < 8; ++b)
            fb.push(b == 0 ? pred : s.rng.nextBool(0.5));
        CritiqueDecision d;
        hybrid->critiqueBranch(s.pc, bctx, pred, fb, d);
        hybrid->commitBranch(s.pc, bctx, d, s.outcome);
    }
    return iters;
}

const Workload &
benchWorkload(const BenchContext &ctx)
{
    return workloadByName(ctx.workload.empty() ? "mm.mpeg"
                                               : ctx.workload);
}

/**
 * Committed branches one repetition of an engine.* / timing.* bench
 * simulates: its budget, or a trace: workload's whole file when that
 * is shorter (such a workload's default run length is its record
 * count).
 */
std::uint64_t
benchBranches(const Workload &w, std::uint64_t budget)
{
    return w.suite == "TRACE"
               ? std::min(budget, w.warmupBranches + w.simBranches)
               : budget;
}

/**
 * One accuracy-engine repetition through the driver: fresh program,
 * predictor and engine, run to the branch budget. Returns total
 * committed branches (warmup included — the engine loop runs them
 * all).
 */
std::uint64_t
engineBody(const HybridSpec &spec, const BenchContext &ctx)
{
    const Workload &w = benchWorkload(ctx);
    EngineConfig cfg;
    cfg.warmupBranches = scaleCount(ctx.quick ? 5000.0 : 50000.0,
                                    benchScale(), "engine bench budget");
    cfg.measureBranches = scaleCount(ctx.quick ? 60000.0 : 1500000.0,
                                     benchScale(), "engine bench budget");
    cfg.warmupBranches = std::max<std::uint64_t>(cfg.warmupBranches, 100);
    cfg.measureBranches =
        std::max<std::uint64_t>(cfg.measureBranches, 1000);
    runAccuracy(w, spec, cfg);
    return benchBranches(w, cfg.warmupBranches + cfg.measureBranches);
}

/** One timing-model repetition; returns total committed branches. */
std::uint64_t
timingBody(const HybridSpec &spec, const BenchContext &ctx)
{
    const Workload &w = benchWorkload(ctx);
    TimingConfig cfg = timingConfigFor(w);
    cfg.warmupBranches = scaleCount(ctx.quick ? 3000.0 : 20000.0,
                                    benchScale(), "timing bench budget");
    cfg.measureBranches = scaleCount(ctx.quick ? 30000.0 : 400000.0,
                                     benchScale(), "timing bench budget");
    cfg.warmupBranches = std::max<std::uint64_t>(cfg.warmupBranches, 100);
    cfg.measureBranches =
        std::max<std::uint64_t>(cfg.measureBranches, 1000);
    runTiming(w, spec, cfg);
    return benchBranches(w, cfg.warmupBranches + cfg.measureBranches);
}

/** One sweep-grid repetition through the real runner (in-memory). */
std::uint64_t
sweepBody(const BenchContext &ctx)
{
    SweepSpec spec;
    spec.name = "perf-grid";
    spec.axes.prophets = {ProphetKind::Gshare};
    spec.axes.critics = {std::nullopt, CriticKind::TaggedGshare};
    spec.workloads = {benchWorkload(ctx).name};
    spec.branches = ctx.quick ? 10000 : 100000;

    ResultStore store; // in-memory: each repetition recomputes
    SweepRunOptions opt;
    opt.jobs = 1;
    const SweepRunSummary s = runSweep(spec, store, opt);
    return s.executedCells;
}

/**
 * The shared-warmup ladder grid both fork benches run: one
 * configuration, ten warmup budgets, a small fixed measured window —
 * the grid shape fork-based execution optimizes (DESIGN.md §11).
 * Work items are the grid's total branches Σ(wb+mb), identical for
 * both benches, so the fork/replay throughput ratio is exactly the
 * wall-clock ratio.
 */
SweepSpec
forkLadderSpec(const BenchContext &ctx)
{
    SweepSpec spec;
    spec.name = "perf-fork-ladder";
    spec.axes.prophets = {ProphetKind::Gshare};
    spec.axes.critics = {CriticKind::TaggedGshare};
    spec.workloads = {benchWorkload(ctx).name};
    spec.branches = 1000;
    const std::uint64_t unit = ctx.quick ? 5000 : 50000;
    for (std::uint64_t i = 1; i <= 10; ++i)
        spec.warmups.push_back(i * unit);
    return spec;
}

std::uint64_t
forkLadderBody(const BenchContext &ctx, bool fork)
{
    const SweepSpec spec = forkLadderSpec(ctx);
    ResultStore store; // in-memory: each repetition recomputes
    SweepRunOptions opt;
    opt.jobs = 1;
    opt.fork = fork;
    runSweep(spec, store, opt);
    std::uint64_t branches = 0;
    for (const SweepCell &cell : spec.cells())
        branches += cell.warmupBranches + cell.measureBranches;
    return branches;
}

/** One quick-scale repro-figure repetition: sweeps + render. */
std::uint64_t
reproBody(const BenchContext &ctx)
{
    const FigureDef &fig = figureById("fig5");
    FigureOptions fo;
    fo.branches = ctx.quick ? 1000 : 4000;

    ResultStore store;
    SweepRunOptions opt;
    opt.jobs = 1;
    std::uint64_t cells = 0;
    for (const SweepSpec &spec : fig.sweeps(fo)) {
        const SweepRunSummary s = runSweep(spec, store, opt);
        cells += s.executedCells;
    }
    for (const ReportTable &t : fig.render(fo, store))
        (void)t.toMarkdown();
    return cells;
}

std::vector<BenchDef>
buildRegistry()
{
    std::vector<BenchDef> defs;

    for (ProphetKind kind : allProphetKinds()) {
        defs.push_back(
            {"pred." + prophetKindName(kind), "predictor",
             "lookup+update of " + prophetKindName(kind) +
                 " (8KB) on the 4096-branch stimulus mix",
             "pred", [kind](const BenchContext &ctx) {
                 return prophetBody(kind, ctx);
             }});
    }
    for (CriticKind kind : allCriticKinds()) {
        defs.push_back(
            {"critic." + criticKindName(kind), "critic",
             "critique+train of " + criticKindName(kind) +
                 " (8KB) on the 4096-branch stimulus mix",
             "critique", [kind](const BenchContext &ctx) {
                 return criticBody(kind, ctx);
             }});
    }

    defs.push_back({"hybrid.event_path", "hybrid",
                    "full predict/critique/commit-train event path of "
                    "the 8KB perceptron + t.gshare hybrid (fb=8)",
                    "event", hybridEventBody});

    defs.push_back({"engine.gshare", "engine",
                    "Engine committed-branch throughput, prophet-alone "
                    "8KB gshare",
                    "branch", [](const BenchContext &ctx) {
                        return engineBody(
                            prophetAlone(ProphetKind::Gshare,
                                         Budget::B8KB),
                            ctx);
                    }});
    defs.push_back({"engine.perceptron", "engine",
                    "Engine committed-branch throughput, prophet-alone "
                    "8KB perceptron",
                    "branch", [](const BenchContext &ctx) {
                        return engineBody(
                            prophetAlone(ProphetKind::Perceptron,
                                         Budget::B8KB),
                            ctx);
                    }});
    defs.push_back(
        {"engine.hybrid_tgshare", "engine",
         "Engine committed-branch throughput, 8KB gshare + 8KB "
         "t.gshare hybrid (fb=8) — the headline hot-path number",
         "branch", [](const BenchContext &ctx) {
             return engineBody(
                 hybridSpec(ProphetKind::Gshare, Budget::B8KB,
                            CriticKind::TaggedGshare, Budget::B8KB, 8),
                 ctx);
         }});
    defs.push_back(
        {"engine.hybrid_perceptron", "engine",
         "Engine committed-branch throughput, 8KB perceptron + 8KB "
         "t.gshare hybrid (fb=8)",
         "branch", [](const BenchContext &ctx) {
             return engineBody(
                 hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                            CriticKind::TaggedGshare, Budget::B8KB, 8),
                 ctx);
         }});

    defs.push_back(
        {"timing.hybrid_tgshare", "timing",
         "TimingSim committed-branch throughput, 8KB gshare + 8KB "
         "t.gshare hybrid (fb=8)",
         "branch", [](const BenchContext &ctx) {
             return timingBody(
                 hybridSpec(ProphetKind::Gshare, Budget::B8KB,
                            CriticKind::TaggedGshare, Budget::B8KB, 8),
                 ctx);
         }});

    defs.push_back({"sweep.grid", "sweep",
                    "wall-clock of a 2-cell sweep grid through the "
                    "sweep runner (jobs=1, in-memory store)",
                    "cell", sweepBody});
    defs.push_back({"sweep.replay_grid", "sweep",
                    "10-cell shared-warmup ladder grid with forking "
                    "disabled: every cell is a fork chain of its own "
                    "and simulates its full warmup (jobs=1, in-memory "
                    "store)",
                    "branch", [](const BenchContext &ctx) {
                        return forkLadderBody(ctx, false);
                    }});
    defs.push_back({"sweep.fork_grid", "sweep",
                    "the same ladder grid with fork-based execution "
                    "(DESIGN.md §11): one canonical simulation per "
                    "config, cloned at each snapshot; items match "
                    "replay_grid, so the throughput ratio is the "
                    "wall-clock ratio",
                    "branch", [](const BenchContext &ctx) {
                        return forkLadderBody(ctx, true);
                    }});
    defs.push_back({"repro.fig5", "repro",
                    "wall-clock of the fig5 reproduction at quick "
                    "scale: sweeps + render (jobs=1, in-memory store)",
                    "cell", reproBody});

    return defs;
}

} // namespace

const std::vector<BenchDef> &
allBenches()
{
    static const std::vector<BenchDef> defs = buildRegistry();
    return defs;
}

const BenchDef &
benchByName(const std::string &name)
{
    for (const BenchDef &d : allBenches())
        if (d.name == name)
            return d;
    std::string known;
    for (const BenchDef &d : allBenches())
        known += (known.empty() ? "" : ", ") + d.name;
    pcbp_fatal("unknown benchmark '", name, "'; known: ", known);
}

std::vector<const BenchDef *>
benchesMatching(const std::string &filter)
{
    // Comma-separated substrings, any-match ("engine.,timing.").
    std::vector<std::string> needles;
    std::size_t pos = 0;
    while (pos <= filter.size()) {
        const std::size_t comma = filter.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? filter.size() : comma;
        if (end > pos)
            needles.push_back(filter.substr(pos, end - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }

    std::vector<const BenchDef *> out;
    for (const BenchDef &d : allBenches()) {
        bool match = needles.empty();
        for (const std::string &n : needles)
            match = match || d.name.find(n) != std::string::npos;
        if (match)
            out.push_back(&d);
    }
    return out;
}

BenchResult
runBench(const BenchDef &def, const BenchContext &ctx)
{
    BenchResult r;
    r.name = def.name;
    r.group = def.group;
    r.unit = def.unit;
    MeasureOptions opt = ctx.measureOptions();
    opt.tracer = ctx.tracer;
    opt.spanName = def.name;
    r.m = measureRepeated([&] { return def.body(ctx); }, opt);
    return r;
}

std::vector<BenchResult>
runBenches(const std::vector<const BenchDef *> &defs,
           const BenchContext &ctx)
{
    std::vector<BenchResult> out;
    out.reserve(defs.size());
    for (const BenchDef *d : defs) {
        std::fprintf(stderr, "running %s...\n", d->name.c_str());
        out.push_back(runBench(*d, ctx));
    }
    return out;
}

} // namespace pcbp
