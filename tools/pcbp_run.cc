/**
 * @file
 * pcbp_run — run one configuration on one workload.
 *
 * Runs any prophet/critic configuration on any registered workload,
 * or on a recorded trace as `trace:FILE`, through the accuracy engine
 * or the cycle-level timing model, and prints the full statistics.
 * Every run is one driver call (runAccuracy, runTiming, or runH2P
 * under --top) with a sweep cell's default budgets, so at those
 * budgets it prints what the one-cell sweep of the workload stores.
 * This is the tool a downstream user reaches for before writing code
 * against the library.
 *
 *   pcbp_run [options]
 *     --workload NAME        workload (default int.crafty), trace:FILE
 *                            for a PCBPTRC2 trace; LIST lists them
 *     --prophet KIND:BUDGET  e.g. perceptron:8KB (default)
 *     --critic KIND:BUDGET   e.g. t.gshare:8KB; "none" for baseline
 *     --fb N                 future bits (default 8)
 *     --branches N           measured branches (default: the
 *                            workload's, a third of it with --timing)
 *     --warmup N             warmup branches (default: the
 *                            workload's; N/10 with --branches N)
 *     --timing               run the timing model instead
 *     --oracle               oracle future bits (Sec. 6 ablation)
 *     --no-btb               disable the BTB
 *     --top N                H2P report of the top-N mispredicting
 *                            branches
 *     --stats-out FILE       dump the stats registry (pcbp-stats-1),
 *                            with the `h2p.*` section under --top
 *
 * --oracle and --top need the accuracy engine; given with --timing
 * (in either order) they exit 1 naming the flag. --fb and --oracle
 * need a critic, and exit 1 the same way with --critic none.
 */

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "common/cli_parse.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/stat_registry.hh"
#include "sim/driver.hh"

using namespace pcbp;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " [options]\n"
        << "  --workload NAME | trace:FILE | LIST (default int.crafty)\n"
        << "  --prophet KIND:BUDGET    (default perceptron:8KB)\n"
        << "  --critic KIND:BUDGET|none (default t.gshare:8KB)\n"
        << "  --fb N                   future bits (default 8)\n"
        << "  --branches N             measured branches\n"
        << "  --warmup N               warmup branches\n"
        << "  --timing                 cycle-level timing model\n"
        << "  --oracle                 oracle future bits (ablation)\n"
        << "  --no-btb                 disable the BTB\n"
        << "  --top N                  H2P report, top-N branches\n"
        << "  --stats-out FILE         stats registry dump\n";
    std::exit(2);
}

/** Split "kind:budget" (budget optional, default 8KB). */
std::pair<std::string, Budget>
splitSpec(const std::string &s)
{
    const auto colon = s.find(':');
    if (colon == std::string::npos)
        return {s, Budget::B8KB};
    return {s.substr(0, colon), parseBudget(s.substr(colon + 1))};
}

/** --branches N measures N after N/10 of warmup; --warmup overrides. */
template <typename Config>
void
applyBudget(Config &cfg, std::uint64_t branches,
            const std::optional<std::uint64_t> &warmup)
{
    if (branches) {
        cfg.measureBranches = branches;
        cfg.warmupBranches = branches / 10;
    }
    if (warmup)
        cfg.warmupBranches = *warmup;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "int.crafty";
    std::string prophet = "perceptron:8KB";
    std::string critic = "t.gshare:8KB";
    std::optional<std::string> fb_arg;
    std::string stats_out;
    std::uint64_t branches = 0;
    std::optional<std::uint64_t> warmup;
    bool timing = false, oracle = false, no_btb = false;
    std::size_t top = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--workload")
            workload = next();
        else if (arg == "--prophet")
            prophet = next();
        else if (arg == "--critic")
            critic = next();
        else if (arg == "--fb")
            fb_arg = next();
        else if (arg == "--branches")
            branches = parseCountArg<std::uint64_t>(arg, next());
        else if (arg == "--warmup")
            warmup = parseCountArg<std::uint64_t>(arg, next());
        else if (arg == "--timing")
            timing = true;
        else if (arg == "--oracle")
            oracle = true;
        else if (arg == "--no-btb")
            no_btb = true;
        else if (arg == "--top")
            top = parseCountArg<std::size_t>(arg, next());
        else if (arg == "--stats-out")
            stats_out = next();
        else
            usage(argv[0]);
    }
    // Bounded only now: --timing may follow --fb.
    const auto fb = static_cast<unsigned>(parseCountArg(
        "--fb", fb_arg.value_or("8"), futureBitsLimit(timing) - 1));
    if (timing && oracle)
        pcbp_fatal("--oracle needs the accuracy engine; the timing "
                   "model has no oracle mode");
    if (timing && top > 0)
        pcbp_fatal("--top profiles the accuracy engine; drop --timing");
    if (critic == "none" && fb_arg)
        pcbp_fatal("--fb sets the critic's future bits; --critic none "
                   "has no critic");
    if (critic == "none" && oracle)
        pcbp_fatal("--oracle feeds the critic; --critic none has no "
                   "critic");

    if (workload == "LIST") {
        TablePrinter t({"workload", "suite", "static branches",
                        "sim branches"});
        for (const auto &w : allWorkloads())
            t.addRow({w.name, w.suite,
                      std::to_string(w.recipe.targetBlocks),
                      std::to_string(w.simBranches)});
        std::cout << t.str();
        return 0;
    }

    const Workload &w = workloadByName(workload);

    HybridSpec spec;
    {
        const auto [pk, pb] = splitSpec(prophet);
        spec.prophet = parseProphetKind(pk);
        spec.prophetBudget = pb;
    }
    if (critic != "none") {
        const auto [ck, cb] = splitSpec(critic);
        spec.critic = parseCriticKind(ck);
        spec.criticBudget = cb;
        spec.futureBits = fb;
    }

    std::cout << "workload: " << w.name << " (suite " << w.suite
              << "); predictor: " << spec.label()
              << (spec.critic ? " @" + std::to_string(fb) + "fb" : "")
              << "\n\n";

    StatRegistry reg;
    StatRegistry *const stats = stats_out.empty() ? nullptr : &reg;

    if (timing) {
        TimingConfig cfg = timingConfigFor(w);
        applyBudget(cfg, branches, warmup);
        cfg.useBtb = !no_btb;
        cfg.statsOut = stats;
        const TimingStats st = runTiming(w, spec, cfg);
        TablePrinter t({"metric", "value"});
        t.addRow({"uPC", fmtDouble(st.upc(), 3)});
        t.addRow({"cycles", std::to_string(st.cycles)});
        t.addRow({"committed uops", std::to_string(st.committedUops)});
        t.addRow({"fetched uops", std::to_string(st.fetchedUops)});
        t.addRow({"wrong-path fetched uops",
                  std::to_string(st.wrongPathFetchedUops)});
        t.addRow({"pipeline flushes",
                  std::to_string(st.finalMispredicts)});
        t.addRow({"uops per flush", fmtDouble(st.uopsPerFlush(), 0)});
        t.addRow({"critic overrides",
                  std::to_string(st.criticOverrides)});
        t.addRow({"partial critiques",
                  std::to_string(st.partialCritiques)});
        std::cout << t.str();
    } else {
        EngineConfig cfg = engineConfigFor(w);
        applyBudget(cfg, branches, warmup);
        cfg.oracleFutureBits = oracle;
        cfg.useBtb = !no_btb;
        cfg.statsOut = stats;

        EngineStats st;
        std::optional<H2PReport> report;
        if (top > 0) {
            H2PConfig h2p;
            h2p.topN = top;
            report = runH2P(w, spec, cfg, h2p, &st);
        } else {
            st = runAccuracy(w, spec, cfg);
        }

        TablePrinter t({"metric", "value"});
        t.addRow({"committed branches",
                  std::to_string(st.committedBranches)});
        t.addRow({"committed uops", std::to_string(st.committedUops)});
        t.addRow({"misp/Kuops", fmtDouble(st.mispPerKuops(), 3)});
        t.addRow({"mispredict rate", fmtPercent(st.mispRate(), 2)});
        t.addRow({"prophet mispredict rate",
                  fmtPercent(st.prophetMispRate(), 2)});
        t.addRow({"uops per flush", fmtDouble(st.uopsPerFlush(), 0)});
        t.addRow({"BTB misses", std::to_string(st.btbMisses)});
        t.addRow({"critic overrides",
                  std::to_string(st.criticOverrides)});
        t.addRow({"squashed FTQ predictions",
                  std::to_string(st.squashedPredictions)});
        t.addRow({"wrong-path uops", std::to_string(st.wrongPathUops)});
        t.addRow({"partial critiques",
                  std::to_string(st.partialCritiques)});
        std::cout << t.str();

        if (spec.critic) {
            std::cout << "\ncritique distribution:\n";
            TablePrinter ct({"class", "count"});
            for (std::size_t c = 0; c < numCritiqueClasses; ++c) {
                const auto cls = static_cast<CritiqueClass>(c);
                ct.addRow({critiqueClassName(cls),
                           std::to_string(st.critiques.get(cls))});
            }
            std::cout << ct.str();
        }
        if (report)
            std::cout << "\n" << report->render();
    }

    if (stats) {
        reg.writeFiles(stats_out);
        std::cout << "stats: " << stats_out << "\n";
    }
    return 0;
}
