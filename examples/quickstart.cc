/**
 * @file
 * Quickstart: build a prophet/critic hybrid from the paper's Table 3
 * presets, run it on a synthetic workload through the wrong-path
 * engine, and compare it with the prophet scaled to the same total
 * budget — the paper's core comparison.
 *
 *   ./quickstart [workload] [future_bits]
 */

#include <iostream>

#include "common/cli_parse.hh"
#include "common/stats.hh"
#include "sim/driver.hh"

using namespace pcbp;

int
main(int argc, char **argv)
{
    const std::string workload_name = argc > 1 ? argv[1] : "int.crafty";
    const unsigned future_bits =
        argc > 2 ? static_cast<unsigned>(parseCountArg(
                       "future_bits", argv[2], futureBitsLimit(false) - 1))
                 : 8;

    const Workload &w = workloadByName(workload_name);
    std::cout << "workload: " << w.name << " (suite " << w.suite
              << ", ~" << w.recipe.targetBlocks << " static branches)\n";

    // Baseline: a conventional 16KB perceptron predictor.
    const HybridSpec baseline =
        prophetAlone(ProphetKind::Perceptron, Budget::B16KB);

    // Contender: 8KB perceptron prophet + 8KB tagged gshare critic —
    // same total budget, plus future bits.
    const HybridSpec contender =
        hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, future_bits);

    const EngineStats base = runAccuracy(w, baseline);
    const EngineStats hyb = runAccuracy(w, contender);

    TablePrinter t({"predictor", "misp/Kuops", "misp rate",
                    "uops/flush"});
    t.addRow({baseline.label(), fmtDouble(base.mispPerKuops(), 3),
              fmtPercent(base.mispRate(), 2),
              fmtDouble(base.uopsPerFlush(), 0)});
    t.addRow({contender.label() + " @" + std::to_string(future_bits) +
                  "fb",
              fmtDouble(hyb.mispPerKuops(), 3),
              fmtPercent(hyb.mispRate(), 2),
              fmtDouble(hyb.uopsPerFlush(), 0)});
    std::cout << t.str();

    std::cout << "mispredict reduction: "
              << fmtDouble(pctReduction(base.mispPerKuops(),
                                        hyb.mispPerKuops()),
                           1)
              << "%\n";
    return 0;
}
