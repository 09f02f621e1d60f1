/**
 * @file
 * Front-end demo: run the cycle-level decoupled front-end timing
 * model (Fig. 4 of the paper) and print what the pipeline did —
 * uPC, fetch traffic, FTQ behavior, critic overrides.
 *
 *   ./frontend_demo [workload] [future_bits]
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
    const unsigned fb =
        argc > 2 ? static_cast<unsigned>(parseCountArg(
                       "future_bits", argv[2], futureBitsLimit(true) - 1))
                 : 8;
    const Workload &w = workloadByName(workload_name);

    // The Table 2 machine runTiming simulates; fetch and retire
    // share one width there, so the banner prints it once.
    const TimingConfig tc = timingConfigFor(w);
    static_assert(TimingConfig{}.retireWidth == TimingConfig::fetchWidth);
    std::cout << "=== decoupled front-end on " << w.name
              << " (Fig. 4 architecture) ===\n"
              << "FTQ " << tc.ftqSize << " entries; prophet "
              << tc.prophetBw << " pred/cycle; critic " << tc.criticBw
              << " critique/cycle; fetch/retire " << tc.fetchWidth
              << " uops/cycle;\n"
              << "branches resolve " << tc.resolveDepth
              << " cycles after fetch\n\n";

    const auto baseline = prophetAlone(ProphetKind::GSkew, Budget::B16KB);
    const auto hybrid = hybridSpec(ProphetKind::GSkew, Budget::B8KB,
                                   CriticKind::TaggedGshare,
                                   Budget::B8KB, fb);

    const TimingStats base = runTiming(w, baseline);
    const TimingStats hyb = runTiming(w, hybrid);

    TablePrinter t({"metric", "16KB 2Bc-gskew",
                    "8KB+8KB hybrid @" + std::to_string(fb) + "fb"});
    t.addRow({"uPC", fmtDouble(base.upc(), 3), fmtDouble(hyb.upc(), 3)});
    t.addRow({"cycles", std::to_string(base.cycles),
              std::to_string(hyb.cycles)});
    t.addRow({"committed uops", std::to_string(base.committedUops),
              std::to_string(hyb.committedUops)});
    t.addRow({"fetched uops", std::to_string(base.fetchedUops),
              std::to_string(hyb.fetchedUops)});
    t.addRow({"wrong-path fetched uops",
              std::to_string(base.wrongPathFetchedUops),
              std::to_string(hyb.wrongPathFetchedUops)});
    t.addRow({"pipeline flushes", std::to_string(base.finalMispredicts),
              std::to_string(hyb.finalMispredicts)});
    t.addRow({"uops per flush", fmtDouble(base.uopsPerFlush(), 0),
              fmtDouble(hyb.uopsPerFlush(), 0)});
    t.addRow({"critic overrides", "-",
              std::to_string(hyb.criticOverrides)});
    t.addRow({"FTQ entries flushed by critic", "-",
              std::to_string(hyb.ftqEntriesFlushedByCritic)});
    t.addRow({"partial critiques", "-",
              std::to_string(hyb.partialCritiques)});
    t.addRow({"FTQ-empty cycles", std::to_string(base.ftqEmptyCycles),
              std::to_string(hyb.ftqEmptyCycles)});
    std::cout << t.str();

    std::cout << "\nspeedup: "
              << fmtDouble(100.0 * (hyb.upc() / base.upc() - 1.0), 2)
              << "%\n"
              << "(the paper's Sec. 5 note holds here too: the "
                 "critic's FTQ flushes are almost free\nbecause the "
                 "queue stays full — compare the FTQ-empty cycle "
                 "counts)\n";
    return 0;
}
