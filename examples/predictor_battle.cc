/**
 * @file
 * Predictor battle: run every registered prophet alone at 16KB (the
 * static floors excepted) and the paper's three prophets plus TAGE
 * under both filtered critics at 8KB + 8KB on one workload, and print
 * a leaderboard.
 *
 *   ./predictor_battle [workload]
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "common/stats.hh"
#include "sim/driver.hh"

using namespace pcbp;

int
main(int argc, char **argv)
{
    const std::string workload_name = argc > 1 ? argv[1] : "int.crafty";
    const Workload &w = workloadByName(workload_name);

    std::cout << "=== predictor battle on " << w.name << " (suite "
              << w.suite << ") ===\n\n";

    std::vector<HybridSpec> contenders;
    for (ProphetKind p : allProphetKinds()) {
        // The static predictors are floors, not contenders.
        if (p == ProphetKind::AlwaysTaken ||
            p == ProphetKind::AlwaysNotTaken) {
            continue;
        }
        contenders.push_back(prophetAlone(p, Budget::B16KB));
    }
    for (ProphetKind p : {ProphetKind::Gshare, ProphetKind::GSkew,
                          ProphetKind::Perceptron, ProphetKind::Tage}) {
        contenders.push_back(hybridSpec(p, Budget::B8KB,
                                        CriticKind::TaggedGshare,
                                        Budget::B8KB, 8));
        contenders.push_back(hybridSpec(p, Budget::B8KB,
                                        CriticKind::FilteredPerceptron,
                                        Budget::B8KB, 8));
    }

    struct Row
    {
        std::string name;
        double mpku;
        double rate;
        std::size_t bytes;
    };
    std::vector<Row> rows;
    for (const auto &spec : contenders) {
        const EngineStats st = runAccuracy(w, spec);
        auto hybrid = spec.build();
        rows.push_back({spec.label() + (spec.critic ? " @8fb" : ""),
                        st.mispPerKuops(), st.mispRate(),
                        hybrid->sizeBytes()});
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) { return a.mpku < b.mpku; });

    TablePrinter table({"rank", "predictor", "misp/Kuops", "misp rate",
                        "bytes"});
    int rank = 1;
    for (const auto &r : rows) {
        table.addRow({std::to_string(rank++), r.name,
                      fmtDouble(r.mpku, 3), fmtPercent(r.rate, 2),
                      std::to_string(r.bytes)});
    }
    std::cout << table.str();
    return 0;
}
