/**
 * @file
 * The figure definitions: Figures 5-10, Table 4, the headline
 * claims, and the design-choice ablations, each as declarative sweep
 * grids plus a store-to-tables render — the registry behind
 * pcbp_repro.
 *
 * Porting notes versus the paper: each definition's `claim` states
 * the paper's numbers; the tables carry "paper" columns so REPRO.md
 * shows the reproduced value next to the reported one. Deviations of
 * the synthetic substrate are documented in docs/FIGURES.md and
 * DESIGN.md §2-§3.
 */

#include "report/figure.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/timing.hh"

namespace pcbp
{

namespace
{

/** The figure's default selectors unless the caller overrode them. */
std::vector<std::string>
sel(const FigureOptions &opts, std::vector<std::string> defaults)
{
    return opts.defaultWorkloads() ? std::move(defaults)
                                   : opts.workloads;
}

/** One workload selector per suite (paper: one LIT per benchmark). */
std::vector<std::string>
onePerSuite()
{
    std::vector<std::string> out;
    for (const auto &suite : allSuites())
        out.push_back(suiteWorkloads(suite).front()->name);
    return out;
}

/** Resolve one selector the way SweepSpec does. */
std::vector<const Workload *>
resolveSelector(const std::string &selector)
{
    SweepSpec probe;
    probe.workloads = {selector};
    return probe.resolveWorkloads();
}

bool
inSet(const std::vector<const Workload *> &set, const Workload *w)
{
    return std::find(set.begin(), set.end(), w) != set.end();
}

/** Start a sweep with one prophet/critic pair on every cell. */
SweepSpec
baseSpec(const std::string &name, const FigureOptions &opts,
         std::vector<std::string> default_workloads)
{
    SweepSpec s;
    s.name = name;
    s.workloads = sel(opts, std::move(default_workloads));
    s.branches = opts.branches;
    return s;
}

std::string
pct(double base, double now)
{
    return fmtDouble(pctReduction(base, now), 1) + "%";
}

/** Append one "N fb" column header per future-bit count. */
void
addFbHeaders(std::vector<std::string> &headers,
             const std::vector<unsigned> &future_bits)
{
    for (unsigned fb : future_bits)
        headers.push_back(std::to_string(fb) + " fb");
}

/**
 * Headers of a uPC table over a prophet-alone sweep and its hybrid
 * sweep: the baseline, one column per future-bit count, and the
 * speedup at the largest count.
 */
std::vector<std::string>
upcHeaders(const std::string &first, const SweepSpec &base,
           const SweepSpec &hyb)
{
    std::vector<std::string> headers = {
        first, budgetName(base.axes.prophetBudgets.at(0)) + " alone"};
    addFbHeaders(headers, hyb.axes.futureBits);
    headers.push_back("speedup @" +
                      std::to_string(hyb.axes.futureBits.back()) + "fb");
    return headers;
}

/** One upcHeaders() row: the uPCs of the cells @p in_row selects. */
std::vector<std::string>
upcRow(const std::string &label, const ResultStore &store,
       const std::vector<SweepCell> &cells, const SweepSpec &hyb,
       const std::function<bool(const SweepCell &)> &in_row)
{
    const double alone =
        meanUpcCells(store, cells, [&](const SweepCell &c) {
            return in_row(c) && !c.spec.critic;
        });
    std::vector<std::string> row = {label, fmtDouble(alone, 3)};
    double upc = 0;
    for (unsigned fb : hyb.axes.futureBits) {
        upc = meanUpcCells(store, cells, [&](const SweepCell &c) {
            return in_row(c) && c.spec.critic && c.spec.futureBits == fb;
        });
        row.push_back(fmtDouble(upc, 3));
    }
    row.push_back(fmtDouble(100.0 * (upc / alone - 1.0), 1) + "%");
    return row;
}

// ------------------------------------------------------------- fig5

std::vector<SweepSpec>
fig5Sweeps(const FigureOptions &opts)
{
    SweepSpec s = baseSpec("fig5", opts, {"FIG5"});
    s.axes.prophets = {ProphetKind::Perceptron};
    s.axes.prophetBudgets = {Budget::B8KB};
    s.axes.critics = {CriticKind::TaggedGshare};
    s.axes.criticBudgets = {Budget::B8KB};
    s.axes.futureBits = {0, 1, 4, 8, 12};
    return {s};
}

std::vector<ReportTable>
fig5Render(const FigureOptions &opts, const ResultStore &store)
{
    const SweepSpec s = fig5Sweeps(opts)[0];
    const auto cells = s.cells();
    const auto set = s.resolveWorkloads();
    const std::vector<unsigned> &future_bits = s.axes.futureBits;

    auto misp = [&](const Workload *w, unsigned fb) {
        for (const auto &cell : cells)
            if (cell.workload == w && cell.spec.futureBits == fb)
                return store.statsFor(cell).mispPerKuops();
        pcbp_fatal("fig5: no cell for ", w->name, " @", fb, "fb");
    };

    // The per-benchmark shapes of the paper's Fig. 5 plot, in the
    // fig5Set order; only meaningful for the default set.
    const std::vector<std::string> shapes = {
        "keeps improving to 12", "front-loaded at 1", "peaks near 8",
        "peaks near 4",          "insensitive",       "only 1 helps",
    };
    const bool annotate =
        opts.defaultWorkloads() && set.size() == shapes.size();

    std::vector<std::string> headers = {"benchmark"};
    addFbHeaders(headers, future_bits);
    if (annotate)
        headers.push_back("paper shape");
    ReportTable t("fig5", "mispredict rate vs. number of future bits",
                  headers);
    t.addNote("prophet: 8KB perceptron; critic: 8KB tagged gshare");
    t.addNote("metric: misp/Kuops (final mispredicts per 1000 "
              "committed uops)");

    std::vector<std::vector<double>> per_bench(set.size());
    for (std::size_t wi = 0; wi < set.size(); ++wi) {
        std::vector<std::string> row = {set[wi]->name};
        for (unsigned fb : future_bits) {
            const double m = misp(set[wi], fb);
            per_bench[wi].push_back(m);
            row.push_back(fmtDouble(m, 3));
        }
        if (annotate)
            row.push_back(shapes[wi]);
        t.addRow(row);
    }

    std::vector<std::string> avg_row = {"AVG"};
    for (std::size_t f = 0; f < future_bits.size(); ++f) {
        double sum = 0;
        for (const auto &v : per_bench)
            sum += v[f];
        avg_row.push_back(
            fmtDouble(sum / double(per_bench.size()), 3));
    }
    if (annotate)
        avg_row.push_back("1 fb cuts ~15%");
    t.addRow(avg_row);
    return {t};
}

// ------------------------------------------------------------- fig6

struct Fig6Panel
{
    const char *id;
    const char *title;
    ProphetKind prophet;
    CriticKind critic;
};

const Fig6Panel fig6Panels[] = {
    {"fig6a", "(a) prophet: 2Bc-gskew; critic: perceptron (unfiltered)",
     ProphetKind::GSkew, CriticKind::UnfilteredPerceptron},
    {"fig6b", "(b) prophet: gshare; critic: filtered perceptron",
     ProphetKind::Gshare, CriticKind::FilteredPerceptron},
    {"fig6c", "(c) prophet: perceptron; critic: tagged gshare",
     ProphetKind::Perceptron, CriticKind::TaggedGshare},
};

std::vector<SweepSpec>
fig6Sweeps(const FigureOptions &opts)
{
    std::vector<SweepSpec> out;
    for (const auto &p : fig6Panels) {
        SweepSpec s = baseSpec(std::string("fig6-") + p.id, opts,
                               {"AVG"});
        s.axes.prophets = {p.prophet};
        s.axes.prophetBudgets = {Budget::B4KB, Budget::B16KB};
        s.axes.critics = {std::nullopt, p.critic};
        s.axes.criticBudgets = {Budget::B2KB, Budget::B8KB,
                                Budget::B32KB};
        s.axes.futureBits = {1, 4, 8, 12};
        out.push_back(std::move(s));
    }
    return out;
}

std::vector<ReportTable>
fig6Render(const FigureOptions &opts, const ResultStore &store)
{
    const auto sweeps = fig6Sweeps(opts);

    std::vector<ReportTable> out;
    for (std::size_t pi = 0; pi < sweeps.size(); ++pi) {
        const SweepAxes &axes = sweeps[pi].axes;
        const auto cells = sweeps[pi].cells();
        std::vector<std::string> headers = {"configuration",
                                            "no critic"};
        addFbHeaders(headers, axes.futureBits);
        ReportTable t(fig6Panels[pi].id, fig6Panels[pi].title, headers);
        t.addNote("metric: misp/Kuops averaged over the workload set");
        for (Budget pb : axes.prophetBudgets) {
            const double alone =
                aggregateCells(store, cells,
                               [&](const SweepCell &c) {
                                   return c.spec.prophetBudget == pb &&
                                          !c.spec.critic;
                               })
                    .mispPerKuops;
            for (Budget cb : axes.criticBudgets) {
                std::vector<std::string> row = {
                    budgetName(pb) + " prophet + " + budgetName(cb) +
                        " critic",
                    fmtDouble(alone, 3)};
                for (unsigned fb : axes.futureBits) {
                    const double m =
                        aggregateCells(
                            store, cells,
                            [&](const SweepCell &c) {
                                return c.spec.prophetBudget == pb &&
                                       c.spec.critic &&
                                       c.spec.criticBudget == cb &&
                                       c.spec.futureBits == fb;
                            })
                            .mispPerKuops;
                    row.push_back(fmtDouble(m, 3));
                }
                t.addRow(row);
            }
        }
        out.push_back(std::move(t));
    }
    return out;
}

// ------------------------------------------------------------- fig7

std::vector<SweepSpec>
fig7Sweeps(const FigureOptions &opts)
{
    const std::vector<ProphetKind> prophets = {
        ProphetKind::Gshare, ProphetKind::GSkew,
        ProphetKind::Perceptron};
    std::vector<SweepSpec> out;
    for (const auto &[total, half] :
         {std::pair{Budget::B16KB, Budget::B8KB},
          std::pair{Budget::B32KB, Budget::B16KB}}) {
        SweepSpec base = baseSpec("fig7-" + budgetName(total) +
                                      "-baseline",
                                  opts, {"AVG"});
        base.axes.prophets = prophets;
        base.axes.prophetBudgets = {total};
        base.axes.critics = {std::nullopt};
        out.push_back(base);

        SweepSpec hyb = baseSpec("fig7-" + budgetName(total) +
                                     "-hybrid",
                                 opts, {"AVG"});
        hyb.axes.prophets = prophets;
        hyb.axes.prophetBudgets = {half};
        hyb.axes.critics = {CriticKind::FilteredPerceptron,
                            CriticKind::TaggedGshare};
        hyb.axes.criticBudgets = {half};
        hyb.axes.futureBits = {8};
        out.push_back(hyb);
    }
    return out;
}

std::vector<ReportTable>
fig7Render(const FigureOptions &opts, const ResultStore &store)
{
    const auto sweeps = fig7Sweeps(opts);

    // The sweeps come in (baseline, hybrid) pairs, one per budget.
    std::vector<ReportTable> out;
    for (std::size_t bi = 0; bi < sweeps.size(); bi += 2) {
        const SweepAxes &base = sweeps[bi].axes;
        const SweepAxes &hybrid = sweeps[bi + 1].axes;
        const Budget total = base.prophetBudgets.at(0);
        const Budget half = hybrid.prophetBudgets.at(0);
        auto cells = sweeps[bi].cells();
        const auto hyb_cells = sweeps[bi + 1].cells();
        cells.insert(cells.end(), hyb_cells.begin(), hyb_cells.end());

        ReportTable t("fig7-" + budgetName(total),
                      budgetName(total) + " total budget",
                      {"predictor", "misp/Kuops", "reduction"});
        t.addNote("metric: misp/Kuops averaged over the workload "
                  "set; paper reductions: 15-31%");
        for (ProphetKind p : base.prophets) {
            const double conv =
                aggregateCells(store, cells,
                               [&](const SweepCell &c) {
                                   return c.spec.prophet == p &&
                                          c.spec.prophetBudget ==
                                              total &&
                                          !c.spec.critic;
                               })
                    .mispPerKuops;
            t.addRow({budgetName(total) + " " + prophetKindName(p),
                      fmtDouble(conv, 3), "(baseline)"});

            for (const std::optional<CriticKind> &critic :
                 hybrid.critics) {
                const CriticKind c = critic.value();
                const double hyb =
                    aggregateCells(
                        store, cells,
                        [&](const SweepCell &k) {
                            return k.spec.prophet == p &&
                                   k.spec.prophetBudget == half &&
                                   k.spec.critic &&
                                   *k.spec.critic == c;
                        })
                        .mispPerKuops;
                t.addRow({budgetName(half) + " " +
                              prophetKindName(p) + " + " +
                              budgetName(half) + " " +
                              criticKindName(c),
                          fmtDouble(hyb, 3), pct(conv, hyb)});
            }
        }
        out.push_back(std::move(t));
    }
    return out;
}

// ------------------------------------------------------------- fig8

std::vector<SweepSpec>
fig8Sweeps(const FigureOptions &opts)
{
    SweepSpec s = baseSpec("fig8", opts, {"AVG"});
    s.axes.prophets = {ProphetKind::Perceptron};
    s.axes.prophetBudgets = {Budget::B4KB};
    s.axes.critics = {CriticKind::TaggedGshare};
    s.axes.criticBudgets = {Budget::B8KB};
    s.axes.futureBits = {1, 4, 8, 12};
    return {s};
}

std::vector<ReportTable>
fig8Render(const FigureOptions &opts, const ResultStore &store)
{
    const SweepSpec s = fig8Sweeps(opts)[0];
    const auto cells = s.cells();

    std::vector<CritiqueCounts> dist;
    std::vector<std::uint64_t> totals;
    for (unsigned fb : s.axes.futureBits) {
        const auto agg =
            aggregateCells(store, cells, [&](const SweepCell &c) {
                return c.spec.futureBits == fb;
            });
        dist.push_back(agg.critiques);
        totals.push_back(agg.critiques.explicitTotal());
    }

    std::vector<std::string> headers = {"critique class"};
    addFbHeaders(headers, s.axes.futureBits);
    headers.push_back("paper trend 1->12");
    ReportTable t("fig8", "distribution of critiques", headers);
    t.addNote("prophet: 4KB perceptron; critic: 8KB tagged gshare");
    t.addNote("counts summed over the workload set; filter misses "
              "(implicit agrees) excluded, as in the paper");

    const struct
    {
        CritiqueClass cls;
        const char *trend;
    } rows[] = {
        {CritiqueClass::CorrectAgree, "majority, falls with total"},
        {CritiqueClass::IncorrectDisagree, "grows (~+20%)"},
        {CritiqueClass::IncorrectAgree, "shrinks (~-43%)"},
        {CritiqueClass::CorrectDisagree, "shrinks (~-40%)"},
    };
    for (const auto &r : rows) {
        std::vector<std::string> row = {critiqueClassName(r.cls)};
        for (const auto &d : dist)
            row.push_back(std::to_string(d.get(r.cls)));
        row.push_back(r.trend);
        t.addRow(row);
    }
    std::vector<std::string> total_row = {"total explicit critiques"};
    for (auto v : totals)
        total_row.push_back(std::to_string(v));
    total_row.push_back("falls as fb grows");
    t.addRow(total_row);
    return {t};
}

// ----------------------------------------------------------- table4

std::vector<SweepSpec>
table4Sweeps(const FigureOptions &opts)
{
    SweepSpec s = baseSpec("table4", opts, {"AVG"});
    s.axes.prophets = {ProphetKind::Perceptron};
    s.axes.prophetBudgets = {Budget::B4KB};
    s.axes.critics = {CriticKind::TaggedGshare};
    s.axes.criticBudgets = {Budget::B2KB, Budget::B8KB,
                            Budget::B32KB};
    s.axes.futureBits = {1, 4, 12};
    return {s};
}

std::vector<ReportTable>
table4Render(const FigureOptions &opts, const ResultStore &store)
{
    const SweepSpec s = table4Sweeps(opts)[0];
    const auto cells = s.cells();
    const std::vector<Budget> &critic_sizes = s.axes.criticBudgets;
    const std::vector<unsigned> &future_bits = s.axes.futureBits;

    std::vector<std::string> headers = {"row"};
    for (Budget cb : critic_sizes)
        for (unsigned fb : future_bits)
            headers.push_back(budgetName(cb) + "/" +
                              std::to_string(fb) + "fb");
    ReportTable t("table4",
                  "percentage of prophet predictions filtered by the "
                  "critic",
                  headers);
    t.addNote("prophet: 4KB perceptron; critic: tagged gshare; "
              "averaged over the workload set");
    t.addNote("paper: total %none is ~66-78 and generally rises with "
              "future bits; incorrect_none stays ~0.4-1.3 and falls "
              "with critic size");

    std::vector<std::string> row_cn = {"% correct_none"};
    std::vector<std::string> row_in = {"% incorrect_none"};
    std::vector<std::string> row_tot = {"% none (total)"};
    for (Budget cb : critic_sizes) {
        for (unsigned fb : future_bits) {
            const auto agg =
                aggregateCells(store, cells, [&](const SweepCell &c) {
                    return c.spec.criticBudget == cb &&
                           c.spec.futureBits == fb;
                });
            const double total =
                static_cast<double>(agg.critiques.total());
            const double cn =
                100.0 *
                double(agg.critiques.get(CritiqueClass::CorrectNone)) /
                total;
            const double in =
                100.0 *
                double(
                    agg.critiques.get(CritiqueClass::IncorrectNone)) /
                total;
            row_cn.push_back(fmtDouble(cn, 1));
            row_in.push_back(fmtDouble(in, 1));
            row_tot.push_back(fmtDouble(cn + in, 1));
        }
    }
    t.addRow(row_cn);
    t.addRow(row_in);
    t.addRow(row_tot);
    return {t};
}

// ------------------------------------------------------------- fig9

std::vector<SweepSpec>
fig9Sweeps(const FigureOptions &opts)
{
    const std::vector<ProphetKind> prophets = {
        ProphetKind::Gshare, ProphetKind::GSkew,
        ProphetKind::Perceptron};

    SweepSpec base = baseSpec("fig9-baseline", opts, onePerSuite());
    base.timing = true;
    base.axes.prophets = prophets;
    base.axes.prophetBudgets = {Budget::B16KB};
    base.axes.critics = {std::nullopt};

    SweepSpec hyb = baseSpec("fig9-hybrid", opts, onePerSuite());
    hyb.timing = true;
    hyb.axes.prophets = prophets;
    hyb.axes.prophetBudgets = {Budget::B8KB};
    hyb.axes.critics = {CriticKind::TaggedGshare};
    hyb.axes.criticBudgets = {Budget::B8KB};
    hyb.axes.futureBits = {4, 8, 12};
    return {base, hyb};
}

std::vector<ReportTable>
fig9Render(const FigureOptions &opts, const ResultStore &store)
{
    const auto sweeps = fig9Sweeps(opts);
    auto cells = sweeps[0].cells();
    const auto hyb_cells = sweeps[1].cells();
    cells.insert(cells.end(), hyb_cells.begin(), hyb_cells.end());

    ReportTable t("fig9",
                  "uPC of conventional predictors vs 8KB+8KB "
                  "prophet/critic hybrids",
                  upcHeaders("prophet", sweeps[0], sweeps[1]));
    t.addNote("critic: tagged gshare; timing model: decoupled "
              "front-end, " +
              std::to_string(TimingConfig::fetchWidth) + "-uop machine, " +
              std::to_string(TimingConfig::resolveDepth) +
              "-cycle resolve");
    t.addNote("paper speedups @12fb: gshare 8%, 2Bc-gskew 7%, "
              "perceptron 5.2%");

    for (ProphetKind p : sweeps[0].axes.prophets) {
        t.addRow(upcRow(prophetKindName(p), store, cells, sweeps[1],
                        [&](const SweepCell &c) {
                            return c.spec.prophet == p;
                        }));
    }
    return {t};
}

// ------------------------------------------------------------ fig10

std::vector<SweepSpec>
fig10Sweeps(const FigureOptions &opts)
{
    SweepSpec base = baseSpec("fig10-baseline", opts, allSuites());
    base.timing = true;
    base.axes.prophets = {ProphetKind::GSkew};
    base.axes.prophetBudgets = {Budget::B16KB};
    base.axes.critics = {std::nullopt};

    SweepSpec hyb = baseSpec("fig10-hybrid", opts, allSuites());
    hyb.timing = true;
    hyb.axes.prophets = {ProphetKind::GSkew};
    hyb.axes.prophetBudgets = {Budget::B8KB};
    hyb.axes.critics = {CriticKind::TaggedGshare};
    hyb.axes.criticBudgets = {Budget::B8KB};
    hyb.axes.futureBits = {4, 8, 12};
    return {base, hyb};
}

std::vector<ReportTable>
fig10Render(const FigureOptions &opts, const ResultStore &store)
{
    const auto sweeps = fig10Sweeps(opts);
    auto cells = sweeps[0].cells();
    const auto hyb_cells = sweeps[1].cells();
    cells.insert(cells.end(), hyb_cells.begin(), hyb_cells.end());

    // One row per selector: the paper's per-suite panels by default,
    // per-override-selector rows otherwise.
    const auto selectors = sel(opts, allSuites());

    ReportTable t("fig10",
                  "per-suite uPC (prophet: 8KB 2Bc-gskew; critic: "
                  "8KB tagged gshare)",
                  upcHeaders("suite", sweeps[0], sweeps[1]));
    t.addNote("paper: FP00 smallest gain (~1.7% @12fb), INT00 "
              "largest (~10.7% @12fb)");

    for (const auto &selector : selectors) {
        const auto group = resolveSelector(selector);
        t.addRow(upcRow(selector, store, cells, sweeps[1],
                        [&](const SweepCell &c) {
                            return inSet(group, c.workload);
                        }));
    }
    return {t};
}

// --------------------------------------------------------- headline

std::vector<SweepSpec>
headlineSweeps(const FigureOptions &opts)
{
    SweepSpec base = baseSpec("headline-acc-baseline", opts, {"AVG"});
    base.axes.prophets = {ProphetKind::GSkew, ProphetKind::Perceptron};
    base.axes.prophetBudgets = {Budget::B16KB};
    base.axes.critics = {std::nullopt};

    SweepSpec hyb = baseSpec("headline-acc-hybrid", opts, {"AVG"});
    hyb.axes.prophets = {ProphetKind::GSkew, ProphetKind::Perceptron};
    hyb.axes.prophetBudgets = {Budget::B8KB};
    hyb.axes.critics = {CriticKind::TaggedGshare};
    hyb.axes.criticBudgets = {Budget::B8KB};
    hyb.axes.futureBits = {4, 8};

    SweepSpec gccb = baseSpec("headline-rate-baseline", opts, {"gcc"});
    gccb.axes.prophets = {ProphetKind::GSkew};
    gccb.axes.prophetBudgets = {Budget::B16KB};
    gccb.axes.critics = {std::nullopt};

    SweepSpec gcch = baseSpec("headline-rate-hybrid", opts, {"gcc"});
    gcch.axes.prophets = {ProphetKind::GSkew};
    gcch.axes.prophetBudgets = {Budget::B8KB};
    gcch.axes.critics = {CriticKind::TaggedGshare};
    gcch.axes.criticBudgets = {Budget::B8KB};
    gcch.axes.futureBits = {8};

    SweepSpec tb = baseSpec("headline-timing-baseline", opts,
                            onePerSuite());
    tb.timing = true;
    tb.axes.prophets = {ProphetKind::GSkew};
    tb.axes.prophetBudgets = {Budget::B16KB};
    tb.axes.critics = {std::nullopt};

    SweepSpec th = baseSpec("headline-timing-hybrid", opts,
                            onePerSuite());
    th.timing = true;
    th.axes.prophets = {ProphetKind::GSkew};
    th.axes.prophetBudgets = {Budget::B8KB};
    th.axes.critics = {CriticKind::TaggedGshare};
    th.axes.criticBudgets = {Budget::B8KB};
    th.axes.futureBits = {8};
    return {base, hyb, gccb, gcch, tb, th};
}

std::vector<ReportTable>
headlineRender(const FigureOptions &opts, const ResultStore &store)
{
    const auto sweeps = headlineSweeps(opts);
    auto acc_cells = sweeps[0].cells();
    {
        const auto h = sweeps[1].cells();
        acc_cells.insert(acc_cells.end(), h.begin(), h.end());
    }

    auto accuracy = [&](ProphetKind p, Budget pb,
                        std::optional<unsigned> fb) {
        return aggregateCells(
            store, acc_cells, [&](const SweepCell &c) {
                return c.spec.prophet == p &&
                       c.spec.prophetBudget == pb &&
                       (fb ? (c.spec.critic &&
                              c.spec.futureBits == *fb)
                           : !c.spec.critic);
            });
    };

    std::vector<ReportTable> out;

    // --- accuracy / flush distance over the workload set ---------
    const auto conv = accuracy(ProphetKind::GSkew, Budget::B16KB, {});
    const auto hyb = accuracy(ProphetKind::GSkew, Budget::B8KB, 8);
    {
        ReportTable t("headline-acc",
                      "16KB 2Bc-gskew vs 8KB+8KB 2Bc-gskew + tagged "
                      "gshare (8 fb)",
                      {"metric", "16KB 2Bc-gskew", "8KB+8KB hybrid",
                       "change", "paper"});
        t.addNote("on this synthetic substrate the relay-compression "
                  "channel needs a long-history prophet, so the "
                  "perceptron pairing (below) shows the paper's "
                  "direction most clearly and the 2Bc-gskew pairing "
                  "peaks at ~4 future bits");
        t.addRow({"misp/Kuops (set mean)",
                  fmtDouble(conv.mispPerKuops, 3),
                  fmtDouble(hyb.mispPerKuops, 3),
                  pct(conv.mispPerKuops, hyb.mispPerKuops) + " fewer",
                  "39% fewer"});
        t.addRow({"uops per flush", fmtDouble(conv.uopsPerFlush(), 0),
                  fmtDouble(hyb.uopsPerFlush(), 0),
                  "x" + fmtDouble(hyb.uopsPerFlush() /
                                      conv.uopsPerFlush(),
                                  2),
                  "418 -> 680 (x1.63)"});
        out.push_back(std::move(t));
    }

    // --- substrate-strong pairings at the same total budget ------
    {
        ReportTable t("headline-pairings",
                      "substrate-strong pairings at 16KB total",
                      {"pairing (16KB total)", "misp/Kuops",
                       "vs 16KB same-prophet alone"});
        const auto gskew4 =
            accuracy(ProphetKind::GSkew, Budget::B8KB, 4);
        t.addRow({"2Bc-gskew + t.gshare @4fb",
                  fmtDouble(gskew4.mispPerKuops, 3),
                  pct(conv.mispPerKuops, gskew4.mispPerKuops)});
        const auto perc_alone =
            accuracy(ProphetKind::Perceptron, Budget::B16KB, {});
        const auto perc8 =
            accuracy(ProphetKind::Perceptron, Budget::B8KB, 8);
        t.addRow({"perceptron + t.gshare @8fb",
                  fmtDouble(perc8.mispPerKuops, 3),
                  pct(perc_alone.mispPerKuops, perc8.mispPerKuops)});
        out.push_back(std::move(t));
    }

    // --- per-workload branch mispredict percentage ---------------
    {
        auto rate_cells = sweeps[2].cells();
        const auto h = sweeps[3].cells();
        rate_cells.insert(rate_cells.end(), h.begin(), h.end());
        ReportTable t("headline-rate",
                      "percentage of branches mispredicted",
                      {"workload", "16KB 2Bc-gskew", "8KB+8KB hybrid",
                       "paper"});
        t.addNote("paper reports gcc: 3.11% -> 1.23%");
        for (const Workload *w : sweeps[2].resolveWorkloads()) {
            const auto wconv =
                aggregateCells(store, rate_cells,
                               [&](const SweepCell &c) {
                                   return !c.spec.critic &&
                                          c.workload == w;
                               });
            const auto whyb =
                aggregateCells(store, rate_cells,
                               [&](const SweepCell &c) {
                                   return c.spec.critic &&
                                          c.workload == w;
                               });
            t.addRow({w->name, fmtPercent(wconv.mispRate, 2),
                      fmtPercent(whyb.mispRate, 2),
                      w->name == "gcc" ? "3.11% -> 1.23%" : "-"});
        }
        out.push_back(std::move(t));
    }

    // --- timing: uPC and fetched uops ----------------------------
    {
        auto t_cells = sweeps[4].cells();
        const auto h = sweeps[5].cells();
        t_cells.insert(t_cells.end(), h.begin(), h.end());

        double conv_fetch = 0, hyb_fetch = 0, conv_commit = 0,
               hyb_commit = 0;
        std::vector<TimingStats> conv_runs, hyb_runs;
        for (const auto &cell : t_cells) {
            const TimingStats st = store.timingStatsFor(cell);
            if (cell.spec.critic) {
                hyb_runs.push_back(st);
                hyb_fetch += double(st.fetchedUops);
                hyb_commit += double(st.committedUops);
            } else {
                conv_runs.push_back(st);
                conv_fetch += double(st.fetchedUops);
                conv_commit += double(st.committedUops);
            }
        }
        const double conv_upc = meanUpc(conv_runs);
        const double hyb_upc = meanUpc(hyb_runs);
        // Fetched uops normalized per committed uop, so the
        // comparison is independent of run length.
        const double conv_fpc = conv_fetch / conv_commit;
        const double hyb_fpc = hyb_fetch / hyb_commit;

        ReportTable t("headline-timing",
                      "timing: uPC and fetch volume (one workload "
                      "per suite)",
                      {"timing metric", "16KB 2Bc-gskew",
                       "8KB+8KB hybrid", "change", "paper"});
        t.addRow({"uPC", fmtDouble(conv_upc, 3),
                  fmtDouble(hyb_upc, 3),
                  "+" + fmtDouble(100.0 * (hyb_upc / conv_upc - 1.0),
                                  1) +
                      "%",
                  "+7.8%"});
        t.addRow({"fetched uops / committed uop",
                  fmtDouble(conv_fpc, 3), fmtDouble(hyb_fpc, 3),
                  pct(conv_fpc, hyb_fpc) + " fewer", "8.6% fewer"});
        out.push_back(std::move(t));
    }
    return out;
}

// -------------------------------------------------------- ablations

std::vector<std::string>
ablationDefaults()
{
    return {"int.crafty", "mm.mpeg", "web.jbb", "ws.cad"};
}

std::vector<SweepSpec>
ablationsSweeps(const FigureOptions &opts)
{
    const auto defaults = ablationDefaults();

    SweepSpec oracle = baseSpec("abl-oracle", opts, defaults);
    oracle.axes.prophets = {ProphetKind::Perceptron};
    oracle.axes.prophetBudgets = {Budget::B8KB};
    oracle.axes.critics = {CriticKind::TaggedGshare};
    oracle.axes.criticBudgets = {Budget::B8KB};
    oracle.axes.futureBits = {8};
    oracle.axes.oracleFutureBits = {false, true};

    SweepSpec filter = baseSpec("abl-filter", opts, defaults);
    filter.axes.prophets = {ProphetKind::GSkew};
    filter.axes.prophetBudgets = {Budget::B8KB};
    filter.axes.critics = {CriticKind::UnfilteredPerceptron,
                           CriticKind::FilteredPerceptron};
    filter.axes.criticBudgets = {Budget::B8KB};
    filter.axes.futureBits = {1, 8, 12};

    SweepSpec tag = baseSpec("abl-tagwidth", opts, defaults);
    tag.axes.prophets = {ProphetKind::Perceptron};
    tag.axes.prophetBudgets = {Budget::B8KB};
    tag.axes.critics = {CriticKind::TaggedGshare};
    tag.axes.criticBudgets = {Budget::B8KB};
    tag.axes.futureBits = {8};
    tag.axes.filterTagBits = {4, 6, 8, 10, 12, 14};

    SweepSpec repair = baseSpec("abl-repair", opts, defaults);
    repair.axes.prophets = {ProphetKind::Perceptron};
    repair.axes.prophetBudgets = {Budget::B8KB};
    repair.axes.critics = {CriticKind::TaggedGshare};
    repair.axes.criticBudgets = {Budget::B8KB};
    repair.axes.futureBits = {8};
    repair.axes.repairHistory = {true, false};

    SweepSpec spechist = baseSpec("abl-spechist", opts, defaults);
    spechist.axes.prophets = {ProphetKind::Gshare,
                              ProphetKind::Perceptron};
    spechist.axes.prophetBudgets = {Budget::B16KB};
    spechist.axes.critics = {std::nullopt};
    spechist.axes.speculativeHistory = {true, false};

    return {oracle, filter, tag, repair, spechist};
}

std::vector<ReportTable>
ablationsRender(const FigureOptions &opts, const ResultStore &store)
{
    const auto sweeps = ablationsSweeps(opts);
    std::vector<ReportTable> out;

    // (i) wrong-path vs oracle future bits (§6).
    {
        const auto cells = sweeps[0].cells();
        ReportTable t("abl-oracle",
                      "(i) wrong-path vs oracle future bits (Sec. 6)",
                      {"workload", "real wrong-path", "oracle trace",
                       "oracle inflation"});
        t.addNote("oracle bits make the critic look better than a "
                  "real machine could be, which is why the engine "
                  "walks real wrong paths");
        for (const Workload *w : sweeps[0].resolveWorkloads()) {
            const double real =
                aggregateCells(store, cells,
                               [&](const SweepCell &c) {
                                   return c.workload == w &&
                                          !c.oracleFutureBits;
                               })
                    .mispPerKuops;
            const double oracle =
                aggregateCells(store, cells,
                               [&](const SweepCell &c) {
                                   return c.workload == w &&
                                          c.oracleFutureBits;
                               })
                    .mispPerKuops;
            t.addRow({w->name, fmtDouble(real, 3),
                      fmtDouble(oracle, 3), pct(real, oracle)});
        }
        out.push_back(std::move(t));
    }

    // (ii) filtered vs unfiltered critic (§4).
    {
        const auto cells = sweeps[1].cells();
        ReportTable t("abl-filter",
                      "(ii) filtered vs unfiltered critic (Sec. 4)",
                      {"future bits", "unfiltered perceptron",
                       "filtered perceptron", "filter benefit"});
        for (unsigned fb : {1u, 8u, 12u}) {
            const double unf =
                aggregateCells(store, cells,
                               [&](const SweepCell &c) {
                                   return c.spec.futureBits == fb &&
                                          *c.spec.critic ==
                                              CriticKind::
                                                  UnfilteredPerceptron;
                               })
                    .mispPerKuops;
            const double fil =
                aggregateCells(store, cells,
                               [&](const SweepCell &c) {
                                   return c.spec.futureBits == fb &&
                                          *c.spec.critic ==
                                              CriticKind::
                                                  FilteredPerceptron;
                               })
                    .mispPerKuops;
            t.addRow({std::to_string(fb), fmtDouble(unf, 3),
                      fmtDouble(fil, 3), pct(unf, fil)});
        }
        out.push_back(std::move(t));
    }

    // (iii) filter tag width (§4).
    {
        const auto cells = sweeps[2].cells();
        ReportTable t("abl-tagwidth",
                      "(iii) filter tag width sweep (Sec. 4 says "
                      "8-10 bits suffice)",
                      {"tag bits", "misp/Kuops"});
        for (unsigned tag_bits : {4u, 6u, 8u, 10u, 12u, 14u}) {
            const double m =
                aggregateCells(store, cells,
                               [&](const SweepCell &c) {
                                   return c.spec.filterTagBits ==
                                          tag_bits;
                               })
                    .mispPerKuops;
            t.addRow({std::to_string(tag_bits), fmtDouble(m, 3)});
        }
        out.push_back(std::move(t));
    }

    // (iv) checkpoint repair of BHR/BOR (§3.3).
    {
        const auto cells = sweeps[3].cells();
        ReportTable t("abl-repair",
                      "(iv) checkpoint repair of BHR/BOR (Sec. 3.3)",
                      {"configuration", "misp/Kuops"});
        for (const bool on : {true, false}) {
            const double m =
                aggregateCells(store, cells,
                               [&](const SweepCell &c) {
                                   return c.spec.repairHistory == on;
                               })
                    .mispPerKuops;
            t.addRow({on ? "repair on (paper design)"
                         : "repair off (polluted history)",
                      fmtDouble(m, 3)});
        }
        out.push_back(std::move(t));
    }

    // (v) speculative vs retired history update (§3.2).
    {
        const auto cells = sweeps[4].cells();
        ReportTable t("abl-spechist",
                      "(v) speculative vs retired history update "
                      "(Sec. 3.2)",
                      {"configuration", "misp/Kuops"});
        for (ProphetKind p :
             {ProphetKind::Gshare, ProphetKind::Perceptron}) {
            for (const bool on : {true, false}) {
                const double m =
                    aggregateCells(
                        store, cells,
                        [&](const SweepCell &c) {
                            return c.spec.prophet == p &&
                                   c.spec.speculativeHistory == on;
                        })
                        .mispPerKuops;
                t.addRow({prophetKindName(p) +
                              (on ? ", speculative update"
                                  : ", retired-only update"),
                          fmtDouble(m, 3)});
            }
        }
        out.push_back(std::move(t));
    }
    return out;
}

// ------------------------------------------------------------ warmup

std::vector<SweepSpec>
warmupSweeps(const FigureOptions &opts)
{
    SweepSpec s = baseSpec("warmup", opts,
                           {"int.crafty", "mm.mpeg"});
    s.axes.prophets = {ProphetKind::Perceptron};
    s.axes.prophetBudgets = {Budget::B8KB};
    s.axes.critics = {std::nullopt, CriticKind::TaggedGshare};
    s.axes.criticBudgets = {Budget::B8KB};
    s.axes.futureBits = {8};
    s.warmups = {5000, 10000, 20000, 40000, 80000};
    return {s};
}

std::vector<ReportTable>
warmupRender(const FigureOptions &opts, const ResultStore &store)
{
    const SweepSpec s = warmupSweeps(opts)[0];
    const auto cells = s.cells();
    const auto set = s.resolveWorkloads();

    // The ladder actually run: PCBP_BENCH_SCALE can flatten
    // neighbouring steps into one cell, so recover it from the cells
    // rather than restating the spec.
    std::vector<std::uint64_t> ladder;
    for (const auto &cell : cells)
        if (std::find(ladder.begin(), ladder.end(),
                      cell.warmupBranches) == ladder.end())
            ladder.push_back(cell.warmupBranches);
    std::sort(ladder.begin(), ladder.end());

    auto misp = [&](const Workload *w, bool hybrid,
                    std::uint64_t wb) {
        for (const auto &cell : cells)
            if (cell.workload == w &&
                bool(cell.spec.critic) == hybrid &&
                cell.warmupBranches == wb)
                return store.statsFor(cell).mispPerKuops();
        pcbp_fatal("warmup: no cell for ", w->name, " @", wb, "wb");
    };

    std::vector<std::string> headers = {"configuration"};
    for (const auto wb : ladder)
        headers.push_back(std::to_string(wb) + " wb");
    headers.push_back("drift, last step");
    ReportTable t("warmup",
                  "mispredict rate vs warmup budget (fixed measured "
                  "window)",
                  headers);
    t.addNote("prophet: 8KB perceptron; critic: 8KB tagged gshare "
              "@8fb; each row's cells differ only in warmup, so the "
              "row is one fork group — the runner simulates its "
              "longest warmup once and forks the rest (DESIGN.md "
              "§11)");
    t.addNote("metric: misp/Kuops over the same measured window; "
              "drift = reduction across the last warmup step");
    for (const Workload *w : set) {
        for (const bool hybrid : {false, true}) {
            std::vector<std::string> row = {
                w->name + (hybrid ? " + t.gshare" : " alone")};
            double prev = 0, last = 0;
            for (const auto wb : ladder) {
                prev = last;
                last = misp(w, hybrid, wb);
                row.push_back(fmtDouble(last, 3));
            }
            row.push_back(ladder.size() > 1 ? pct(prev, last) : "-");
            t.addRow(row);
        }
    }
    return {t};
}

} // namespace

// --------------------------------------------------------- registry

const std::vector<FigureDef> &
allFigures()
{
    static const std::vector<FigureDef> figures = {
        {"fig5", "Figure 5", "effect of the number of future bits",
         "With an 8KB perceptron prophet and an 8KB tagged gshare "
         "critic, adding one future bit cuts mispredicts ~15% on "
         "average; the per-benchmark response varies from 'keeps "
         "improving to 12 bits' (unzip) to 'only 1 bit helps' "
         "(tpcc).",
         "Every benchmark improves from 0 to 1 future bit; the "
         "per-benchmark shapes follow the paper-shape column.",
         fig5Sweeps, fig5Render},
        {"fig6", "Figure 6", "prophet/critic combinations and sizes",
         "Across three prophet/critic pairings, any critic beats the "
         "prophet alone, larger critics help, and the unfiltered "
         "critic regresses at high future-bit counts while filtering "
         "keeps the configurations from regressing as hard.",
         "Hybrid columns beat 'no critic'; larger critics improve "
         "each row; panel (a) worsens from 8 to 12 fb where the "
         "filtered panels hold.",
         fig6Sweeps, fig6Render},
        {"fig7", "Figure 7",
         "conventional vs prophet/critic at matched budgets",
         "At matched 16KB and 32KB total budgets (prophet gets half, "
         "critic half, 8 future bits), hybrids reduce the mispredict "
         "rate by 15-31% versus the conventional predictor of the "
         "same total size; the tagged gshare critic reaches 25-31%.",
         "Every hybrid row shows a positive reduction against its "
         "same-budget baseline, with t.gshare >= f.perceptron.",
         fig7Sweeps, fig7Render},
        {"fig8", "Figure 8", "distribution of critiques",
         "For a 4KB perceptron prophet with an 8KB tagged gshare "
         "critic, incorrect_disagree (the goal) outnumbers "
         "correct_disagree (the worst case); from 1 to 12 future "
         "bits incorrect_disagree grows (~+20%), correct_disagree "
         "shrinks (~-40%), and total explicit critiques fall.",
         "incorrect_disagree > correct_disagree in every column; "
         "the total-critiques row falls from 1 fb to 12 fb.",
         fig8Sweeps, fig8Render},
        {"fig9", "Figure 9", "uPC of conventional vs hybrids",
         "On the cycle-level timing model, 8KB+8KB hybrids with a "
         "tagged gshare critic speed up uPC over a 16KB prophet "
         "alone, growing with future bits to 8/7/5.2% at 12 bits "
         "(gshare/2Bc-gskew/perceptron).",
         "Speedup @12fb is positive for every prophet and grows "
         "with future bits (absolute uPC is higher than the paper's "
         "- see DESIGN.md §2).",
         fig9Sweeps, fig9Render},
        {"fig10", "Figure 10", "per-suite uPC",
         "The 8KB 2Bc-gskew + 8KB tagged gshare hybrid wins on every "
         "suite; FP00 gains least (1.7% at 12 fb), INT00 most "
         "(10.7%), WEB in between.",
         "Every suite row shows a positive speedup @12fb, with FP00 "
         "smallest and INT00 near the top.",
         fig10Sweeps, fig10Render},
        {"table4", "Table 4", "percentage of filtered predictions",
         "Roughly 2/3 to 3/4 of prophet predictions are filtered "
         "(no explicit critique); the share rises with future bits "
         "as the filter grows more selective, and the "
         "filtered-but-incorrect share stays around a percent, "
         "falling with critic size.",
         "'% none (total)' lands in the 60-80 band and rises from 1 "
         "to 12 fb; '% incorrect_none' stays in single digits and "
         "falls with critic size.",
         table4Sweeps, table4Render},
        {"headline", "Abstract", "headline claims",
         "An 8KB+8KB prophet/critic hybrid has ~39% fewer "
         "mispredicts than a 16KB 2Bc-gskew; flush distance grows "
         "from one per 418 uops to one per 680; gcc's mispredicted "
         "branches drop from 3.11% to 1.23%; uPC improves 7.8% and "
         "fetched uops drop 8.6%.",
         "All four metrics move in the paper's direction; the "
         "perceptron pairing shows the accuracy gain most clearly "
         "on this substrate (see the pairings table).",
         headlineSweeps, headlineRender},
        {"ablations", "Secs. 3-6", "design-choice ablations",
         "The paper's design choices each pay for themselves: real "
         "wrong-path future bits (vs oracle traces), critique "
         "filtering, 8-10 filter tag bits, checkpoint repair of "
         "BHR/BOR, and speculative history update.",
         "Oracle bits inflate accuracy; filtering wins at every "
         "future-bit count; accuracy is flat above ~8 tag bits; "
         "repair and speculative update each beat their ablated "
         "configurations.",
         ablationsSweeps, ablationsRender},
        {"warmup", "Methodology", "warmup sensitivity",
         "The paper measures each benchmark after warming the "
         "predictors on a prefix of the trace; the hybrid's "
         "advantage must therefore survive any reasonable warmup "
         "budget rather than being a cold-start artifact.",
         "Rates settle as the warmup budget doubles (the last-step "
         "drift column shrinks toward zero) and the hybrid row "
         "stays below its prophet-alone row at every warmup.",
         warmupSweeps, warmupRender},
    };
    return figures;
}

const FigureDef &
figureById(const std::string &id)
{
    for (const auto &f : allFigures())
        if (f.id == id)
            return f;
    std::string known;
    for (const auto &f : allFigures())
        known += (known.empty() ? "" : ", ") + f.id;
    pcbp_fatal("unknown figure '", id, "' (known: ", known, ")");
}

std::vector<const FigureDef *>
figuresByIds(const std::vector<std::string> &ids)
{
    std::vector<const FigureDef *> out;
    auto push = [&](const FigureDef &f) {
        for (const FigureDef *have : out)
            if (have == &f)
                return;
        out.push_back(&f);
    };
    for (const auto &id : ids) {
        if (id == "all") {
            for (const auto &f : allFigures())
                push(f);
            continue;
        }
        push(figureById(id));
    }
    if (out.empty())
        for (const auto &f : allFigures())
            out.push_back(&f);
    // Report in registry (paper) order regardless of request order.
    std::sort(out.begin(), out.end(),
              [](const FigureDef *a, const FigureDef *b) {
                  return a - b < 0;
              });
    return out;
}

} // namespace pcbp
