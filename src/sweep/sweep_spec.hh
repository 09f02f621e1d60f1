/**
 * @file
 * Declarative experiment grids.
 *
 * Every headline result in the paper (Fig. 5-10, Table 4) is a
 * cartesian grid — predictors x budgets x future bits x workloads. A
 * SweepSpec names that grid once, either programmatically or in a
 * small dependency-free text format:
 *
 *     name          = fig7-16kb
 *     prophet       = gshare, 2Bc-gskew, perceptron
 *     prophet_budget = 8KB
 *     critic        = none, f.perceptron, t.gshare
 *     critic_budget = 8KB
 *     future_bits   = 8
 *     workloads     = AVG
 *
 * Lists are comma-separated; '#' starts a comment. Workload
 * selectors resolve, in order: AVG (the 14-workload basket), ALL
 * (every registered workload), a suite name (INT00, ..., FIG5, GCC),
 * or an individual workload name — including trace:<path>, which
 * sweeps over a recorded PCBPTRC2 committed stream (suites.hh).
 *
 * A grid runs on the accuracy engine by default; `mode = timing`
 * runs every cell through the cycle-level timing model instead
 * (Figs. 9-10: uPC, fetched uops). The §4/§6 ablation axes —
 * `filter_tag_bits` (critic filter tag width, 0 = Table-3 default)
 * and `oracle` (feed the critic correct-path future bits) — make
 * the ablations figure declarative too.
 *
 * parse() range-checks every number, so a bad spec stops with a
 * `sweep: line N: bad value` message before any cell runs: counts
 * must fit their field, `future_bits` must be below
 * futureBitsLimit() for the grid's mode, and `filter_tag_bits` must
 * be 0 or a TagFilter width.
 *
 * The expansion into SweepCells is deterministic, and each cell
 * carries a canonical content key — the unit of resume in the
 * ResultStore and of scheduling in the runner.
 */

#ifndef PCBP_SWEEP_SWEEP_SPEC_HH
#define PCBP_SWEEP_SWEEP_SPEC_HH

#include <optional>
#include <string>
#include <vector>

#include "sim/driver.hh"

namespace pcbp
{

/**
 * One (configuration, workload) grid point.
 *
 * A cell is a value object: it borrows its Workload from the global
 * registry (whose entries live for the process) and owns everything
 * else, so cells can be copied and executed on any thread. Executing
 * a cell builds a private program and predictor from the recipe, so
 * no state leaks between cells whatever the execution order — the
 * basis of the runner's determinism contract.
 */
struct SweepCell
{
    /** Position in the spec's expansion order. */
    std::size_t index = 0;

    HybridSpec spec;
    const Workload *workload = nullptr;

    /** Run the timing model instead of the accuracy engine. */
    bool timing = false;

    /** Feed oracle (correct-path) future bits — §6 ablation. */
    bool oracleFutureBits = false;

    /** Engine run lengths, after overrides and PCBP_BENCH_SCALE. */
    std::uint64_t measureBranches = 0;
    std::uint64_t warmupBranches = 0;

    /**
     * Canonical content key, e.g.
     * "w=unzip;p=perceptron;pb=8KB;c=t.gshare;cb=8KB;fb=8;sh=1;rh=1;
     *  mb=300000;wb=30000". Two cells with equal keys compute the
     * same result; the key changes whenever anything that affects
     * the simulation (including run lengths) changes. Non-default
     * knobs (timing mode, oracle bits, tag-width override) append
     * suffixes (";md=t", ";ofb=1", ";tb=N"), so keys of plain
     * accuracy grids — and stores already on disk — are unchanged.
     */
    std::string key() const;

    /** 64-bit FNV-1a hash of key(). */
    std::uint64_t hash() const;

    /**
     * key() minus the run-length fields (mb=, wb=). Cells sharing a
     * fork-group key run the *same simulation* — workload, predictor
     * recipe, mode — and differ only in where warmup ends and how
     * far the measured window runs, so they are prefix-chained runs
     * of one canonical simulation: the runner simulates the longest
     * once and forks cloned state into the others (DESIGN.md §11).
     */
    std::string forkGroupKey() const;

    /** Engine configuration for this cell (accuracy cells). */
    EngineConfig engineConfig() const;

    /** Timing configuration for this cell (timing cells). */
    TimingConfig timingConfig() const;

  private:
    std::string keyImpl(bool with_run_lengths) const;
};

/** The grid axes; empty axes take single-value defaults. */
struct SweepAxes
{
    std::vector<ProphetKind> prophets{ProphetKind::Perceptron};
    std::vector<Budget> prophetBudgets{Budget::B8KB};
    /** nullopt = prophet-alone baseline row. */
    std::vector<std::optional<CriticKind>> critics{
        CriticKind::TaggedGshare};
    std::vector<Budget> criticBudgets{Budget::B8KB};
    std::vector<unsigned> futureBits{8};
    std::vector<bool> speculativeHistory{true};
    std::vector<bool> repairHistory{true};
    /** Critic filter tag width; 0 = Table-3 default (§4 ablation). */
    std::vector<unsigned> filterTagBits{0};
    /** Oracle future bits on/off (§6 ablation; accuracy mode only). */
    std::vector<bool> oracleFutureBits{false};
};

class SweepSpec
{
  public:
    std::string name = "sweep";
    SweepAxes axes;

    /** Workload selectors, resolved lazily by cells(). */
    std::vector<std::string> workloads{"AVG"};

    /**
     * Run every cell through the cycle-level timing model instead of
     * the accuracy engine (text format: `mode = timing`). Incompatible
     * with the oracle axis, which only the engine implements.
     */
    bool timing = false;

    /**
     * Override measured branches per cell (warmup = a tenth);
     * 0 keeps each workload's own default (for timing grids, the
     * workload's timing budget). PCBP_BENCH_SCALE applies either way.
     */
    std::uint64_t branches = 0;

    /**
     * Warmup axis (text format: `warmup = 5000, 10000, ...`):
     * absolute warmup branch counts, each expanding into its own
     * cell per configuration (PCBP_BENCH_SCALE applies, floored at
     * 100). Empty keeps the derived default (a tenth of the measured
     * budget, or the workload's own). The warmup-sensitivity figure
     * and the fork benches sweep this axis; its cells differ only in
     * run lengths, so they share one forked simulation per
     * configuration (DESIGN.md §11).
     */
    std::vector<std::uint64_t> warmups;

    /** Parse the text format (fatal with a message on bad input). */
    static SweepSpec parse(const std::string &text);

    /** Parse a spec file (fatal if unreadable). */
    static SweepSpec parseFile(const std::string &path);

    /**
     * Expand the grid in deterministic order (config-major, workload
     * fastest). Axes that cannot affect a row collapse so no
     * duplicate cells appear: baseline rows (critic = none) collapse
     * the critic budget, future-bit, tag-width, and oracle axes, and
     * unfiltered critics collapse the tag-width axis (no tags).
     */
    std::vector<SweepCell> cells() const;

    /** Resolved workload list (selector order, deduplicated). */
    std::vector<const Workload *> resolveWorkloads() const;
};

} // namespace pcbp

#endif // PCBP_SWEEP_SWEEP_SPEC_HH
