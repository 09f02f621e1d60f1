#include "sweep/runner.hh"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/span_trace.hh"
#include "obs/stat_registry.hh"

namespace pcbp
{

namespace
{

/**
 * A schedulable piece of a sweep: indices into `pending` of the cells
 * one fork chain runs (DESIGN.md §11) — one canonical simulation plus
 * a clone per earlier snapshot point. A lone cell is a chain of one.
 */
using SweepUnit = std::vector<std::size_t>;

/**
 * Partition the pending cells into units. With @p fork, grouping is
 * by forkGroupKey(), so only cells that are provably prefixes of the
 * same simulation ever share a chain; a group with a cell that cannot
 * fork splits into chains of one, and so does every cell without
 * @p fork.
 */
std::vector<SweepUnit>
planUnits(const std::vector<const SweepCell *> &pending, bool fork)
{
    std::vector<SweepUnit> units;
    if (!fork) {
        for (std::size_t i = 0; i < pending.size(); ++i)
            units.push_back({i});
        return units;
    }

    std::vector<std::string> group_order;
    std::map<std::string, SweepUnit> groups;
    for (std::size_t i = 0; i < pending.size(); ++i) {
        const std::string key = pending[i]->forkGroupKey();
        auto [it, inserted] = groups.try_emplace(key);
        if (inserted)
            group_order.push_back(key);
        it->second.push_back(i);
    }

    const auto cellForkable = [&](std::size_t i) {
        const SweepCell &cell = *pending[i];
        return cell.timing ? forkable(cell.timingConfig())
                           : forkable(cell.engineConfig());
    };
    for (const std::string &key : group_order) {
        SweepUnit &members = groups[key];
        if (std::all_of(members.begin(), members.end(), cellForkable)) {
            units.push_back(std::move(members));
        } else {
            for (const std::size_t i : members)
                units.push_back({i});
        }
    }
    return units;
}

/**
 * The sweep's program of one workload: built by the first unit that
 * needs it (units of other workloads build theirs in parallel), read
 * by every unit and fork of the workload, and freed by the last of
 * them to finish.
 */
struct ProgramSlot
{
    std::once_flag built;
    std::unique_ptr<const Program> program;
    std::atomic<std::size_t> unitsLeft{0};
};

} // namespace

SweepRunSummary
runSweep(const SweepSpec &spec, ResultStore &store,
         const SweepRunOptions &opt)
{
    SweepRunSummary summary;
    const std::vector<SweepCell> cells = spec.cells();
    summary.totalCells = cells.size();

    std::vector<const SweepCell *> pending;
    for (const SweepCell &cell : cells) {
        if (store.has(cell.key())) {
            ++summary.skippedCells;
            continue;
        }
        if (opt.maxCells && pending.size() >= opt.maxCells)
            continue;
        pending.push_back(&cell);
    }
    summary.executedCells = pending.size();

    // Fork-execution host counters (zero when forking is off or no
    // group shares a warmup prefix).
    std::uint64_t fork_groups = 0;
    std::uint64_t fork_cells_forked = 0;
    std::uint64_t fork_warmup_saved = 0;

    // Workers drop finished cells into `results`; the flush cursor
    // advances over the completed prefix so the store only ever sees
    // results in cell order, whatever order the workers finish them.
    std::vector<CellResult> results(pending.size());
    std::vector<bool> done(pending.size(), false);
    std::size_t cursor = 0;
    std::mutex flushMutex;

    const bool collect = opt.stats != nullptr || opt.cellStats;
    const std::vector<SweepUnit> units = planUnits(pending, opt.fork);

    // One program slot per distinct workload of the pending units.
    std::map<const Workload *, std::size_t> slot_of;
    std::vector<std::size_t> unit_slot;
    unit_slot.reserve(units.size());
    for (const SweepUnit &unit : units) {
        const Workload *w = pending[unit[0]]->workload;
        unit_slot.push_back(
            slot_of.try_emplace(w, slot_of.size()).first->second);
    }
    std::vector<ProgramSlot> slots(slot_of.size());
    for (const std::size_t s : unit_slot)
        ++slots[s].unitsLeft;
    std::atomic<std::uint64_t> programs_built{0};

    const auto runUnit = [&](std::size_t u, unsigned worker) {
        const SweepUnit &unit = units[u];
        const SweepCell &first = *pending[unit[0]];
        const bool chain = unit.size() > 1;
        const std::uint64_t spanStart =
            opt.tracer ? opt.tracer->now() : 0;

        ProgramSlot &slot = slots[unit_slot[u]];
        std::call_once(slot.built, [&] {
            slot.program = std::make_unique<const Program>(
                buildProgram(*first.workload));
            ++programs_built;
        });

        // Each cell collects into its own registry — no contention
        // on the simulation path — merged under the flush lock.
        std::vector<StatRegistry> regs(unit.size());
        std::vector<CellResult> unitResults(unit.size());
        ChainObs chainObs;

        // One canonical simulation; every other member is a
        // mid-warmup fork of it (DESIGN.md §11), bit-identical to a
        // chain of one per cell.
        if (first.timing) {
            std::vector<TimingConfig> cfgs;
            cfgs.reserve(unit.size());
            for (std::size_t j = 0; j < unit.size(); ++j) {
                TimingConfig tc = pending[unit[j]]->timingConfig();
                if (collect)
                    tc.statsOut = &regs[j];
                cfgs.push_back(tc);
            }
            const std::vector<TimingStats> stats = runTimingChain(
                *first.workload, *slot.program, first.spec, cfgs,
                &chainObs);
            for (std::size_t j = 0; j < unit.size(); ++j) {
                unitResults[j] = CellResult::fromTimingRun(
                    *pending[unit[j]], stats[j]);
            }
        } else {
            std::vector<EngineConfig> cfgs;
            cfgs.reserve(unit.size());
            for (std::size_t j = 0; j < unit.size(); ++j) {
                EngineConfig ec = pending[unit[j]]->engineConfig();
                if (collect)
                    ec.statsOut = &regs[j];
                cfgs.push_back(ec);
            }
            const std::vector<EngineStats> stats = runAccuracyChain(
                *first.workload, *slot.program, first.spec, cfgs,
                &chainObs);
            for (std::size_t j = 0; j < unit.size(); ++j) {
                unitResults[j] =
                    CellResult::fromRun(*pending[unit[j]], stats[j]);
            }
        }
        if (--slot.unitsLeft == 0)
            slot.program.reset();

        if (opt.cellStats) {
            for (std::size_t j = 0; j < unit.size(); ++j)
                unitResults[j].stats = regs[j].simScalars();
        }
        if (opt.tracer) {
            opt.tracer->record(chain ? first.forkGroupKey() : first.key(),
                               chain ? "chain" : "cell", worker,
                               spanStart, opt.tracer->now());
        }

        std::lock_guard<std::mutex> lk(flushMutex);
        if (opt.stats) {
            for (const StatRegistry &reg : regs)
                opt.stats->merge(reg);
        }
        if (chain) {
            ++fork_groups;
            fork_cells_forked += unit.size() - 1;
            fork_warmup_saved += chainObs.warmupBranchesSaved;
        }
        for (std::size_t j = 0; j < unit.size(); ++j) {
            results[unit[j]] = std::move(unitResults[j]);
            done[unit[j]] = true;
        }
        while (cursor < pending.size() && done[cursor]) {
            store.put(results[cursor]);
            if (opt.onCellDone)
                opt.onCellDone(*pending[cursor], results[cursor]);
            ++cursor;
        }
    };
    const unsigned workers =
        parallelFor(opt.jobs, units.size(), runUnit, opt.stats);
    if (opt.tracer) {
        for (unsigned w = 0; w < workers; ++w)
            opt.tracer->nameThread(w, "worker" + std::to_string(w));
    }

    // add (not set): a repro run funnels many sweeps into one
    // registry. The caller owns store.exportStats (a store can back
    // several sweeps; exporting it here would double-count).
    if (opt.stats) {
        opt.stats->addHost("sweep.cells_total", summary.totalCells);
        opt.stats->addHost("sweep.cells_skipped", summary.skippedCells);
        opt.stats->addHost("sweep.cells_executed",
                           summary.executedCells);
        opt.stats->addHost("sweep.fork.groups", fork_groups);
        opt.stats->addHost("sweep.fork.cells_forked", fork_cells_forked);
        opt.stats->addHost("sweep.fork.warmup_branches_saved",
                           fork_warmup_saved);
        opt.stats->addHost("sweep.programs_built", programs_built);
    }
    return summary;
}

AggregateResult
aggregateCells(const ResultStore &store,
               const std::vector<SweepCell> &cells,
               const std::function<bool(const SweepCell &)> &pred)
{
    std::vector<EngineStats> runs;
    for (const SweepCell &cell : cells)
        if (pred(cell))
            runs.push_back(store.statsFor(cell));
    if (runs.empty())
        pcbp_fatal("aggregateCells: no cells matched");
    return aggregate(runs);
}

double
meanUpcCells(const ResultStore &store,
             const std::vector<SweepCell> &cells,
             const std::function<bool(const SweepCell &)> &pred)
{
    std::vector<TimingStats> runs;
    for (const SweepCell &cell : cells)
        if (pred(cell))
            runs.push_back(store.timingStatsFor(cell));
    if (runs.empty())
        pcbp_fatal("meanUpcCells: no cells matched");
    return meanUpc(runs);
}

} // namespace pcbp
