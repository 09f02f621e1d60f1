/**
 * @file
 * Aggregation of engine statistics across workload sets, matching
 * how the paper reports results (averages over benchmarks, summed
 * critique distributions, percent reductions) — plus the
 * hard-to-predict (H2P) branch analytics layer.
 *
 * "Branch Prediction Is Not a Solved Problem" (Lin & Tarsa) observes
 * that the misses remaining under strong predictors concentrate in a
 * small set of static H2P branches; Bullseye-style predictors target
 * exactly those. The H2PProfiler taps the simulators' commit path
 * (SpecCore's CommitSink) and accumulates per-static-branch
 * accuracy, outcome entropy, and transition rates; H2PReport ranks
 * the top-miss branches and measures how concentrated the misses
 * are, so any (prophet, critic) configuration can be asked the
 * paper's question branch by branch.
 */

#ifndef PCBP_SIM_METRICS_HH
#define PCBP_SIM_METRICS_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "sim/engine.hh"

namespace pcbp
{

/** Aggregate over a workload set. */
struct AggregateResult
{
    /** Arithmetic mean of per-workload misp/Kuops (paper style). */
    double mispPerKuops = 0.0;

    /** Arithmetic mean of per-workload final mispredict rate. */
    double mispRate = 0.0;

    /** Arithmetic mean of per-workload prophet mispredict rate. */
    double prophetMispRate = 0.0;

    /** Summed critique distribution. */
    CritiqueCounts critiques;

    /** Summed raw counters. */
    std::uint64_t committedBranches = 0;
    std::uint64_t committedUops = 0;
    std::uint64_t finalMispredicts = 0;
    std::uint64_t partialCritiques = 0;

    /** Mean uops between flushes (weighted by totals). */
    double
    uopsPerFlush() const
    {
        return finalMispredicts == 0
                   ? double(committedUops)
                   : double(committedUops) / double(finalMispredicts);
    }
};

/** Aggregate a batch of per-workload stats. */
AggregateResult aggregate(const std::vector<EngineStats> &runs);

/** Percent reduction from @p base to @p now (positive = improved). */
double pctReduction(double base, double now);

// ------------------------------------------------- H2P analytics

/** Per-static-branch accounting accumulated at commit. */
struct BranchProfile
{
    Addr pc = 0;
    std::uint64_t execs = 0;
    std::uint64_t takens = 0;
    /** Commits whose outcome differed from the previous commit. */
    std::uint64_t transitions = 0;
    std::uint64_t prophetWrong = 0;
    std::uint64_t finalWrong = 0;
    std::uint64_t criticOverrides = 0;
    std::uint64_t btbMisses = 0;

    /** @name Transition-tracking state (profiler-internal). */
    /// @{
    bool hasPrev = false;
    bool prevOutcome = false;
    /// @}

    double takenRate() const
    {
        return execs ? double(takens) / double(execs) : 0.0;
    }

    /** Binary entropy of the outcome stream, in bits (0..1). */
    double outcomeEntropy() const;

    /** Outcome flips per execution (1.0 = strict alternation). */
    double transitionRate() const
    {
        return execs > 1 ? double(transitions) / double(execs - 1) : 0.0;
    }

    double finalAccuracy() const
    {
        return execs ? 1.0 - double(finalWrong) / double(execs) : 1.0;
    }
};

/** What counts as hard-to-predict for the report. */
struct H2PConfig
{
    /** Minimum dynamic executions for a branch to be classified. */
    static constexpr std::uint64_t minExecs = 64;

    /** Final accuracy below this marks a branch H2P. */
    static constexpr double accuracyBelow = 0.99;

    /** Rows in the ranked top-miss table. */
    std::size_t topN = 10;
};

/** One ranked row of the report. */
struct H2PEntry
{
    BranchProfile profile;
    /** This branch's share of all final mispredicts. */
    double missShare = 0.0;
    /** Running share up to and including this row. */
    double cumulativeMissShare = 0.0;
};

/** The classification result for one (workload, config) run. */
struct H2PReport
{
    std::string workload;
    std::string config;

    std::uint64_t branches = 0;       //!< committed branches profiled
    std::uint64_t mispredicts = 0;    //!< final mispredicts
    std::uint64_t staticBranches = 0; //!< distinct PCs seen

    /** Static branches classified H2P under the config. */
    std::uint64_t h2pStatic = 0;
    /** Share of dynamic branches executed by H2P branches. */
    double h2pExecShare = 0.0;
    /** Share of final mispredicts caused by H2P branches. */
    double h2pMissShare = 0.0;

    /** Top-miss branches, by finalWrong descending (then pc). */
    std::vector<H2PEntry> top;

    /** Render the paper-style ASCII table. */
    std::string render() const;
};

/**
 * Commit-path tap (SpecCore CommitSink) accumulating per-branch
 * profiles. Attach through EngineConfig/TimingConfig::commitSink;
 * commits below @p skip_branches (warmup) are ignored.
 */
class H2PProfiler : public CommitSink
{
  public:
    explicit H2PProfiler(std::uint64_t skip_branches = 0)
        : skip(skip_branches)
    {
    }

    void onCommit(const CommitEvent &e) override;

    /** Classify and rank under @p cfg. Labels are the caller's. */
    H2PReport report(const H2PConfig &cfg = {}) const;

    /** Profiles in deterministic (pc-ascending) order. */
    std::vector<BranchProfile> profiles() const;

    /**
     * Export totals plus the top-@p max_pcs branches by final-wrong
     * count into @p reg's sim section — `prefix.pc_<hex>.*` per
     * branch — so H2P per-PC counters appear in the unified stats
     * dump next to the engine's. Deterministic: ties rank by pc.
     */
    void exportStats(StatRegistry &reg,
                     const std::string &prefix = "h2p",
                     std::size_t max_pcs = 64) const;

  private:
    std::uint64_t skip;
    std::uint64_t commits = 0;
    std::uint64_t mispredicts = 0;
    std::unordered_map<Addr, BranchProfile> perPc;
};

} // namespace pcbp

#endif // PCBP_SIM_METRICS_HH
