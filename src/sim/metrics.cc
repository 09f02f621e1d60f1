#include "sim/metrics.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/stat_registry.hh"

namespace pcbp
{

AggregateResult
aggregate(const std::vector<EngineStats> &runs)
{
    AggregateResult a;
    if (runs.empty())
        return a;
    for (const auto &s : runs) {
        a.mispPerKuops += s.mispPerKuops();
        a.mispRate += s.mispRate();
        a.prophetMispRate += s.prophetMispRate();
        a.committedBranches += s.committedBranches;
        a.committedUops += s.committedUops;
        a.finalMispredicts += s.finalMispredicts;
        a.partialCritiques += s.partialCritiques;
        for (std::size_t c = 0; c < numCritiqueClasses; ++c)
            a.critiques.counts[c] += s.critiques.counts[c];
    }
    const double n = static_cast<double>(runs.size());
    a.mispPerKuops /= n;
    a.mispRate /= n;
    a.prophetMispRate /= n;
    return a;
}

double
pctReduction(double base, double now)
{
    if (base == 0.0)
        return 0.0;
    return 100.0 * (base - now) / base;
}

// --------------------------------------------------- H2P analytics

double
BranchProfile::outcomeEntropy() const
{
    const double p = takenRate();
    if (p <= 0.0 || p >= 1.0)
        return 0.0;
    return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

void
H2PProfiler::onCommit(const CommitEvent &e)
{
    if (e.index < skip)
        return;
    ++commits;
    const bool mispredicted = e.finalPred != e.outcome;
    if (mispredicted)
        ++mispredicts;

    BranchProfile &p = perPc[e.pc];
    p.pc = e.pc;
    ++p.execs;
    if (e.outcome)
        ++p.takens;
    if (!e.btbHit)
        ++p.btbMisses;
    if (e.btbHit && e.prophetPred != e.outcome)
        ++p.prophetWrong;
    if (mispredicted)
        ++p.finalWrong;
    if (e.criticOverrode)
        ++p.criticOverrides;

    if (p.hasPrev && p.prevOutcome != e.outcome)
        ++p.transitions;
    p.hasPrev = true;
    p.prevOutcome = e.outcome;
}

std::vector<BranchProfile>
H2PProfiler::profiles() const
{
    std::vector<BranchProfile> out;
    out.reserve(perPc.size());
    for (const auto &kv : perPc)
        out.push_back(kv.second);
    std::sort(out.begin(), out.end(),
              [](const BranchProfile &a, const BranchProfile &b) {
                  return a.pc < b.pc;
              });
    return out;
}

H2PReport
H2PProfiler::report(const H2PConfig &cfg) const
{
    H2PReport r;
    r.branches = commits;
    r.mispredicts = mispredicts;
    r.staticBranches = perPc.size();

    std::vector<BranchProfile> all = profiles();

    std::uint64_t h2p_execs = 0, h2p_misses = 0;
    for (const BranchProfile &p : all) {
        if (p.execs < cfg.minExecs ||
            p.finalAccuracy() >= cfg.accuracyBelow) {
            continue;
        }
        ++r.h2pStatic;
        h2p_execs += p.execs;
        h2p_misses += p.finalWrong;
    }
    if (commits)
        r.h2pExecShare = double(h2p_execs) / double(commits);
    if (mispredicts)
        r.h2pMissShare = double(h2p_misses) / double(mispredicts);

    // Rank every profiled branch by miss volume; ties break on pc so
    // the report is bit-stable.
    std::sort(all.begin(), all.end(),
              [](const BranchProfile &a, const BranchProfile &b) {
                  if (a.finalWrong != b.finalWrong)
                      return a.finalWrong > b.finalWrong;
                  return a.pc < b.pc;
              });

    double cumulative = 0.0;
    for (const BranchProfile &p : all) {
        if (r.top.size() >= cfg.topN)
            break;
        H2PEntry e;
        e.profile = p;
        e.missShare = mispredicts
                          ? double(p.finalWrong) / double(mispredicts)
                          : 0.0;
        cumulative += e.missShare;
        e.cumulativeMissShare = cumulative;
        r.top.push_back(e);
    }
    return r;
}

namespace
{

std::string
hexPc(Addr pc)
{
    std::ostringstream os;
    os << "0x" << std::hex << pc;
    return os.str();
}

} // namespace

std::string
H2PReport::render() const
{
    std::ostringstream os;
    os << "H2P report: " << workload << " under " << config << "\n";
    os << "  committed " << branches << " branches, " << mispredicts
       << " mispredicts, " << staticBranches << " static branches\n";
    os << "  H2P set: " << h2pStatic << " static branches, "
       << fmtPercent(h2pExecShare, 1) << " of executions, "
       << fmtPercent(h2pMissShare, 1) << " of mispredicts\n";

    TablePrinter t({"rank", "pc", "execs", "taken", "entropy", "flips",
                    "prophet-miss", "final-miss", "miss-share",
                    "cum-share"});
    int rank = 1;
    for (const H2PEntry &e : top) {
        const BranchProfile &p = e.profile;
        t.addRow({std::to_string(rank++), hexPc(p.pc),
                  std::to_string(p.execs),
                  fmtPercent(p.takenRate(), 1),
                  fmtDouble(p.outcomeEntropy(), 3),
                  fmtPercent(p.transitionRate(), 1),
                  fmtPercent(p.execs ? double(p.prophetWrong) /
                                           double(p.execs)
                                     : 0.0,
                             1),
                  fmtPercent(p.execs ? double(p.finalWrong) /
                                           double(p.execs)
                                     : 0.0,
                             1),
                  fmtPercent(e.missShare, 1),
                  fmtPercent(e.cumulativeMissShare, 1)});
    }
    os << t.str();
    return os.str();
}

void
H2PProfiler::exportStats(StatRegistry &reg, const std::string &prefix,
                         std::size_t max_pcs) const
{
    reg.add(prefix + ".commits", commits);
    reg.add(prefix + ".mispredicts", mispredicts);
    reg.setMax(prefix + ".static_branches", perPc.size());

    // Rank worst-first (finalWrong desc, pc asc) so truncation keeps
    // the branches the H2P analysis cares about, deterministically.
    std::vector<BranchProfile> all = profiles();
    std::sort(all.begin(), all.end(),
              [](const BranchProfile &a, const BranchProfile &b) {
                  if (a.finalWrong != b.finalWrong)
                      return a.finalWrong > b.finalWrong;
                  return a.pc < b.pc;
              });
    if (all.size() > max_pcs)
        all.resize(max_pcs);

    for (const BranchProfile &p : all) {
        const std::string base = prefix + ".pc_" + hexPc(p.pc);
        reg.add(base + ".execs", p.execs);
        reg.add(base + ".takens", p.takens);
        reg.add(base + ".transitions", p.transitions);
        reg.add(base + ".prophet_wrong", p.prophetWrong);
        reg.add(base + ".final_wrong", p.finalWrong);
        reg.add(base + ".critic_overrides", p.criticOverrides);
        reg.add(base + ".btb_misses", p.btbMisses);
    }
}

} // namespace pcbp
