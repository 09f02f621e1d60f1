/**
 * @file
 * Hash once per branch: the keyed calls equal the unkeyed ones, end
 * to end.
 *
 * The hybrid makes keyed calls only. A prophet leaves the table
 * coordinates its predict hashed in the branch's checkpoint
 * (BranchContext::key) and its commit-time update reuses them; a
 * filtered critic returns its (set, tag) with the critique and its
 * train reuses them. Each run here is made twice from one spec: once
 * with the factory's predictors (the keyed path), and once with every
 * predictor wrapped in a decorator that overrides only the unkeyed
 * calls, as the benchmark's timing probes do, so the hybrid's keyed
 * calls fall back to them and every commit hashes afresh (the
 * reference path). Every commit event and the whole sim-section stats
 * dump, predictor stats included, must be equal.
 *
 * The matrix is every prophet kind (plus the 6-bank 32KB TAGE, which
 * fills every key slot) x {no critic, t.gshare, f.perceptron,
 * unfiltered perceptron} x future bits {0, 1, the simulator's
 * maximum}, on both simulators, under: the default configuration; a
 * 64-entry BTB, so that many records commit from a BTB miss (no
 * predict, so no key); the retired-history and no-repair ablations;
 * oracle future bits (engine only); and a fork chain, whose forks
 * commit records predicted before the snapshot.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/stat_registry.hh"
#include "sim/driver.hh"
#include "support.hh"
#include "workload/generator.hh"

namespace pcbp
{
namespace
{

/** A prophet decorator overriding only the unkeyed calls. */
class UnkeyedProphet final : public DirectionPredictor
{
  public:
    explicit UnkeyedProphet(DirectionPredictorPtr inner)
        : inner(std::move(inner))
    {
    }

    bool
    predict(Addr pc, const HistoryRegister &hist) override
    {
        return inner->predict(pc, hist);
    }

    void
    update(Addr pc, const HistoryRegister &hist, bool taken) override
    {
        inner->update(pc, hist, taken);
    }

    void reset() override { inner->reset(); }

    DirectionPredictorPtr
    clone() const override
    {
        return std::make_unique<UnkeyedProphet>(inner->clone());
    }

    std::size_t sizeBits() const override { return inner->sizeBits(); }
    unsigned historyLength() const override { return inner->historyLength(); }
    std::string name() const override { return inner->name(); }

    void
    exportStats(StatRegistry &reg, const std::string &prefix) const override
    {
        inner->exportStats(reg, prefix);
    }

  private:
    DirectionPredictorPtr inner;
};

/** A critic decorator overriding only the unkeyed calls. */
class UnkeyedCritic final : public FilteredPredictor
{
  public:
    explicit UnkeyedCritic(FilteredPredictorPtr inner)
        : inner(std::move(inner))
    {
    }

    CritiqueResult
    critique(Addr pc, const HistoryRegister &bor) override
    {
        return inner->critique(pc, bor);
    }

    void
    train(Addr pc, const HistoryRegister &bor, bool taken,
          bool mispredicted) override
    {
        inner->train(pc, bor, taken, mispredicted);
    }

    void reset() override { inner->reset(); }

    FilteredPredictorPtr
    clone() const override
    {
        return std::make_unique<UnkeyedCritic>(inner->clone());
    }

    std::size_t sizeBits() const override { return inner->sizeBits(); }
    unsigned borBits() const override { return inner->borBits(); }
    std::string name() const override { return inner->name(); }

    void
    exportStats(StatRegistry &reg, const std::string &prefix) const override
    {
        inner->exportStats(reg, prefix);
    }

  private:
    FilteredPredictorPtr inner;
};

/** HybridSpec::build() with every component decorated. */
std::unique_ptr<ProphetCriticHybrid>
buildUnkeyed(const HybridSpec &spec)
{
    HybridConfig cfg;
    cfg.numFutureBits = spec.critic ? spec.futureBits : 0;
    cfg.speculativeHistoryUpdate = spec.speculativeHistory;
    cfg.repairHistory = spec.repairHistory;
    return std::make_unique<ProphetCriticHybrid>(
        std::make_unique<UnkeyedProphet>(
            makeProphet(spec.prophet, spec.prophetBudget)),
        spec.critic ? std::make_unique<UnkeyedCritic>(makeCritic(
                          *spec.critic, spec.criticBudget,
                          spec.filterTagBits))
                    : nullptr,
        cfg);
}

/** One simulator's commit events and stats dump. */
struct Observed
{
    std::vector<CommitEvent> events;
    std::string stats;
};

/** Everything one run (or one fork chain) observed. */
using RunLog = std::vector<Observed>;

WorkloadRecipe
recipe()
{
    WorkloadRecipe r;
    r.name = "keyed";
    r.seed = 20;
    r.targetBlocks = 300;
    r.numChains = 4;
    r.numPhaseChains = 2;
    return r;
}

/**
 * Run @p spec on the keyed or the decorated path. With @p forks
 * non-empty, the run is a fork chain: the canonical pauses at each
 * commit target (inside warmup, increasing), forks predictor, stream
 * and simulator over the one program, and runs the fork to the end;
 * then the canonical finishes. Every simulator reports to its own sink and
 * registry.
 */
template <typename Sim, typename Config>
RunLog
runLog(const HybridSpec &spec, bool keyed, const Config &cfg,
       const std::vector<std::uint64_t> &forks = {})
{
    Program p = generateProgram(recipe());
    auto h = keyed ? spec.build() : buildUnkeyed(spec);
    const std::uint64_t total = cfg.warmupBranches + cfg.measureBranches;

    RunLog log(forks.size() + 1);
    std::vector<RecordingSink> sinks(log.size());
    std::vector<StatRegistry> regs(log.size());

    Config canon_cfg = cfg;
    canon_cfg.commitSink = &sinks[0];
    canon_cfg.statsOut = &regs[0];
    Sim canon(p, *h, canon_cfg);
    ProgramWalkStream stream(p, total);
    canon.beginRun(stream);
    for (std::size_t k = 0; k < forks.size(); ++k) {
        canon.stepUntil(forks[k], stream);
        EXPECT_LT(canon.committedSoFar(), cfg.warmupBranches);
        auto fork_hybrid = h->clone();
        Config fork_cfg = cfg;
        fork_cfg.commitSink = &sinks[k + 1];
        fork_cfg.statsOut = &regs[k + 1];
        ProgramWalkStream fork_stream(stream, total);
        Sim fork(canon, *fork_hybrid, fork_cfg, fork_stream);
        fork.finishRun(fork_stream);
    }
    canon.finishRun(stream);

    for (std::size_t i = 0; i < log.size(); ++i) {
        log[i].events = std::move(sinks[i].events);
        log[i].stats = regs[i].simJson();
    }
    return log;
}

/** The first difference between two logs, or "" when equal. */
std::string
diff(const RunLog &a, const RunLog &b)
{
    for (std::size_t s = 0; s < a.size(); ++s) {
        const std::string sim =
            s == 0 ? "canonical" : "fork " + std::to_string(s);
        const auto &x = a[s].events;
        const auto &y = b[s].events;
        if (x.size() != y.size())
            return sim + ": " + std::to_string(x.size()) + " vs " +
                   std::to_string(y.size()) + " commits";
        for (std::size_t i = 0; i < x.size(); ++i) {
            const CommitEvent &e = x[i];
            const CommitEvent &f = y[i];
            if (e.index != f.index || e.block != f.block ||
                e.pc != f.pc || e.numUops != f.numUops ||
                e.btbHit != f.btbHit || e.prophetPred != f.prophetPred ||
                e.finalPred != f.finalPred ||
                e.critiqueProvided != f.critiqueProvided ||
                e.criticOverrode != f.criticOverrode ||
                e.outcome != f.outcome) {
                return sim + ": commit " + std::to_string(i) + " differs";
            }
        }
        if (a[s].stats != b[s].stats)
            return sim + ": stats dumps differ";
    }
    return "";
}

/** One matrix point. */
struct Point
{
    ProphetKind prophet;
    Budget budget;
    std::optional<CriticKind> critic;
    unsigned fb;
};

/** Every prophet x critic x future-bit point for a simulator. */
std::vector<Point>
matrix(unsigned max_fb)
{
    std::vector<std::pair<ProphetKind, Budget>> prophets;
    for (ProphetKind k : allProphetKinds())
        prophets.push_back({k, Budget::B8KB});
    prophets.push_back({ProphetKind::Tage, Budget::B32KB});

    std::vector<Point> points;
    for (const auto &[kind, budget] : prophets) {
        points.push_back({kind, budget, std::nullopt, 0});
        for (CriticKind c : allCriticKinds())
            for (unsigned fb : {0u, 1u, max_fb})
                points.push_back({kind, budget, c, fb});
    }
    return points;
}

HybridSpec
specFor(const Point &pt)
{
    HybridSpec s;
    s.prophet = pt.prophet;
    s.prophetBudget = pt.budget;
    s.critic = pt.critic;
    s.futureBits = pt.fb;
    return s;
}

std::string
label(const HybridSpec &s)
{
    return s.label() + " @" + std::to_string(s.futureBits) + "fb";
}

/** Keyed == decorated over the matrix, with @p tweak applied. */
template <typename Sim, typename Config>
void
expectKeyedMatchesUnkeyed(const Config &cfg, unsigned max_fb,
                          void (*tweak)(HybridSpec &),
                          const std::vector<std::uint64_t> &forks = {})
{
    for (const Point &pt : matrix(max_fb)) {
        HybridSpec spec = specFor(pt);
        if (tweak)
            tweak(spec);
        const RunLog keyed = runLog<Sim>(spec, true, cfg, forks);
        const RunLog ref = runLog<Sim>(spec, false, cfg, forks);
        ASSERT_FALSE(keyed[0].events.empty());
        const std::string d = diff(keyed, ref);
        EXPECT_EQ(d, "") << label(spec);
    }
}

EngineConfig
engineConfig()
{
    EngineConfig cfg;
    cfg.warmupBranches = 400;
    cfg.measureBranches = 2400;
    return cfg;
}

TimingConfig
timingConfig()
{
    TimingConfig cfg;
    cfg.warmupBranches = 400;
    // A fork needs measure >= window + retire (timingForkable).
    cfg.measureBranches = 2100;
    return cfg;
}

const unsigned engineMaxFb = futureBitsLimit(false) - 1;
const unsigned timingMaxFb = futureBitsLimit(true) - 1;

TEST(KeyedCalls, EngineMatchesUnkeyed)
{
    expectKeyedMatchesUnkeyed<Engine>(engineConfig(), engineMaxFb,
                                      nullptr);
}

TEST(KeyedCalls, TimingMatchesUnkeyed)
{
    expectKeyedMatchesUnkeyed<TimingSim>(timingConfig(), timingMaxFb,
                                         nullptr);
}

TEST(KeyedCalls, SmallBtbMatchesUnkeyed)
{
    // 16 sets x 4 ways over a 300-block program: BTB-miss records,
    // which carry no key, commit throughout the run.
    EngineConfig ecfg = engineConfig();
    ecfg.btbEntries = 64;
    TimingConfig tcfg = timingConfig();
    tcfg.btbEntries = 64;
    expectKeyedMatchesUnkeyed<Engine>(ecfg, engineMaxFb, nullptr);
    expectKeyedMatchesUnkeyed<TimingSim>(tcfg, timingMaxFb, nullptr);

    Program p = generateProgram(recipe());
    auto h = specFor({ProphetKind::Gshare, Budget::B8KB, std::nullopt, 0})
                 .build();
    const EngineStats st = Engine(p, *h, ecfg).run();
    EXPECT_GT(st.btbMisses, st.committedBranches / 10)
        << "the small BTB must miss often";
}

TEST(KeyedCalls, RetiredHistoryAblationMatchesUnkeyed)
{
    auto retired = [](HybridSpec &s) { s.speculativeHistory = false; };
    expectKeyedMatchesUnkeyed<Engine>(engineConfig(), engineMaxFb,
                                      retired);
    expectKeyedMatchesUnkeyed<TimingSim>(timingConfig(), timingMaxFb,
                                         retired);
}

TEST(KeyedCalls, NoRepairAblationMatchesUnkeyed)
{
    auto no_repair = [](HybridSpec &s) { s.repairHistory = false; };
    expectKeyedMatchesUnkeyed<Engine>(engineConfig(), engineMaxFb,
                                      no_repair);
    expectKeyedMatchesUnkeyed<TimingSim>(timingConfig(), timingMaxFb,
                                         no_repair);
}

TEST(KeyedCalls, OracleFutureBitsMatchUnkeyed)
{
    // The timing model has no oracle mode.
    EngineConfig cfg = engineConfig();
    cfg.oracleFutureBits = true;
    expectKeyedMatchesUnkeyed<Engine>(cfg, engineMaxFb, nullptr);
}

TEST(KeyedCalls, ForkChainMatchesUnkeyed)
{
    // Forks mid-warmup and at the last in-warmup snapshot; each fork
    // commits records whose keys were filled before it was taken.
    const EngineConfig ecfg = engineConfig();
    expectKeyedMatchesUnkeyed<Engine>(
        ecfg, engineMaxFb, nullptr,
        {ecfg.warmupBranches / 2, ecfg.warmupBranches - 1});
    const TimingConfig tcfg = timingConfig();
    expectKeyedMatchesUnkeyed<TimingSim>(
        tcfg, timingMaxFb, nullptr,
        {tcfg.warmupBranches / 2, tcfg.warmupBranches - tcfg.retireWidth});
}

} // namespace
} // namespace pcbp
