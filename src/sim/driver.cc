#include "sim/driver.hh"

#include <algorithm>
#include <cstdlib>

#include "common/cli_parse.hh"
#include "common/logging.hh"

namespace pcbp
{

std::string
HybridSpec::label() const
{
    std::string s = budgetName(prophetBudget) + " " +
                    prophetKindName(prophet);
    if (critic) {
        s += " + " + budgetName(criticBudget) + " " +
             criticKindName(*critic);
    }
    return s;
}

std::unique_ptr<ProphetCriticHybrid>
HybridSpec::build() const
{
    HybridConfig cfg;
    cfg.numFutureBits = critic ? futureBits : 0;
    cfg.speculativeHistoryUpdate = speculativeHistory;
    cfg.repairHistory = repairHistory;
    return std::make_unique<ProphetCriticHybrid>(
        makeProphet(prophet, prophetBudget),
        critic ? makeCritic(*critic, criticBudget, filterTagBits)
               : nullptr,
        cfg);
}

HybridSpec
prophetAlone(ProphetKind kind, Budget budget)
{
    HybridSpec s;
    s.prophet = kind;
    s.prophetBudget = budget;
    s.critic.reset();
    s.futureBits = 0;
    return s;
}

HybridSpec
hybridSpec(ProphetKind prophet, Budget prophet_budget, CriticKind critic,
           Budget critic_budget, unsigned future_bits)
{
    HybridSpec s;
    s.prophet = prophet;
    s.prophetBudget = prophet_budget;
    s.critic = critic;
    s.criticBudget = critic_budget;
    s.futureBits = future_bits;
    return s;
}

double
benchScale()
{
    static const double scale =
        parseBenchScale(std::getenv("PCBP_BENCH_SCALE"));
    return scale;
}

double
parseBenchScale(const char *value)
{
    if (!value)
        return 1.0;
    const double v = parseNonNegativeArg("PCBP_BENCH_SCALE", value);
    if (v <= 0.0)
        pcbp_fatal("PCBP_BENCH_SCALE must be above 0, got '", value, "'");
    return v;
}

std::uint64_t
scaleCount(double count, double scale, const char *what)
{
    const double v = count * scale;
    // 2^64 is exact in a double; converting anything at or above it
    // (or a NaN) to std::uint64_t is undefined.
    if (!(v >= 0.0 && v < 18446744073709551616.0)) {
        pcbp_fatal(what, " times PCBP_BENCH_SCALE ", scale,
                   " does not fit in 64 bits");
    }
    return static_cast<std::uint64_t>(v);
}

EngineConfig
engineConfigFor(const Workload &w)
{
    EngineConfig cfg;
    cfg.measureBranches = scaleCount(double(w.simBranches), benchScale(),
                                     "the workload budget");
    cfg.warmupBranches = scaleCount(double(w.warmupBranches),
                                    benchScale(), "the workload budget");
    cfg.measureBranches = std::max<std::uint64_t>(cfg.measureBranches,
                                                  1000);
    cfg.warmupBranches = std::max<std::uint64_t>(cfg.warmupBranches, 100);
    return cfg;
}

unsigned
futureBitsLimit(bool timing)
{
    return timing ? static_cast<unsigned>(TimingConfig{}.ftqSize)
                  : EngineConfig{}.pipelineDepth;
}

EngineStats
runAccuracy(const Workload &w, const HybridSpec &spec)
{
    return runAccuracy(w, spec, engineConfigFor(w));
}

EngineStats
runAccuracy(const Workload &w, const HybridSpec &spec,
            const EngineConfig &config)
{
    const Program program = buildProgram(w);
    return runAccuracyChain(w, program, spec, {config})[0];
}

H2PReport
runH2P(const Workload &w, const HybridSpec &spec,
       const EngineConfig &config, const H2PConfig &h2p,
       EngineStats *stats)
{
    pcbp_assert(config.commitSink == nullptr,
                "runH2P owns the commit tap; profile through your own "
                "sink instead of passing one here");
    H2PProfiler profiler(config.warmupBranches);
    EngineConfig cfg = config;
    cfg.commitSink = &profiler;
    const EngineStats st = runAccuracy(w, spec, cfg);
    if (stats)
        *stats = st;
    if (config.statsOut)
        profiler.exportStats(*config.statsOut);
    H2PReport report = profiler.report(h2p);
    report.workload = w.name;
    report.config = spec.label();
    return report;
}

H2PReport
runH2P(const Workload &w, const HybridSpec &spec, const H2PConfig &h2p)
{
    return runH2P(w, spec, engineConfigFor(w), h2p);
}

bool
forkable(const EngineConfig &config)
{
    return config.commitSink == nullptr && config.warmupBranches >= 1 &&
           !config.oracleFutureBits;
}

bool
forkable(const TimingConfig &config)
{
    return config.commitSink == nullptr && config.warmupBranches >= 1 &&
           timingForkable(config);
}

namespace
{

/**
 * Shared chain body (DESIGN.md §11) and the only code that builds a
 * run's hybrid, simulator and stream: run the canonical (largest
 * budget) point, pausing at each earlier point's snapshot target to
 * fork cloned {predictor, stream, simulator} state over the shared
 * program; each fork then runs only its own remainder. Sim is Engine
 * or TimingSim (same split-phase surface).
 */
template <typename Sim, typename Config, typename Stats>
std::vector<Stats>
chainImpl(const Workload &w, const Program &program,
          const HybridSpec &spec, const std::vector<Config> &configs,
          std::uint64_t (*snapshot_target)(const Config &),
          ChainObs *obs)
{
    pcbp_assert(!configs.empty());
    if (configs.size() > 1) {
        for (const Config &c : configs)
            pcbp_assert(forkable(c), "a config that cannot fork joined "
                                     "a chain of several");
    }

    // Snapshot points must be visited oldest-first; the canonical is
    // the lexicographic-max (warmup, measure) point, so it is still
    // running when every earlier point forks.
    std::vector<std::size_t> order(configs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (configs[a].warmupBranches !=
                      configs[b].warmupBranches) {
                      return configs[a].warmupBranches <
                             configs[b].warmupBranches;
                  }
                  return configs[a].measureBranches <
                         configs[b].measureBranches;
              });

    auto hybrid = spec.build();
    const Config &canon = configs[order.back()];
    Sim sim(program, *hybrid, canon);

    std::vector<Stats> results(configs.size());

    const auto drive = [&](CommittedStream &stream,
                           const auto &make_fork) {
        sim.beginRun(stream);
        for (std::size_t k = 0; k + 1 < order.size(); ++k) {
            const Config &cfg = configs[order[k]];
            sim.stepUntil(snapshot_target(cfg), stream);
            auto fork_hybrid = hybrid->clone();
            auto fork_stream =
                make_fork(cfg.warmupBranches + cfg.measureBranches);
            Sim fork_sim(sim, *fork_hybrid, cfg, *fork_stream);
            results[order[k]] = fork_sim.finishRun(*fork_stream);
            if (obs)
                obs->warmupBranchesSaved += sim.committedSoFar();
        }
        results[order.back()] = sim.finishRun(stream);
    };

    if (!w.tracePath.empty()) {
        auto stream = openTraceStream(w.tracePath);
        drive(*stream, [&](std::uint64_t) {
            return std::make_unique<CompressedTraceStream>(*stream);
        });
    } else {
        ProgramWalkStream stream(
            program, canon.warmupBranches + canon.measureBranches);
        drive(stream, [&](std::uint64_t limit) {
            return std::make_unique<ProgramWalkStream>(stream, limit);
        });
    }
    return results;
}

} // namespace

std::vector<EngineStats>
runAccuracyChain(const Workload &w, const Program &program,
                 const HybridSpec &spec,
                 const std::vector<EngineConfig> &configs, ChainObs *obs)
{
    // Commit-side stats of branch N are recorded before the cursor
    // advances but flush-side stats after, so the latest in-warmup
    // loop-top is exactly warmup - 1 committed branches.
    return chainImpl<Engine, EngineConfig, EngineStats>(
        w, program, spec, configs,
        [](const EngineConfig &c) { return c.warmupBranches - 1; },
        obs);
}

std::vector<TimingStats>
runTimingChain(const Workload &w, const Program &program,
               const HybridSpec &spec,
               const std::vector<TimingConfig> &configs, ChainObs *obs)
{
    // Cycle-boundary stops overshoot by up to retireWidth - 1
    // commits, so aim a full retire burst short of the warmup edge.
    return chainImpl<TimingSim, TimingConfig, TimingStats>(
        w, program, spec, configs,
        [](const TimingConfig &c) {
            return c.warmupBranches > c.retireWidth
                       ? c.warmupBranches - c.retireWidth
                       : 0;
        },
        obs);
}

TimingConfig
timingConfigFor(const Workload &w)
{
    TimingConfig cfg;
    // Timing runs are ~10x slower per branch than accuracy runs, so
    // use a third of the workload's accuracy budget.
    cfg.measureBranches = std::max<std::uint64_t>(
        scaleCount(double(w.simBranches) / 3.0, benchScale(),
                   "the workload budget"),
        1000);
    cfg.warmupBranches =
        std::max<std::uint64_t>(cfg.measureBranches / 10, 100);
    return cfg;
}

TimingStats
runTiming(const Workload &w, const HybridSpec &spec)
{
    return runTiming(w, spec, timingConfigFor(w));
}

TimingStats
runTiming(const Workload &w, const HybridSpec &spec,
          const TimingConfig &config)
{
    const Program program = buildProgram(w);
    return runTimingChain(w, program, spec, {config})[0];
}

double
meanUpc(const std::vector<TimingStats> &runs)
{
    if (runs.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : runs)
        sum += r.upc();
    return sum / double(runs.size());
}

} // namespace pcbp
