#include "bench.hh"

#include <algorithm>
#include <fstream>
#include <iterator>

#include "core/presets.hh"

namespace perfbench
{

double
clockOverheadNs()
{
    static const double overhead = [] {
        std::vector<double> v;
        for (int i = 0; i < 1001; ++i) {
            const std::uint64_t t0 = nowNs();
            v.push_back(double(nowNs() - t0));
        }
        return median(v);
    }();
    return overhead;
}

namespace
{

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
ratio(double a, double b)
{
    return b != 0 ? a / b : 0.0;
}

/** HybridSpec::build() with the prophet and critic wrapped. */
std::unique_ptr<pcbp::ProphetCriticHybrid>
timedHybrid(const pcbp::HybridSpec &spec, CellProbe &probe)
{
    pcbp::HybridConfig cfg;
    cfg.numFutureBits = spec.critic ? spec.futureBits : 0;
    cfg.speculativeHistoryUpdate = spec.speculativeHistory;
    cfg.repairHistory = spec.repairHistory;
    pcbp::FilteredPredictorPtr critic;
    if (spec.critic) {
        critic = std::make_unique<TimedCritic>(
            pcbp::makeCritic(*spec.critic, spec.criticBudget,
                             spec.filterTagBits),
            probe);
    }
    return std::make_unique<pcbp::ProphetCriticHybrid>(
        std::make_unique<TimedPredictor>(
            pcbp::makeProphet(spec.prophet, spec.prophetBudget), probe),
        std::move(critic), cfg);
}

} // namespace

pcbp::Workload
seededWorkload(const std::string &name, std::uint64_t seed,
               std::uint64_t variant)
{
    pcbp::Workload w = pcbp::workloadByName(name);
    if (seed != kDefaultSeed) {
        w.recipe.seed = splitmix64(w.recipe.seed ^ splitmix64(seed) ^
                                   splitmix64(~variant));
    }
    return w;
}

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    return fnv1a(bytes.data(), bytes.size());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<std::pair<std::string, std::uint64_t>>
simOutputs(const pcbp::EngineStats &s)
{
    return {{"committed_branches", s.committedBranches},
            {"committed_uops", s.committedUops},
            {"final_mispredicts", s.finalMispredicts},
            {"prophet_mispredicts", s.prophetMispredicts},
            {"critic_overrides", s.criticOverrides}};
}

std::vector<std::pair<std::string, std::uint64_t>>
simOutputs(const pcbp::TimingStats &s)
{
    return {{"committed_branches", s.committedBranches},
            {"committed_uops", s.committedUops},
            {"final_mispredicts", s.finalMispredicts},
            {"critic_overrides", s.criticOverrides},
            {"cycles", s.cycles}};
}

void
LayerAcc::addCell(const CellDef &cell, const CellProbe &probe,
                  double run_ns, const pcbp::EngineStats *engine,
                  const pcbp::TimingStats *timing, bool trace_stream)
{
    const std::uint64_t measured =
        engine ? engine->committedBranches : timing->committedBranches;

    Sim &sim = engine ? engineSim : timingSim;
    sim.runNs += run_ns;
    sim.childNs += probe.childNs();
    sim.branches += cell.branches();
    sim.measured += measured;
    if (engine)
        sim.wrongPath += engine->wrongPathBranches;
    else
        sim.cycles += timing->cycles;

    addStream(probe.stream, trace_stream);

    Component &p = prophets[pcbp::prophetKindName(cell.spec.prophet)];
    p.calls[0] += probe.predict.calls;
    p.ns[0] += probe.predict.estimatedNs();
    p.calls[1] += probe.update.calls;
    p.ns[1] += probe.update.estimatedNs();
    p.branches += cell.branches();
    p.runNs += run_ns;

    if (cell.spec.critic) {
        Component &c = critics[pcbp::criticKindName(*cell.spec.critic)];
        c.calls[0] += probe.critique.calls;
        c.ns[0] += probe.critique.estimatedNs();
        c.calls[1] += probe.train.calls;
        c.ns[1] += probe.train.estimatedNs();
        c.branches += cell.branches();
        c.hits += probe.filterHits;
        c.overrides += engine ? engine->criticOverrides
                              : timing->criticOverrides;
        c.measured += measured;
    }
}

void
LayerAcc::addStream(const CallTimer &timer, bool trace_stream)
{
    Stream &stream = trace_stream ? decode : walk;
    stream.calls += timer.calls;
    stream.ns += timer.estimatedNs();
}

std::map<std::string, double>
LayerAcc::metrics() const
{
    std::map<std::string, double> m;
    if (!buildProgramMs.empty())
        m["workload.build_program_ms"] = median(buildProgramMs);
    if (!cellFixedMs.empty())
        m["sim.cell_fixed_ms"] = median(cellFixedMs);
    if (walk.calls)
        m["workload.walk_ns_per_branch"] = ratio(walk.ns, double(walk.calls));
    if (decode.calls) {
        m["workload.trace2.decode_ns_per_branch"] =
            ratio(decode.ns, double(decode.calls));
    }
    for (const auto &[kind, p] : prophets) {
        const std::string k = "predictors." + kind + ".";
        m[k + "predict_calls_per_branch"] =
            ratio(double(p.calls[0]), double(p.branches));
        m[k + "predict_ns"] = ratio(p.ns[0], double(p.calls[0]));
        m[k + "update_ns"] = ratio(p.ns[1], double(p.calls[1]));
        m[k + "share"] = ratio(p.ns[0] + p.ns[1], p.runNs);
    }
    for (const auto &[kind, c] : critics) {
        const std::string k = "core." + kind + ".";
        m[k + "critique_calls_per_branch"] =
            ratio(double(c.calls[0]), double(c.branches));
        m[k + "critique_ns"] = ratio(c.ns[0], double(c.calls[0]));
        m[k + "train_ns"] = ratio(c.ns[1], double(c.calls[1]));
        m[k + "filter_hit_ratio"] =
            ratio(double(c.hits), double(c.calls[0]));
        m[k + "override_ratio"] =
            ratio(double(c.overrides), double(c.measured));
    }
    if (engineSim.branches) {
        m["sim.engine.self_ns_per_branch"] =
            ratio(engineSim.runNs - engineSim.childNs,
                  double(engineSim.branches));
        m["sim.wrong_path_ratio"] =
            ratio(double(engineSim.wrongPath), double(engineSim.measured));
    }
    if (timingSim.branches) {
        m["sim.timing.self_ns_per_branch"] =
            ratio(timingSim.runNs - timingSim.childNs,
                  double(timingSim.branches));
        m["sim.timing.cycles_per_branch"] =
            ratio(double(timingSim.cycles), double(timingSim.measured));
    }
    return m;
}

Op
runCell(const CellDef &cell, pcbp::Program &program,
        pcbp::CommittedStream &stream, LayerAcc *layers, bool trace_stream)
{
    Op op;
    op.name = cell.name;
    (cell.timing ? op.timBranches : op.accBranches) = cell.branches();
    CellProbe probe;

    const std::uint64_t t0 = nowNs();
    const auto hybrid =
        layers ? timedHybrid(cell.spec, probe) : cell.spec.build();

    double run_ns = 0;
    const auto simulate = [&](auto &sim) {
        const std::uint64_t t1 = nowNs();
        if (layers)
            layers->cellFixedMs.push_back(double(t1 - t0) / 1e6);
        auto stats = [&] {
            if (!layers)
                return sim.run(stream);
            TimedStream timed(stream, probe.stream);
            return sim.run(timed);
        }();
        run_ns = double(nowNs() - t1);
        return stats;
    };

    if (cell.timing) {
        pcbp::TimingSim sim(program, *hybrid, cell.timingCfg);
        const pcbp::TimingStats s = simulate(sim);
        op.out = simOutputs(s);
        if (layers)
            layers->addCell(cell, probe, run_ns, nullptr, &s, trace_stream);
    } else {
        pcbp::Engine sim(program, *hybrid, cell.engine);
        const pcbp::EngineStats s = simulate(sim);
        op.out = simOutputs(s);
        if (layers)
            layers->addCell(cell, probe, run_ns, &s, nullptr, trace_stream);
    }
    return op;
}

bool
morePasses(const Report &report, std::uint64_t start_ns, double seconds,
           std::size_t min_passes)
{
    // Stop before a pass that would likely end past the deadline.
    const double elapsed = double(nowNs() - start_ns) / 1e9;
    const std::size_t done = report.passes.size();
    return done < min_passes || elapsed + elapsed / double(done) <= seconds;
}

} // namespace perfbench
