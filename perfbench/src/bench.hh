/**
 * @file
 * Shared pieces of the perfbench workload program: options, seeded
 * workloads, one simulated cell with or without the timing
 * decorators, per-layer accumulation, and the result record that
 * perfbench/run.py turns into the benchmark's metrics.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "probes.hh"
#include "sim/driver.hh"

namespace perfbench
{

/** The seed that keeps the registry recipes unchanged. */
constexpr std::uint64_t kDefaultSeed = 1;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    unsigned jobs = 1;
    std::string workDir;   //!< working directory, empty on entry
    std::string goldenDir; //!< tests/golden/repro_quick, read-only
};

/**
 * Registry workload @p name with its recipe re-seeded from @p seed and
 * @p variant (distinct variants are distinct programs); kDefaultSeed
 * returns the registry recipe unchanged for every variant.
 */
pcbp::Workload seededWorkload(const std::string &name, std::uint64_t seed,
                              std::uint64_t variant = 0);

/** 64-bit FNV-1a, continued from @p h. */
std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t h = 14695981039346656037ull);

/** FNV-1a of a whole file (0 when unreadable). */
std::uint64_t fileDigest(const std::string &path);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** One checked operation: its name and the outputs it produced. */
struct Op
{
    std::string name;
    std::vector<std::pair<std::string, std::uint64_t>> out;
    /** False when the op could tell on its own that it went wrong. */
    bool ok = true;
    /** Host seconds the op took. */
    double seconds = 0;
    /** Committed branches it simulated through Engine / TimingSim,
     *  warmup included. */
    std::uint64_t accBranches = 0;
    std::uint64_t timBranches = 0;
};

/** One timed pass over a workload's operations. */
struct Pass
{
    bool traced = false;
    double wallS = 0; //!< the pass, end to end
    std::vector<Op> ops;
    /** Per-layer metrics (traced passes only). */
    std::map<std::string, double> layers;
};

/** What one workload process reports back to the harness. */
struct Report
{
    std::vector<double> setupS; //!< one entry per set-up repetition
    std::vector<Pass> passes;
    /** Files the harness reads for layers it derives itself. */
    std::map<std::string, std::string> files;
};

/** The simulated statistics a cell is checked on. */
std::vector<std::pair<std::string, std::uint64_t>>
simOutputs(const pcbp::EngineStats &s);
std::vector<std::pair<std::string, std::uint64_t>>
simOutputs(const pcbp::TimingStats &s);

/** One cell of a workload: a predictor recipe on one simulator. */
struct CellDef
{
    std::string name;
    pcbp::HybridSpec spec;
    bool timing = false;
    pcbp::EngineConfig engine;
    pcbp::TimingConfig timingCfg;

    std::uint64_t
    branches() const
    {
        return timing ? timingCfg.warmupBranches + timingCfg.measureBranches
                      : engine.warmupBranches + engine.measureBranches;
    }
};

/** Totals of the traced cells, turned into per-layer metrics. */
class LayerAcc
{
  public:
    /**
     * Fold in one traced cell: its probe, the wall time of its run()
     * call, and the simulated statistics it produced. @p trace_stream
     * says whether the stream was a trace decode or a CFG walk.
     */
    void addCell(const CellDef &cell, const CellProbe &probe, double run_ns,
                 const pcbp::EngineStats *engine,
                 const pcbp::TimingStats *timing, bool trace_stream);

    /** Fold in stream production timed outside a cell. */
    void addStream(const CallTimer &timer, bool trace_stream);

    /** Named per-layer metrics (see perfbench/README.md). */
    std::map<std::string, double> metrics() const;

    std::vector<double> buildProgramMs;
    std::vector<double> cellFixedMs;

  private:
    struct Component
    {
        std::uint64_t calls[2] = {0, 0};
        double ns[2] = {0, 0};
        std::uint64_t branches = 0;
        double runNs = 0;
        std::uint64_t hits = 0;
        std::uint64_t overrides = 0;
        std::uint64_t measured = 0;
    };
    struct Sim
    {
        double runNs = 0;
        double childNs = 0;
        std::uint64_t branches = 0;
        std::uint64_t measured = 0;
        std::uint64_t wrongPath = 0;
        std::uint64_t cycles = 0;
    };
    struct Stream
    {
        std::uint64_t calls = 0;
        double ns = 0;
    };

    std::map<std::string, Component> prophets;
    std::map<std::string, Component> critics;
    Sim engineSim, timingSim;
    Stream walk, decode;
};

/**
 * Run @p cell over the fresh stream @p stream, on @p program. With
 * @p layers set, the prophet, critic and stream are wrapped in the
 * timing decorators and the cell is folded into @p layers. The
 * caller times the op.
 */
Op runCell(const CellDef &cell, pcbp::Program &program,
           pcbp::CommittedStream &stream, LayerAcc *layers,
           bool trace_stream);

/** @name The workloads. Each fills @p report until the time is up. */
/// @{
void runEngineLong(const Options &opt, Report &report);
void runTraceReplay(const Options &opt, Report &report);
void runReproQuick(const Options &opt, Report &report);
/// @}

/**
 * Whether another pass fits: at least @p min_passes run, then passes
 * continue while one more pass of average length ends within
 * @p seconds of @p start_ns.
 */
bool morePasses(const Report &report, std::uint64_t start_ns,
                double seconds, std::size_t min_passes);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
