#include "workload/suites.hh"

#include <algorithm>
#include <deque>
#include <mutex>

#include "common/logging.hh"
#include "workload/trace.hh"
#include "workload/trace2.hh"

namespace pcbp
{

namespace
{

/** Base recipe shared by all workloads; fields overridden below. */
WorkloadRecipe
base(const std::string &name, std::uint64_t seed)
{
    WorkloadRecipe r;
    r.name = name;
    r.seed = seed;
    // Global defaults tuned so prophet-alone accuracy lands in the
    // paper's 90-95% band: quiet biased/loop filler, a little noise.
    r.wBiased = 2.5;
    r.wLoop = 0.8;
    r.wPattern = 1.0;
    r.wLocalParity = 0.25;
    r.wPhased = 0.3;
    r.wNoise = 0.08;
    return r;
}

Workload
make(const std::string &name, const std::string &suite,
     WorkloadRecipe recipe, std::uint64_t branches = 250000)
{
    Workload w;
    w.name = name;
    w.suite = suite;
    w.recipe = std::move(recipe);
    w.simBranches = branches;
    w.warmupBranches = branches / 10;
    return w;
}

std::vector<Workload>
buildRegistry()
{
    std::vector<Workload> ws;

    // ------------------------------------------------ Fig. 5 set
    // Prophet for Fig. 5 is an 8KB perceptron (28-bit history);
    // critic an 8KB tagged gshare (18-bit BOR). The echo-chain
    // consumers are fixed once the relays enter the critique window
    // (the last consumer from ~4 future bits, the first from ~9), so
    // chain depth and mix shape the future-bit response.

    {
        // unzip: mispredict rate keeps dropping as future bits grow.
        // Deep three-consumer chains dominate the fixable content.
        auto r = base("unzip", 11);
        r.targetBlocks = 420;
        r.numChains = 24;
        r.chainLagHi = 19;
        r.chainGapLo = 0;
        r.chainGapHi = 5;
        r.numPhaseChains = 0;
        r.wNoise = 0.1;
        ws.push_back(make("unzip", "FIG5", r, 300000));
    }
    {
        // premiere: most of the gain arrives with the first couple
        // of future bits (phase information enters through the deep
        // BOR history) and high counts slowly give it back.
        auto r = base("premiere", 12);
        r.targetBlocks = 420;
        r.numChains = 0;
        r.numPhaseChains = 12;
        r.phaseClockLo = 250;
        r.phaseClockHi = 900;
        r.wPhased = 0.4;
        r.wNoise = 0.15;
        ws.push_back(make("premiere", "FIG5", r, 300000));
    }
    {
        // msvc7: improves to 8 future bits, then regresses — two-
        // consumer chains (fixed from ~4-7 bits) plus phase chains
        // and short-lag parity content that need the critic's
        // history window.
        auto r = base("msvc7", 13);
        r.targetBlocks = 540;
        r.numChains = 12;
        r.chainGapLo = 1;
        r.chainGapHi = 4;
        r.numPhaseChains = 6;
        r.wGlobalParity = 0.5;
        r.gparLagLo = 6;
        r.gparLagHi = 9;
        r.wNoise = 0.15;
        ws.push_back(make("msvc7", "FIG5", r, 300000));
    }
    {
        // flash: best near 4 future bits — single-consumer chains
        // (fixed from ~4 bits) plus a lot of low-bit content that
        // dies when future bits displace the history window.
        auto r = base("flash", 14);
        r.targetBlocks = 460;
        r.numChains = 8;
        r.chainGapLo = 0;
        r.chainGapHi = 0;
        r.numPhaseChains = 8;
        r.phaseClockLo = 200;
        r.phaseClockHi = 700;
        r.wGlobalParity = 1.2;
        r.gparLagLo = 5;
        r.gparLagHi = 8;
        r.wNoise = 0.12;
        ws.push_back(make("flash", "FIG5", r, 300000));
    }
    {
        // facerec: FP-style, mostly easy, insensitive to future bits.
        auto r = base("facerec", 15);
        r.targetBlocks = 160;
        r.minUops = 10;
        r.maxUops = 34;
        r.numChains = 1;
        r.numPhaseChains = 0;
        r.wBiased = 3.0;
        r.wLoop = 3.0;
        r.loopLo = 8;
        r.loopHi = 40;
        r.wNoise = 0.1;
        r.wLocalParity = 0.1;
        r.wPhased = 0.1;
        ws.push_back(make("facerec", "FIG5", r, 300000));
    }
    {
        // tpcc: server-style, large footprint, heavy noise; only the
        // first future bit helps, more bits slightly hurt.
        auto r = base("tpcc", 16);
        r.targetBlocks = 4200;
        r.numChains = 0;
        r.numPhaseChains = 3;
        r.wNoise = 0.25;
        r.wPhased = 0.8;
        r.phasedLo = 100;
        r.phasedHi = 600;
        r.phasedBiasA = 0.88;
        r.phasedBiasB = 0.18;
        r.wPattern = 0.6;
        r.oneShotFrac = 0.3;
        ws.push_back(make("tpcc", "FIG5", r, 300000));
    }

    // ------------------------------------------------ gcc (headline)
    {
        auto r = base("gcc", 21);
        r.targetBlocks = 2600;
        r.numChains = 4;
        r.numPhaseChains = 28;
        r.phaseClockLo = 250;
        r.phaseClockHi = 1000;
        r.wGlobalParity = 0.4;
        r.wNoise = 0.12;
        r.wPhased = 0.3;
        ws.push_back(make("gcc", "GCC", r, 300000));
    }

    // ------------------------------------------------ Suites
    // Two representatives per suite; together they form the AVG set.

    {
        // INT00: control-heavy integer codes, big critic gains.
        auto r = base("int.crafty", 31);
        r.targetBlocks = 900;
        r.numChains = 8;
        r.numPhaseChains = 6;
        r.wGlobalParity = 0.35;
        r.wNoise = 0.25;
        ws.push_back(make("int.crafty", "INT00", r));

        auto r2 = base("int.parser", 32);
        r2.targetBlocks = 1300;
        r2.numChains = 6;
        r2.numPhaseChains = 8;
        r2.wLocalParity = 0.6;
        r2.wGlobalParity = 0.3;
        r2.wNoise = 0.25;
        ws.push_back(make("int.parser", "INT00", r2));
    }
    {
        // FP00: loop-dominated, long blocks, very predictable.
        auto r = base("fp.ammp", 41);
        r.targetBlocks = 150;
        r.minUops = 12;
        r.maxUops = 40;
        r.numChains = 1;
        r.numPhaseChains = 1;
        r.wBiased = 3.5;
        r.wLoop = 4.0;
        r.loopLo = 10;
        r.loopHi = 50;
        r.wNoise = 0.05;
        r.wLocalParity = 0.05;
        r.wPhased = 0.1;
        ws.push_back(make("fp.ammp", "FP00", r));

        auto r2 = base("fp.swim", 42);
        r2.targetBlocks = 100;
        r2.minUops = 14;
        r2.maxUops = 44;
        r2.numChains = 1;
        r2.numPhaseChains = 0;
        r2.wBiased = 3.0;
        r2.wLoop = 5.0;
        r2.loopLo = 16;
        r2.loopHi = 64;
        r2.wNoise = 0.03;
        r2.wPattern = 1.5;
        r2.wLocalParity = 0.0;
        r2.wPhased = 0.05;
        ws.push_back(make("fp.swim", "FP00", r2));
    }
    {
        // WEB: request-phase behavior plus some deep chains.
        auto r = base("web.jbb", 51);
        r.targetBlocks = 1500;
        r.numChains = 3;
        r.numPhaseChains = 12;
        r.phaseClockLo = 250;
        r.phaseClockHi = 1200;
        r.wPhased = 0.8;
        r.wNoise = 0.25;
        ws.push_back(make("web.jbb", "WEB", r));

        auto r2 = base("web.mark", 52);
        r2.targetBlocks = 1100;
        r2.numChains = 5;
        r2.numPhaseChains = 8;
        r2.wPhased = 0.6;
        r2.wNoise = 0.25;
        r2.wGlobalParity = 0.25;
        ws.push_back(make("web.mark", "WEB", r2));
    }
    {
        // MM: media kernels — loops and patterns, some hard content.
        auto r = base("mm.mpeg", 61);
        r.targetBlocks = 380;
        r.minUops = 8;
        r.maxUops = 28;
        r.numChains = 4;
        r.numPhaseChains = 2;
        r.wLoop = 3.0;
        r.wPattern = 2.0;
        r.loopLo = 4;
        r.loopHi = 28;
        r.wNoise = 0.15;
        ws.push_back(make("mm.mpeg", "MM", r));

        auto r2 = base("mm.speech", 62);
        r2.targetBlocks = 560;
        r2.numChains = 6;
        r2.numPhaseChains = 3;
        r2.wLocalParity = 0.5;
        r2.wNoise = 0.25;
        ws.push_back(make("mm.speech", "MM", r2));
    }
    {
        // PROD: office productivity — big mixed footprints.
        auto r = base("prod.sysmark", 71);
        r.targetBlocks = 2200;
        r.numChains = 5;
        r.numPhaseChains = 10;
        r.wPhased = 0.7;
        r.wNoise = 0.25;
        r.wGlobalParity = 0.25;
        ws.push_back(make("prod.sysmark", "PROD", r));

        auto r2 = base("prod.winstone", 72);
        r2.targetBlocks = 2800;
        r2.numChains = 4;
        r2.numPhaseChains = 8;
        r2.wPhased = 0.6;
        r2.wNoise = 0.25;
        ws.push_back(make("prod.winstone", "PROD", r2));
    }
    {
        // SERV: transaction processing — huge footprint, noisy.
        auto r = base("serv.tpcc", 81);
        r.targetBlocks = 4200;
        r.numChains = 0;
        r.numPhaseChains = 3;
        r.wNoise = 0.25;
        r.wPhased = 0.8;
        r.phasedLo = 120;
        r.phasedHi = 700;
        r.phasedBiasA = 0.88;
        r.phasedBiasB = 0.18;
        r.oneShotFrac = 0.3;
        ws.push_back(make("serv.tpcc", "SERV", r));

        auto r2 = base("serv.timesten", 82);
        r2.targetBlocks = 3000;
        r2.numChains = 2;
        r2.numPhaseChains = 6;
        r2.wNoise = 0.25;
        r2.wPhased = 0.8;
        ws.push_back(make("serv.timesten", "SERV", r2));
    }
    {
        // WS: workstation — CAD/Verilog, regular with hard kernels.
        auto r = base("ws.cad", 91);
        r.targetBlocks = 760;
        r.numChains = 7;
        r.numPhaseChains = 3;
        r.wLoop = 2.4;
        r.wLocalParity = 0.6;
        r.wNoise = 0.2;
        ws.push_back(make("ws.cad", "WS", r));

        auto r2 = base("ws.verilog", 92);
        r2.targetBlocks = 1000;
        r2.numChains = 6;
        r2.numPhaseChains = 4;
        r2.wPattern = 1.8;
        r2.wGlobalParity = 0.4;
        r2.wNoise = 0.2;
        ws.push_back(make("ws.verilog", "WS", r2));
    }

    return ws;
}

} // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> registry = buildRegistry();
    return registry;
}

namespace
{

/** Comma-join the registry's workload (or suite) names. */
std::string
knownNames(bool suites)
{
    std::string joined;
    std::vector<std::string> seen;
    for (const auto &w : allWorkloads()) {
        const std::string &n = suites ? w.suite : w.name;
        if (std::find(seen.begin(), seen.end(), n) != seen.end())
            continue;
        seen.push_back(n);
        if (!joined.empty())
            joined += ", ";
        joined += n;
    }
    return joined;
}

} // namespace

namespace
{

/**
 * Trace workloads are registered on first lookup, keyed by the full
 * "trace:<path>" name. A deque keeps Workload addresses stable (the
 * driver and sweep layers hold const Workload*), and the mutex makes
 * concurrent lookups from pooled workers safe.
 */
const Workload &
traceWorkload(const std::string &name)
{
    static std::mutex mtx;
    static std::deque<Workload> registry;
    std::lock_guard<std::mutex> lock(mtx);
    for (const auto &w : registry)
        if (w.name == name)
            return w;

    const std::string path = name.substr(std::string("trace:").size());
    // Replay reads PCBPTRC2 only: opening the reader here rejects
    // any other file before a cell runs or a store file appears.
    const std::uint64_t count = Trace2Reader::open(path)->recordCount();
    if (count == 0)
        pcbp_fatal("trace workload '", path, "' has no records");

    Workload w;
    w.name = name;
    w.suite = "TRACE";
    w.tracePath = path;
    // Default run length: the whole file, with a tenth as warmup.
    w.warmupBranches = count / 10;
    w.simBranches = count - w.warmupBranches;
    registry.push_back(std::move(w));
    return registry.back();
}

} // namespace

const Workload &
workloadByName(const std::string &name)
{
    if (name.rfind("trace:", 0) == 0)
        return traceWorkload(name);
    for (const auto &w : allWorkloads())
        if (w.name == name)
            return w;
    pcbp_fatal("unknown workload '", name, "' (available: ",
               knownNames(false), ")");
}

std::vector<const Workload *>
suiteWorkloads(const std::string &suite)
{
    std::vector<const Workload *> out;
    for (const auto &w : allWorkloads())
        if (w.suite == suite)
            out.push_back(&w);
    if (out.empty())
        pcbp_fatal("unknown suite '", suite, "' (available: ",
                   knownNames(true), ")");
    return out;
}

const std::vector<std::string> &
allSuites()
{
    static const std::vector<std::string> suites = {
        "INT00", "FP00", "WEB", "MM", "PROD", "SERV", "WS",
    };
    return suites;
}

std::vector<const Workload *>
avgSet()
{
    std::vector<const Workload *> out;
    for (const auto &suite : allSuites())
        for (const Workload *w : suiteWorkloads(suite))
            out.push_back(w);
    return out;
}

std::vector<const Workload *>
fig5Set()
{
    std::vector<const Workload *> out;
    for (const char *name :
         {"unzip", "premiere", "msvc7", "flash", "facerec", "tpcc"})
        out.push_back(&workloadByName(name));
    return out;
}

Program
buildProgram(const Workload &w)
{
    if (!w.tracePath.empty())
        return reconstructProgramFromTrace(w.tracePath, w.name);
    return generateProgram(w.recipe);
}

} // namespace pcbp
