/**
 * @file
 * Named benchmark registry: synthetic analogues of the paper's
 * benchmark suites (Table 1) and of the individually-plotted
 * benchmarks (Fig. 5: unzip, premiere, msvc7, flash, facerec, tpcc)
 * plus gcc for the headline numbers.
 *
 * The recipes are tuned so that prophet-alone accuracy lands in the
 * paper's 90-95% band (higher for FP00, lower for SERV) and so the
 * per-benchmark future-bit response reproduces the qualitative
 * shapes of Fig. 5. See DESIGN.md §3 for the substitution rationale.
 *
 * Beyond the synthetic registry, `trace:<path>` names a recorded
 * committed-branch trace as a workload (suite "TRACE"): the CFG is
 * reconstructed from the file and the committed stream is replayed
 * from it. The path must hold a PCBPTRC2 trace; any other file fails
 * registration — see DESIGN.md §5/§13 and tools/pcbp_trace.cc.
 */

#ifndef PCBP_WORKLOAD_SUITES_HH
#define PCBP_WORKLOAD_SUITES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload/generator.hh"

namespace pcbp
{

/** A named benchmark: a recipe plus simulation lengths. */
struct Workload
{
    std::string name;
    std::string suite;
    WorkloadRecipe recipe;
    /** Committed branches to measure (before PCBP_BENCH_SCALE). */
    std::uint64_t simBranches = 250000;
    /** Committed branches of warmup before stats collection. */
    std::uint64_t warmupBranches = 25000;
    /**
     * Non-empty for trace workloads: path of the PCBPTRC2 file that
     * provides the committed stream (the recipe is unused then).
     */
    std::string tracePath;
};

/** Every registered workload. */
const std::vector<Workload> &allWorkloads();

/**
 * Find by name (fatal if unknown, listing the known names).
 * `trace:<path>` registers (and caches) a trace-file workload whose
 * run length defaults to the file's record count; fatal unless the
 * file is a non-empty PCBPTRC2 trace.
 */
const Workload &workloadByName(const std::string &name);

/**
 * All workloads of a suite (INT00, FP00, WEB, MM, PROD, SERV, WS,
 * plus FIG5 and GCC); fatal if unknown, listing the known suites.
 */
std::vector<const Workload *> suiteWorkloads(const std::string &suite);

/** The suite names, in the paper's order. */
const std::vector<std::string> &allSuites();

/**
 * The fixed AVG basket (two workloads per suite, 14 total) over
 * which benches report averages.
 */
std::vector<const Workload *> avgSet();

/** The six benchmarks plotted in Fig. 5, in the paper's order. */
std::vector<const Workload *> fig5Set();

/** Build the program for a workload. */
Program buildProgram(const Workload &w);

} // namespace pcbp

#endif // PCBP_WORKLOAD_SUITES_HH
