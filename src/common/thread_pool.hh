/**
 * @file
 * Fork–join parallel loop for sweep work.
 *
 * The sweep runner shards individual (config, workload) cells across
 * cores; cell costs vary by orders of magnitude (a 32KB SERV cell is
 * far slower than a 2KB FP00 cell), so static partitioning would let
 * one expensive cell serialize a whole sweep. Instead every worker
 * takes its next index from one shared atomic cursor: a worker that
 * finishes early simply takes the next index, so all cores stay busy,
 * and indices start strictly in increasing order, which the sweep
 * runner's ordered flush depends on to persist completed cells
 * promptly rather than buffering a whole sweep.
 *
 * The calling thread participates as worker 0, so `jobs == 1` starts
 * no thread and runs strictly serially, in index order — `--jobs 1`
 * really is sequential execution, which the determinism tests rely
 * on. Every thread a call starts is joined before it returns.
 */

#ifndef PCBP_COMMON_THREAD_POOL_HH
#define PCBP_COMMON_THREAD_POOL_HH

#include <cstddef>
#include <functional>

namespace pcbp
{

class StatRegistry;

/**
 * Run `fn(i, worker)` for every i in [0, n) on min(jobs, n) workers
 * and return that worker count (0 when n is 0). `jobs` counts the
 * caller, which runs work as worker 0; 0 means one worker per
 * hardware thread. `worker` identifies the thread that ran index i,
 * so callers can tag trace spans with it; which worker runs which
 * index is nondeterministic, so it must never influence results.
 *
 * The first exception `fn` throws stops the handing out of indices
 * and is rethrown here once every worker has been joined.
 *
 * When @p stats is set, host counters are added under `pool.*`:
 * `workers` (max-merged), `batches`, `tasks`, `steals` (always 0:
 * no index is ever taken from another worker), `idle_ns` and the
 * per-worker `workerN.{tasks,idle_ns}`. A worker's idle time is the
 * call's wall time minus the time it spent in `fn`, so thread
 * start-up and the tail wait for the last index both count.
 */
unsigned parallelFor(unsigned jobs, std::size_t n,
                     const std::function<void(std::size_t, unsigned)> &fn,
                     StatRegistry *stats = nullptr);

} // namespace pcbp

#endif // PCBP_COMMON_THREAD_POOL_HH
