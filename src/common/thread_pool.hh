/**
 * @file
 * Work-stealing thread pool.
 *
 * The sweep runner shards individual (config, workload) cells across
 * cores; cell costs vary by orders of magnitude (a 32KB SERV cell is
 * far slower than a 2KB FP00 cell), so static partitioning would let
 * one expensive cell serialize a whole sweep. Each worker owns a
 * deque: it pops work from the front of its own deque and, when that
 * runs dry, steals from the back of a victim's — opposite ends, so
 * owner and thief rarely contend, and all cores stay busy without a
 * single shared queue. Owners draining front-first keeps global
 * execution roughly in index order, which the sweep runner's ordered
 * flush depends on to persist completed cells promptly rather than
 * buffering a whole sweep.
 *
 * The calling thread participates as worker 0, so a pool built with
 * `workers == 1` spawns no threads and runs strictly serially —
 * `--jobs 1` really is sequential execution, which the determinism
 * tests rely on.
 */

#ifndef PCBP_COMMON_THREAD_POOL_HH
#define PCBP_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pcbp
{

class StatRegistry;

class ThreadPool
{
  public:
    /**
     * @param workers Total workers including the calling thread;
     *        0 means one per hardware thread. `workers - 1` threads
     *        are spawned and persist until destruction.
     */
    explicit ThreadPool(unsigned workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total workers, including the calling thread. */
    unsigned numWorkers() const { return unsigned(queues.size()); }

    /**
     * Run `fn(i)` for every i in [0, n) across all workers; returns
     * once every call has finished. The caller executes work too.
     * Not reentrant: `fn` must not call parallelFor on this pool.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Worker-aware variant: `fn(i, worker)` also receives the id of
     * the worker executing index i (0 = the calling thread). Lets
     * callers keep per-worker scratch state or tag trace spans with
     * the thread that really ran the work — worker identity is
     * nondeterministic under stealing, so it must never influence
     * results, only observability.
     */
    void parallelFor(
        std::size_t n,
        const std::function<void(std::size_t, unsigned)> &fn);

    /**
     * Export lifetime pool counters (tasks run, steals, sleep time
     * per worker) into @p reg's host section under `prefix.*`. Call
     * only while no batch is in flight.
     */
    void exportStats(StatRegistry &reg,
                     const std::string &prefix = "pool") const;

  private:
    /** One worker's deque; owner pops the front, thieves the back. */
    struct WorkQueue
    {
        std::mutex m;
        std::deque<std::size_t> d;
    };

    /**
     * Lifetime counters, one slab per worker. Each slab is written
     * only by its owning worker (drain/workerLoop index by `self`),
     * so increments need no synchronization; exportStats reads them
     * between batches, when all workers are quiescent.
     */
    struct WorkerCounters
    {
        std::uint64_t tasks = 0;  //!< indices executed
        std::uint64_t steals = 0; //!< of which taken from a victim
        std::uint64_t idleNs = 0; //!< time asleep waiting for work
    };

    bool popOwn(unsigned self, std::size_t &idx);
    bool stealOther(unsigned self, std::size_t &idx);
    void drain(unsigned self);
    void workerLoop(unsigned self);

    std::vector<std::unique_ptr<WorkQueue>> queues;
    std::vector<std::thread> threads;
    std::vector<WorkerCounters> counters;
    std::uint64_t batches = 0; // parallelFor calls; under callMutex

    // Batch state: a monotonically increasing epoch publishes each
    // parallelFor call to the sleeping workers.
    std::mutex batchMutex;
    std::condition_variable workCv;
    std::condition_variable doneCv;
    const std::function<void(std::size_t, unsigned)> *job = nullptr;
    std::uint64_t epoch = 0;
    std::size_t remaining = 0;
    bool shutdown = false;

    std::mutex callMutex; // serializes concurrent parallelFor calls
};

} // namespace pcbp

#endif // PCBP_COMMON_THREAD_POOL_HH
