#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/span_trace.hh"
#include "obs/stat_registry.hh"

namespace pcbp
{

unsigned
parallelFor(unsigned jobs, std::size_t n,
            const std::function<void(std::size_t, unsigned)> &fn,
            StatRegistry *stats)
{
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    const unsigned workers = unsigned(std::min<std::size_t>(jobs, n));
    if (workers == 0)
        return 0;

    // One slab per worker, written only by that worker and read
    // after the joins below.
    struct WorkerCounters
    {
        std::uint64_t tasks = 0;
        std::uint64_t busyNs = 0; //!< time spent inside fn
    };
    std::vector<WorkerCounters> counters(workers);
    std::atomic<std::size_t> next{0};
    std::mutex errorMutex;
    std::exception_ptr error; // the first failure, under errorMutex

    const auto fail = [&](std::exception_ptr e) {
        next = n; // hand out no further index
        std::lock_guard<std::mutex> lk(errorMutex);
        if (!error)
            error = e;
    };
    const auto work = [&](unsigned self) {
        WorkerCounters &c = counters[self];
        try {
            for (std::size_t i = next++; i < n; i = next++) {
                const std::uint64_t from = obsNanos();
                fn(i, self);
                c.busyNs += obsNanos() - from;
                ++c.tasks;
            }
        } catch (...) {
            fail(std::current_exception());
        }
    };

    const std::uint64_t start = obsNanos();
    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    try {
        for (unsigned w = 1; w < workers; ++w)
            threads.emplace_back(work, w);
    } catch (...) {
        fail(std::current_exception()); // e.g. out of threads
    }
    work(0);
    for (std::thread &t : threads)
        t.join();
    const std::uint64_t wallNs = obsNanos() - start;
    if (error)
        std::rethrow_exception(error);

    if (!stats)
        return workers;
    std::uint64_t idle = 0;
    for (unsigned w = 0; w < workers; ++w) {
        const std::uint64_t idleNs = wallNs - counters[w].busyNs;
        const std::string key = "pool.worker" + std::to_string(w);
        stats->addHost(key + ".tasks", counters[w].tasks);
        stats->addHost(key + ".idle_ns", idleNs);
        idle += idleNs;
    }
    // add (not set): a repro run funnels one call per sweep into a
    // single run-wide registry.
    stats->setHostMax("pool.workers", workers);
    stats->addHost("pool.batches", 1);
    stats->addHost("pool.tasks", n);
    stats->addHost("pool.steals", 0);
    stats->addHost("pool.idle_ns", idle);
    return workers;
}

} // namespace pcbp
