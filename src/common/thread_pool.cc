#include "common/thread_pool.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/span_trace.hh"
#include "obs/stat_registry.hh"

namespace pcbp
{

ThreadPool::ThreadPool(unsigned workers)
{
    if (workers == 0)
        workers = std::max(1u, std::thread::hardware_concurrency());
    queues.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        queues.push_back(std::make_unique<WorkQueue>());
    counters.resize(workers);
    threads.reserve(workers - 1);
    for (unsigned i = 1; i < workers; ++i)
        threads.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(batchMutex);
        shutdown = true;
    }
    workCv.notify_all();
    for (auto &t : threads)
        t.join();
}

bool
ThreadPool::popOwn(unsigned self, std::size_t &idx)
{
    WorkQueue &q = *queues[self];
    std::lock_guard<std::mutex> lk(q.m);
    if (q.d.empty())
        return false;
    idx = q.d.front();
    q.d.pop_front();
    return true;
}

bool
ThreadPool::stealOther(unsigned self, std::size_t &idx)
{
    const unsigned n = numWorkers();
    for (unsigned off = 1; off < n; ++off) {
        WorkQueue &q = *queues[(self + off) % n];
        std::lock_guard<std::mutex> lk(q.m);
        if (q.d.empty())
            continue;
        idx = q.d.back();
        q.d.pop_back();
        return true;
    }
    return false;
}

void
ThreadPool::drain(unsigned self)
{
    std::size_t done = 0;
    std::size_t idx;
    while (true) {
        const bool own = popOwn(self, idx);
        if (!own && !stealOther(self, idx))
            break;
        ++counters[self].tasks;
        if (!own)
            ++counters[self].steals;
        // `job` is only read once a task is held: tasks imply
        // `remaining > 0`, which keeps the batch's job published.
        (*job)(idx, self);
        ++done;
    }
    if (done == 0)
        return;
    std::lock_guard<std::mutex> lk(batchMutex);
    remaining -= done;
    if (remaining == 0)
        doneCv.notify_all();
}

void
ThreadPool::workerLoop(unsigned self)
{
    std::uint64_t seen = 0;
    for (;;) {
        const std::uint64_t idleFrom = obsNanos();
        {
            std::unique_lock<std::mutex> lk(batchMutex);
            workCv.wait(lk,
                        [&] { return shutdown || epoch != seen; });
            if (shutdown)
                return;
            seen = epoch;
        }
        counters[self].idleNs += obsNanos() - idleFrom;
        drain(self);
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    parallelFor(n, std::function<void(std::size_t, unsigned)>(
                       [&fn](std::size_t i, unsigned) { fn(i); }));
}

void
ThreadPool::parallelFor(
    std::size_t n, const std::function<void(std::size_t, unsigned)> &fn)
{
    if (n == 0)
        return;
    std::lock_guard<std::mutex> call(callMutex);
    ++batches;

    // Publish the batch BEFORE queueing any index: a straggler from
    // the previous batch still scanning the deques may pop a new
    // task the instant it appears, and must find `job`/`remaining`
    // already valid (the deque mutex orders these writes for it).
    {
        std::lock_guard<std::mutex> lk(batchMutex);
        job = &fn;
        remaining = n;
        ++epoch;
    }

    // Round-robin the index space across the worker deques; stealing
    // rebalances whatever this initial split gets wrong.
    const unsigned w = numWorkers();
    for (std::size_t i = 0; i < n; ++i) {
        WorkQueue &q = *queues[i % w];
        std::lock_guard<std::mutex> lk(q.m);
        q.d.push_back(i);
    }
    workCv.notify_all();

    drain(0);

    std::unique_lock<std::mutex> lk(batchMutex);
    doneCv.wait(lk, [&] { return remaining == 0; });
    job = nullptr;
}

void
ThreadPool::exportStats(StatRegistry &reg,
                        const std::string &prefix) const
{
    std::uint64_t tasks = 0, steals = 0, idle = 0;
    for (unsigned i = 0; i < counters.size(); ++i) {
        const WorkerCounters &c = counters[i];
        tasks += c.tasks;
        steals += c.steals;
        idle += c.idleNs;
        const std::string w = prefix + ".worker" + std::to_string(i);
        reg.addHost(w + ".tasks", c.tasks);
        reg.addHost(w + ".steals", c.steals);
        reg.addHost(w + ".idle_ns", c.idleNs);
    }
    // add (not set): sequential pools — one per sweep in a repro
    // run — accumulate into a single run-wide registry.
    reg.setHostMax(prefix + ".workers", numWorkers());
    reg.addHost(prefix + ".batches", batches);
    reg.addHost(prefix + ".tasks", tasks);
    reg.addHost(prefix + ".steals", steals);
    reg.addHost(prefix + ".idle_ns", idle);
}

} // namespace pcbp
