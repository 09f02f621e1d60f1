/**
 * @file
 * Timing decorators for the traced run.
 *
 * The benchmark prices each layer from outside the program: it wraps
 * the public interfaces a simulation goes through — the committed
 * stream, the prophet (DirectionPredictor) and the critic
 * (FilteredPredictor) — and hands the wrappers to ProphetCriticHybrid
 * and Engine/TimingSim::run(stream). Nothing inside the library is
 * instrumented.
 *
 * Call counts are exact. Call *times* are sampled: one call in
 * CallTimer::kPeriod is bracketed by two steady_clock reads, and the
 * clock's own cost (calibrated once) is subtracted. The period is
 * prime so it cannot alias with power-of-two periodic work such as
 * one trace-block decode every 4096 records.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "predictors/predictor.hh"
#include "sim/committed_stream.hh"

namespace perfbench
{

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Cost of an empty timed interval (two clock reads), in ns. */
double clockOverheadNs();

/** Exact call counter with a sampled per-call time. */
struct CallTimer
{
    static constexpr unsigned kPeriod = 31;

    std::uint64_t calls = 0;
    std::uint64_t sampled = 0;
    double sampledNs = 0;
    unsigned countdown = 0;

    /** Mean time of one call, clock cost removed. */
    double
    meanNs() const
    {
        return sampled ? sampledNs / double(sampled) : 0.0;
    }

    /** Estimated total time of every call. */
    double estimatedNs() const { return meanNs() * double(calls); }

    template <typename F>
    auto
    time(F &&f) -> decltype(f())
    {
        ++calls;
        if (countdown != 0) {
            --countdown;
            return f();
        }
        countdown = kPeriod - 1;
        ++sampled;
        const std::uint64_t t0 = nowNs();
        if constexpr (std::is_void_v<decltype(f())>) {
            f();
            record(t0);
        } else {
            auto r = f();
            record(t0);
            return r;
        }
    }

  private:
    void
    record(std::uint64_t t0)
    {
        const double ns = double(nowNs() - t0) - clockOverheadNs();
        sampledNs += ns > 0 ? ns : 0;
    }
};

/** The timers of one simulated cell, one per wrapped seam. */
struct CellProbe
{
    CallTimer stream;   //!< records produced by the committed stream
    CallTimer predict;  //!< prophet predict()
    CallTimer update;   //!< prophet update()
    CallTimer critique; //!< critic critique()
    CallTimer train;    //!< critic train()
    std::uint64_t filterHits = 0;

    /** Estimated time spent below the simulator (its children). */
    double
    childNs() const
    {
        return stream.estimatedNs() + predict.estimatedNs() +
               update.estimatedNs() + critique.estimatedNs() +
               train.estimatedNs();
    }
};

/**
 * A committed stream that re-serves another stream's records through
 * its public at()/release() interface, timing each production.
 */
class TimedStream : public pcbp::CommittedStream
{
  public:
    TimedStream(pcbp::CommittedStream &inner, CallTimer &timer)
        : inner(inner), timer(timer)
    {
    }

    std::uint64_t length() const override { return inner.length(); }
    const char *backendName() const override { return inner.backendName(); }

  protected:
    bool
    produceNext(pcbp::CommittedBranch &out) override
    {
        return timer.time([&] {
            const pcbp::CommittedBranch *r = inner.at(next);
            if (!r)
                return false;
            out = *r;
            inner.release(++next);
            return true;
        });
    }

  private:
    pcbp::CommittedStream &inner;
    CallTimer &timer;
    std::uint64_t next = 0;
};

/** A prophet decorator timing predict() and update(). */
class TimedPredictor : public pcbp::DirectionPredictor
{
  public:
    TimedPredictor(pcbp::DirectionPredictorPtr inner, CellProbe &probe)
        : inner(std::move(inner)), probe(probe)
    {
    }

    bool
    predict(pcbp::Addr pc, const pcbp::HistoryRegister &hist) override
    {
        return probe.predict.time([&] { return inner->predict(pc, hist); });
    }

    void
    update(pcbp::Addr pc, const pcbp::HistoryRegister &hist,
           bool taken) override
    {
        probe.update.time([&] { inner->update(pc, hist, taken); });
    }

    void reset() override { inner->reset(); }

    pcbp::DirectionPredictorPtr
    clone() const override
    {
        return std::make_unique<TimedPredictor>(inner->clone(), probe);
    }

    std::size_t sizeBits() const override { return inner->sizeBits(); }
    unsigned historyLength() const override { return inner->historyLength(); }
    std::string name() const override { return inner->name(); }

    void
    exportStats(pcbp::StatRegistry &reg,
                const std::string &prefix) const override
    {
        inner->exportStats(reg, prefix);
    }

  private:
    pcbp::DirectionPredictorPtr inner;
    CellProbe &probe;
};

/** A critic decorator timing critique() and train(). */
class TimedCritic : public pcbp::FilteredPredictor
{
  public:
    TimedCritic(pcbp::FilteredPredictorPtr inner, CellProbe &probe)
        : inner(std::move(inner)), probe(probe)
    {
    }

    pcbp::CritiqueResult
    critique(pcbp::Addr pc, const pcbp::HistoryRegister &bor) override
    {
        const pcbp::CritiqueResult r =
            probe.critique.time([&] { return inner->critique(pc, bor); });
        probe.filterHits += r.provided;
        return r;
    }

    void
    train(pcbp::Addr pc, const pcbp::HistoryRegister &bor, bool taken,
          bool mispredicted) override
    {
        probe.train.time(
            [&] { inner->train(pc, bor, taken, mispredicted); });
    }

    void reset() override { inner->reset(); }

    pcbp::FilteredPredictorPtr
    clone() const override
    {
        return std::make_unique<TimedCritic>(inner->clone(), probe);
    }

    std::size_t sizeBits() const override { return inner->sizeBits(); }
    unsigned borBits() const override { return inner->borBits(); }
    std::string name() const override { return inner->name(); }

    void
    exportStats(pcbp::StatRegistry &reg,
                const std::string &prefix) const override
    {
        inner->exportStats(reg, prefix);
    }

  private:
    pcbp::FilteredPredictorPtr inner;
    CellProbe &probe;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
