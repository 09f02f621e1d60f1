/**
 * @file
 * Hierarchical run statistics registry (gem5-style).
 *
 * Components register named integer scalars and histograms under
 * dotted paths ("core.fetches", "tage.bank3.provider", ...). The
 * registry is split into two sections with different guarantees:
 *
 *  - **sim**: statistics that are pure functions of the simulated
 *    work — predictor counters, engine commits, BTB allocations.
 *    Sums and maxima of per-cell sim stats commute, so a run-wide
 *    dump merged from cells finishing in any order is byte-identical
 *    for any `--jobs` value (pinned by tests/test_obs.cc).
 *  - **host**: statistics about *this* execution — wall clock,
 *    sweep worker tasks/idle, bench timings. Reproducible runs
 *    produce different host sections; nothing downstream may depend
 *    on their values.
 *
 * Collection stays off the hot path: simulators and predictors
 * accumulate plain member counters (see obs/probes.hh) and export
 * them here once, at end of run; per-cell registries are merged into
 * the run-wide one at flush time (merge is sum for Sum-kind entries,
 * max for Max-kind, bucket-wise sum for histograms).
 *
 * Dump formats: toJson() is the deterministic-ordered (std::map)
 * `pcbp-stats-1` schema written by `--stats-out`; toTable() is the
 * human Markdown summary; simScalars() is the flattened view the
 * result store persists as a per-cell `stats` block.
 */

#ifndef PCBP_OBS_STAT_REGISTRY_HH
#define PCBP_OBS_STAT_REGISTRY_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "report/table.hh"

namespace pcbp
{

/** How two registries combine a scalar during merge(). */
enum class StatKind
{
    Sum, //!< counters: values add
    Max  //!< peaks/capacities: larger value wins
};

class StatRegistry
{
  public:
    /** @name Deterministic (sim) section. */
    /// @{
    /** Add @p delta to a Sum-kind sim scalar (created at zero). */
    void add(const std::string &path, std::uint64_t delta);

    /** Raise a Max-kind sim scalar to at least @p value. */
    void setMax(const std::string &path, std::uint64_t value);

    /** Export a histogram's buckets under a sim path. */
    void hist(const std::string &path, const Histogram &h);
    /// @}

    /** @name Nondeterministic (host) section. */
    /// @{
    void addHost(const std::string &path, std::uint64_t delta);
    void setHost(const std::string &path, std::uint64_t value);
    void setHostMax(const std::string &path, std::uint64_t value);
    /// @}

    /**
     * Fold @p other into this registry: Sum entries add, Max entries
     * take the maximum, histograms add bucket-wise (fatal on
     * mismatched geometry). Commutative and associative, which is
     * what makes run-wide dumps `--jobs`-independent.
     */
    void merge(const StatRegistry &other);

    bool empty() const;

    /**
     * The full `pcbp-stats-1` document:
     * `{"schema":"pcbp-stats-1","sim":{...},"hist":{...},"host":{...}}`
     * with every object in lexicographic key order and every value an
     * integer — deterministic byte-for-byte given equal content.
     */
    std::string toJson() const;

    /** Just the sim+hist sections (the determinism-test view). */
    std::string simJson() const;

    /** Markdown summary table (section, stat, value). */
    ReportTable toTable() const;

    /** Flattened sim scalars in path order (per-cell stats block). */
    std::vector<std::pair<std::string, std::uint64_t>> simScalars() const;

    /** Sim scalar by exact path; 0 when absent (tests/reporting). */
    std::uint64_t simValue(const std::string &path) const;

    /**
     * Write toJson() to @p path and the Markdown summary next to it
     * at @p path + ".md" (fatal on I/O failure).
     */
    void writeFiles(const std::string &path) const;

  private:
    struct Entry
    {
        std::uint64_t value = 0;
        StatKind kind = StatKind::Sum;
    };

    struct HistEntry
    {
        std::uint64_t bucketWidth = 0;
        std::uint64_t samples = 0;
        std::vector<std::uint64_t> buckets;
    };

    static void mergeScalars(std::map<std::string, Entry> &into,
                             const std::map<std::string, Entry> &from);

    std::map<std::string, Entry> sim;
    std::map<std::string, Entry> host;
    std::map<std::string, HistEntry> hists;
};

} // namespace pcbp

#endif // PCBP_OBS_STAT_REGISTRY_HH
