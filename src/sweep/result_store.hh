/**
 * @file
 * Append-only, resumable store of sweep cell results.
 *
 * One JSONL line per completed cell, keyed by the cell's canonical
 * content key (plus its FNV-1a hash for quick external joins). On
 * construction the store replays an existing file, so a re-run of
 * the same sweep skips every completed cell and computes only the
 * delta — interrupting a 10,000-cell grid costs just the in-flight
 * cells.
 *
 * All persisted statistics are integers, so the file and the CSV /
 * JSON exports are byte-stable across runs and across `--jobs`
 * settings (the runner appends in cell order).
 */

#ifndef PCBP_SWEEP_RESULT_STORE_HH
#define PCBP_SWEEP_RESULT_STORE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/engine.hh"
#include "sim/timing.hh"
#include "sweep/sweep_spec.hh"

namespace pcbp
{

/** One completed cell, as persisted. */
struct CellResult
{
    std::string key;
    std::uint64_t hash = 0;

    // Denormalized cell coordinates, for exports.
    std::string workload;
    std::string suite;
    std::string prophet;      // "perceptron:8KB"
    std::string critic;       // "t.gshare:8KB" or "none"
    unsigned futureBits = 0;
    bool speculativeHistory = true;
    bool repairHistory = true;
    unsigned filterTagBits = 0;  // 0 = Table-3 default
    bool oracleFutureBits = false;
    bool timing = false;         // timing-model cell (uPC counters)
    std::uint64_t measureBranches = 0;

    // The persisted subset of EngineStats (everything aggregate()
    // and the exports consume). Timing cells fill the shared subset
    // (committed*/finalMispredicts/criticOverrides/...) plus the
    // cycle counters below.
    std::uint64_t committedBranches = 0;
    std::uint64_t committedUops = 0;
    std::uint64_t finalMispredicts = 0;
    std::uint64_t prophetMispredicts = 0;
    std::uint64_t btbMisses = 0;
    std::uint64_t criticOverrides = 0;
    std::uint64_t squashedPredictions = 0;
    std::uint64_t wrongPathBranches = 0;
    std::uint64_t wrongPathUops = 0;
    std::uint64_t partialCritiques = 0;
    CritiqueCounts critiques;

    // Timing-model counters (zero for accuracy cells).
    std::uint64_t cycles = 0;
    std::uint64_t fetchedUops = 0;

    /**
     * Optional per-cell observability scalars (StatRegistry
     * simScalars(), path-sorted) — populated only when the sweep ran
     * with per-cell stats enabled. Serialized as a trailing "stats"
     * object *after* every legacy field, and only when non-empty, so
     * stores written without the flag remain byte-identical and old
     * stores parse (absent = empty).
     */
    std::vector<std::pair<std::string, std::uint64_t>> stats;

    /** Build from a finished accuracy-engine cell run. */
    static CellResult fromRun(const SweepCell &cell,
                              const EngineStats &stats);

    /** Build from a finished timing-model cell run. */
    static CellResult fromTimingRun(const SweepCell &cell,
                                    const TimingStats &stats);

    /** Uops per cycle (timing cells; 0 for accuracy cells). */
    double upc() const
    {
        return cycles == 0 ? 0.0
                           : double(committedUops) / double(cycles);
    }

    /** Rehydrate the persisted counters into an EngineStats. */
    EngineStats toEngineStats() const;

    /** Rehydrate a timing cell's counters into a TimingStats. */
    TimingStats toTimingStats() const;

    /** One JSONL line (no trailing newline). */
    std::string toJson() const;

    /** Parse one JSONL line (fatal on malformed input). */
    static CellResult fromJson(const std::string &line);

    /** Non-fatal parse; returns false on malformed input. */
    static bool tryFromJson(const std::string &line, CellResult &out);
};

class ResultStore
{
  public:
    /** In-memory store (nothing persisted). */
    ResultStore() = default;

    /**
     * Persistent store: replays @p path if it exists, dropping a torn
     * final line from the view; put() appends to it (creating it on
     * first write, and first cutting a torn tail off, with a
     * warning). Opening never writes or warns, so a store only read
     * leaves its file byte for byte and its reader's log quiet.
     */
    explicit ResultStore(std::string path);

    /** True if a result for this content key exists. */
    bool has(const std::string &key) const;

    /** Lookup by content key; nullptr if absent. */
    const CellResult *find(const std::string &key) const;

    /**
     * Engine stats for an accuracy cell (fatal if absent — run the
     * sweep first — or if the cell ran under the timing model).
     */
    EngineStats statsFor(const SweepCell &cell) const;

    /** Timing stats for a timing cell (fatal if absent/accuracy). */
    TimingStats timingStatsFor(const SweepCell &cell) const;

    /** Record a result: appends to the file and the in-memory view. */
    void put(CellResult r);

    std::size_t size() const { return results.size(); }

    /** All results, in insertion (= file) order. */
    const std::vector<CellResult> &all() const { return results; }

    /** The backing file path ("" for in-memory stores). */
    const std::string &path() const { return filePath; }

    /** CSV export of @p results, header first. */
    static std::string exportCsv(const std::vector<CellResult> &results);

    /** JSON-array export of @p results. */
    static std::string exportJson(
        const std::vector<CellResult> &results);

    /**
     * Export store health counters (lines replayed on open, torn
     * and duplicate lines dropped, cells appended) into @p reg's
     * host section under `prefix.*`.
     */
    void exportStats(StatRegistry &reg,
                     const std::string &prefix = "store") const;

  private:
    std::string filePath;

    /**
     * Bytes of the file before the torn tail found at open, if any;
     * the first put() truncates the file to it.
     */
    std::optional<std::uint64_t> tornTailAt;

    std::vector<CellResult> results;
    std::unordered_map<std::string, std::size_t> index;

    // Open/append health counters (exportStats).
    std::uint64_t replayedLines = 0;
    std::uint64_t tornDrops = 0;
    std::uint64_t dupDrops = 0;
    std::uint64_t putCount = 0;
};

} // namespace pcbp

#endif // PCBP_SWEEP_RESULT_STORE_HH
