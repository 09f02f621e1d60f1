#include "sweep/result_store.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/stat_registry.hh"

namespace pcbp
{

namespace
{

/**
 * Minimal extraction from the store's own flat JSONL lines (string /
 * integer / flat-array fields only — not a general JSON parser).
 * Never throws or aborts: any malformed field latches failed(), so
 * callers can treat a torn line (crash mid-append) as recoverable.
 */
class FieldReader
{
  public:
    explicit FieldReader(const std::string &line) : line(line) {}

    bool failed() const { return bad; }

    std::string
    getString(const char *field)
    {
        const std::size_t at = pos(field);
        if (bad || line[at] != '"')
            return fail<std::string>();
        std::string out;
        for (std::size_t i = at + 1; i < line.size(); ++i) {
            if (line[i] == '\\' && i + 1 < line.size())
                out += line[++i];
            else if (line[i] == '"')
                return out;
            else
                out += line[i];
        }
        return fail<std::string>(); // unterminated
    }

    std::uint64_t
    getUint(const char *field)
    {
        std::size_t at = pos(field);
        if (bad)
            return 0;
        return number(at);
    }

    /**
     * Like getUint, but an absent field yields @p fallback instead
     * of failure — for fields added after stores already existed on
     * disk (a present-but-garbled value still fails). Keeps the
     * resume compatibility the cell-key suffix design promises.
     */
    std::uint64_t
    getUintOr(const char *field, std::uint64_t fallback)
    {
        if (bad)
            return 0;
        std::size_t at = find(field);
        if (at == std::string::npos)
            return fallback;
        return number(at);
    }

    /**
     * Flat object of "path":integer pairs. Absent field = empty
     * (stores predate the stats block); a present-but-garbled
     * object fails.
     */
    std::vector<std::pair<std::string, std::uint64_t>>
    getStatsObject(const char *field)
    {
        using Out = std::vector<std::pair<std::string, std::uint64_t>>;
        if (bad)
            return Out();
        std::size_t at = find(field);
        if (at == std::string::npos)
            return Out();
        if (line[at] != '{')
            return fail<Out>();
        Out out;
        ++at;
        while (!bad && at < line.size() && line[at] != '}') {
            if (line[at] != '"')
                return fail<Out>();
            const std::size_t close = line.find('"', at + 1);
            if (close == std::string::npos)
                return fail<Out>();
            std::string path = line.substr(at + 1, close - at - 1);
            at = close + 1;
            if (at >= line.size() || line[at] != ':')
                return fail<Out>();
            ++at;
            const std::uint64_t v = number(at);
            if (bad)
                return fail<Out>();
            out.emplace_back(std::move(path), v);
            if (at < line.size() && line[at] == ',')
                ++at;
        }
        if (at >= line.size() || line[at] != '}')
            return fail<Out>();
        return out;
    }

    std::vector<std::uint64_t>
    getArray(const char *field)
    {
        std::size_t at = pos(field);
        if (bad || line[at] != '[')
            return fail<std::vector<std::uint64_t>>();
        std::vector<std::uint64_t> out;
        ++at;
        while (!bad && at < line.size() && line[at] != ']') {
            out.push_back(number(at));
            if (at < line.size() && line[at] == ',')
                ++at;
        }
        if (at >= line.size() || line[at] != ']')
            return fail<std::vector<std::uint64_t>>();
        return out;
    }

  private:
    template <typename T>
    T
    fail()
    {
        bad = true;
        return T();
    }

    /** Digit run at @p at (advanced past it); empty run = failure. */
    std::uint64_t
    number(std::size_t &at)
    {
        std::uint64_t v = 0;
        bool any = false;
        while (at < line.size() && line[at] >= '0' &&
               line[at] <= '9') {
            v = v * 10 + std::uint64_t(line[at] - '0');
            ++at;
            any = true;
        }
        if (!any)
            return fail<std::uint64_t>();
        return v;
    }

    /** Index just past `"field":`, or npos when absent. */
    std::size_t
    find(const char *field)
    {
        const std::string needle =
            std::string("\"") + field + "\":";
        const auto at = line.find(needle);
        if (at == std::string::npos)
            return std::string::npos;
        // Fields are always followed by a value character, so this
        // index is in range unless the line is torn (then the value
        // reader trips on it).
        return at + needle.size() < line.size() ? at + needle.size()
                                                : std::string::npos;
    }

    /** Like find(), but absence is a failure. */
    std::size_t
    pos(const char *field)
    {
        const std::size_t at = find(field);
        return at == std::string::npos ? fail<std::size_t>() : at;
    }

    const std::string &line;
    bool bad = false;
};

} // namespace

// -------------------------------------------------------- CellResult

namespace
{

/** The cell-coordinate columns shared by both run kinds. */
CellResult
cellCoordinates(const SweepCell &cell)
{
    CellResult r;
    r.key = cell.key();
    r.hash = cell.hash();
    r.workload = cell.workload->name;
    r.suite = cell.workload->suite;
    r.prophet = prophetKindName(cell.spec.prophet) + ":" +
                budgetName(cell.spec.prophetBudget);
    r.critic = cell.spec.critic
                   ? criticKindName(*cell.spec.critic) + ":" +
                         budgetName(cell.spec.criticBudget)
                   : "none";
    r.futureBits = cell.spec.critic ? cell.spec.futureBits : 0;
    r.speculativeHistory = cell.spec.speculativeHistory;
    r.repairHistory = cell.spec.repairHistory;
    r.filterTagBits = cell.spec.filterTagBits;
    r.oracleFutureBits = cell.oracleFutureBits;
    r.timing = cell.timing;
    r.measureBranches = cell.measureBranches;
    return r;
}

} // namespace

CellResult
CellResult::fromRun(const SweepCell &cell, const EngineStats &stats)
{
    CellResult r = cellCoordinates(cell);
    pcbp_assert(!cell.timing,
                "timing cells persist through fromTimingRun");

    r.committedBranches = stats.committedBranches;
    r.committedUops = stats.committedUops;
    r.finalMispredicts = stats.finalMispredicts;
    r.prophetMispredicts = stats.prophetMispredicts;
    r.btbMisses = stats.btbMisses;
    r.criticOverrides = stats.criticOverrides;
    r.squashedPredictions = stats.squashedPredictions;
    r.wrongPathBranches = stats.wrongPathBranches;
    r.wrongPathUops = stats.wrongPathUops;
    r.partialCritiques = stats.partialCritiques;
    r.critiques = stats.critiques;
    return r;
}

CellResult
CellResult::fromTimingRun(const SweepCell &cell,
                          const TimingStats &stats)
{
    CellResult r = cellCoordinates(cell);
    pcbp_assert(cell.timing,
                "accuracy cells persist through fromRun");

    r.committedBranches = stats.committedBranches;
    r.committedUops = stats.committedUops;
    r.finalMispredicts = stats.finalMispredicts;
    r.criticOverrides = stats.criticOverrides;
    r.squashedPredictions = stats.ftqEntriesFlushedByCritic;
    r.wrongPathUops = stats.wrongPathFetchedUops;
    r.partialCritiques = stats.partialCritiques;
    r.cycles = stats.cycles;
    r.fetchedUops = stats.fetchedUops;
    return r;
}

EngineStats
CellResult::toEngineStats() const
{
    EngineStats s;
    s.committedBranches = committedBranches;
    s.committedUops = committedUops;
    s.finalMispredicts = finalMispredicts;
    s.prophetMispredicts = prophetMispredicts;
    s.btbMisses = btbMisses;
    s.criticOverrides = criticOverrides;
    s.squashedPredictions = squashedPredictions;
    s.wrongPathBranches = wrongPathBranches;
    s.wrongPathUops = wrongPathUops;
    s.partialCritiques = partialCritiques;
    s.critiques = critiques;
    return s;
}

TimingStats
CellResult::toTimingStats() const
{
    TimingStats s;
    s.cycles = cycles;
    s.committedUops = committedUops;
    s.committedBranches = committedBranches;
    s.finalMispredicts = finalMispredicts;
    s.fetchedUops = fetchedUops;
    s.wrongPathFetchedUops = wrongPathUops;
    s.criticOverrides = criticOverrides;
    s.ftqEntriesFlushedByCritic = squashedPredictions;
    s.partialCritiques = partialCritiques;
    return s;
}

std::string
CellResult::toJson() const
{
    std::ostringstream os;
    os << "{\"key\":\"" << jsonEscape(key) << "\""
       << ",\"hash\":" << hash
       << ",\"workload\":\"" << jsonEscape(workload) << "\""
       << ",\"suite\":\"" << jsonEscape(suite) << "\""
       << ",\"prophet\":\"" << jsonEscape(prophet) << "\""
       << ",\"critic\":\"" << jsonEscape(critic) << "\""
       << ",\"future_bits\":" << futureBits
       << ",\"spec_history\":" << (speculativeHistory ? 1 : 0)
       << ",\"repair_history\":" << (repairHistory ? 1 : 0)
       << ",\"filter_tag_bits\":" << filterTagBits
       << ",\"oracle\":" << (oracleFutureBits ? 1 : 0)
       << ",\"timing\":" << (timing ? 1 : 0)
       << ",\"measure_branches\":" << measureBranches
       << ",\"committed_branches\":" << committedBranches
       << ",\"committed_uops\":" << committedUops
       << ",\"final_mispredicts\":" << finalMispredicts
       << ",\"prophet_mispredicts\":" << prophetMispredicts
       << ",\"btb_misses\":" << btbMisses
       << ",\"critic_overrides\":" << criticOverrides
       << ",\"squashed_predictions\":" << squashedPredictions
       << ",\"wrong_path_branches\":" << wrongPathBranches
       << ",\"wrong_path_uops\":" << wrongPathUops
       << ",\"partial_critiques\":" << partialCritiques
       << ",\"cycles\":" << cycles
       << ",\"fetched_uops\":" << fetchedUops
       << ",\"critiques\":[";
    for (std::size_t c = 0; c < numCritiqueClasses; ++c)
        os << (c ? "," : "") << critiques.counts[c];
    os << "]";
    // Trailing optional block: emitted only when the sweep collected
    // per-cell stats, so legacy lines stay byte-identical.
    if (!stats.empty()) {
        os << ",\"stats\":{";
        for (std::size_t i = 0; i < stats.size(); ++i) {
            os << (i ? "," : "") << "\"" << jsonEscape(stats[i].first)
               << "\":" << stats[i].second;
        }
        os << "}";
    }
    os << "}";
    return os.str();
}

CellResult
CellResult::fromJson(const std::string &line)
{
    CellResult r;
    if (!tryFromJson(line, r))
        pcbp_fatal("result store: malformed line: ", line);
    return r;
}

bool
CellResult::tryFromJson(const std::string &line, CellResult &r)
{
    FieldReader in(line);
    r.key = in.getString("key");
    r.hash = in.getUint("hash");
    r.workload = in.getString("workload");
    r.suite = in.getString("suite");
    r.prophet = in.getString("prophet");
    r.critic = in.getString("critic");
    r.futureBits = static_cast<unsigned>(in.getUint("future_bits"));
    r.speculativeHistory = in.getUint("spec_history") != 0;
    r.repairHistory = in.getUint("repair_history") != 0;
    // Post-introduction fields (timing mode, ablation axes): absent
    // in stores written before they existed, whose cells are all
    // accuracy-mode with default knobs — exactly the fallbacks.
    r.filterTagBits =
        static_cast<unsigned>(in.getUintOr("filter_tag_bits", 0));
    r.oracleFutureBits = in.getUintOr("oracle", 0) != 0;
    r.timing = in.getUintOr("timing", 0) != 0;
    r.measureBranches = in.getUint("measure_branches");
    r.committedBranches = in.getUint("committed_branches");
    r.committedUops = in.getUint("committed_uops");
    r.finalMispredicts = in.getUint("final_mispredicts");
    r.prophetMispredicts = in.getUint("prophet_mispredicts");
    r.btbMisses = in.getUint("btb_misses");
    r.criticOverrides = in.getUint("critic_overrides");
    r.squashedPredictions = in.getUint("squashed_predictions");
    r.wrongPathBranches = in.getUint("wrong_path_branches");
    r.wrongPathUops = in.getUint("wrong_path_uops");
    r.partialCritiques = in.getUint("partial_critiques");
    r.cycles = in.getUintOr("cycles", 0);
    r.fetchedUops = in.getUintOr("fetched_uops", 0);
    const auto crit = in.getArray("critiques");
    r.stats = in.getStatsObject("stats");
    if (in.failed() || crit.size() != numCritiqueClasses)
        return false;
    for (std::size_t c = 0; c < numCritiqueClasses; ++c)
        r.critiques.counts[c] = crit[c];
    return true;
}

// ------------------------------------------------------- ResultStore

ResultStore::ResultStore(std::string path) : filePath(std::move(path))
{
    std::string content;
    {
        std::ifstream in(filePath, std::ios::binary);
        if (!in)
            return; // first run: file appears on the first put()
        std::ostringstream os;
        os << in.rdbuf();
        content = os.str();
    }
    if (content.empty())
        return;

    // Every line put() writes is newline-terminated, so bytes after
    // the last newline are an interrupted append — even when they
    // happen to parse (a write torn exactly at the newline): keeping
    // such a line would make the next append concatenate onto it and
    // merge two records into one corrupt line.
    const bool terminated = content.back() == '\n';

    std::vector<std::string> lines;
    std::size_t at = 0;
    while (at < content.size()) {
        const std::size_t nl = content.find('\n', at);
        if (nl == std::string::npos) {
            lines.push_back(content.substr(at));
            break;
        }
        lines.push_back(content.substr(at, nl - at));
        at = nl + 1;
    }

    std::uint64_t valid_bytes = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        const bool last = i + 1 == lines.size();
        CellResult r;
        const bool torn =
            (last && !terminated) ||
            (!line.empty() && !CellResult::tryFromJson(line, r));
        if (torn) {
            // A torn final line is what a kill mid-append leaves
            // behind; drop it from the view and the cell simply
            // reruns. The file is cut back only at the first put(),
            // so the next append does not concatenate onto the torn
            // bytes, while a store opened just to read it (or a
            // writer's line still being appended) is left alone —
            // and so is the log: the warning waits for that put().
            // Torn bytes followed by further valid lines mean real
            // corruption — refuse to guess.
            if (!last)
                pcbp_fatal("result store ", filePath, ":", i + 1,
                           ": malformed line: ", line);
            ++tornDrops;
            tornTailAt = valid_bytes;
            return;
        }
        valid_bytes += line.size() + 1;
        if (line.empty())
            continue;
        if (index.count(r.key)) {
            pcbp_warn("result store ", filePath, ":", i + 1,
                      ": duplicate key ignored: ", r.key);
            ++dupDrops;
            continue;
        }
        ++replayedLines;
        index.emplace(r.key, results.size());
        results.push_back(std::move(r));
    }
}

bool
ResultStore::has(const std::string &key) const
{
    return index.count(key) != 0;
}

const CellResult *
ResultStore::find(const std::string &key) const
{
    const auto it = index.find(key);
    return it == index.end() ? nullptr : &results[it->second];
}

EngineStats
ResultStore::statsFor(const SweepCell &cell) const
{
    const CellResult *r = find(cell.key());
    if (!r)
        pcbp_fatal("result store: no result for cell ", cell.key());
    if (r->timing)
        pcbp_fatal("result store: cell ", cell.key(),
                   " holds timing stats; use timingStatsFor");
    return r->toEngineStats();
}

TimingStats
ResultStore::timingStatsFor(const SweepCell &cell) const
{
    const CellResult *r = find(cell.key());
    if (!r)
        pcbp_fatal("result store: no result for cell ", cell.key());
    if (!r->timing)
        pcbp_fatal("result store: cell ", cell.key(),
                   " holds accuracy stats; use statsFor");
    return r->toTimingStats();
}

void
ResultStore::put(CellResult r)
{
    if (index.count(r.key))
        pcbp_fatal("result store: duplicate put for key ", r.key);
    if (!filePath.empty()) {
        if (tornTailAt) {
            pcbp_warn("result store ", filePath,
                      ": dropping torn final line (interrupted "
                      "write); its cell reruns");
            std::error_code ec;
            std::filesystem::resize_file(filePath, *tornTailAt, ec);
            if (ec)
                pcbp_fatal("result store: cannot truncate ", filePath,
                           ": ", ec.message());
            tornTailAt.reset();
        }
        std::ofstream out(filePath, std::ios::app);
        if (!out)
            pcbp_fatal("result store: cannot append to ", filePath);
        out << r.toJson() << "\n";
        out.flush();
        if (!out)
            pcbp_fatal("result store: write to ", filePath, " failed");
    }
    ++putCount;
    index.emplace(r.key, results.size());
    results.push_back(std::move(r));
}

void
ResultStore::exportStats(StatRegistry &reg,
                         const std::string &prefix) const
{
    reg.setHost(prefix + ".replayed", replayedLines);
    reg.setHost(prefix + ".torn_drops", tornDrops);
    reg.setHost(prefix + ".dup_drops", dupDrops);
    reg.setHost(prefix + ".puts", putCount);
    reg.setHost(prefix + ".cells", results.size());
}

std::string
ResultStore::exportCsv(const std::vector<CellResult> &results)
{
    std::ostringstream os;
    os << "workload,suite,prophet,critic,future_bits,spec_history,"
          "repair_history,filter_tag_bits,oracle,mode,"
          "measure_branches,committed_branches,"
          "committed_uops,final_mispredicts,prophet_mispredicts,"
          "misp_per_kuops,misp_rate,prophet_misp_rate,btb_misses,"
          "critic_overrides,squashed_predictions,wrong_path_branches,"
          "wrong_path_uops,partial_critiques,cycles,fetched_uops,upc";
    for (std::size_t c = 0; c < numCritiqueClasses; ++c)
        os << ","
           << critiqueClassName(static_cast<CritiqueClass>(c));
    os << "\n";
    for (const auto &r : results) {
        const EngineStats s = r.toEngineStats();
        os << r.workload << ',' << r.suite << ',' << r.prophet << ','
           << r.critic << ',' << r.futureBits << ','
           << (r.speculativeHistory ? 1 : 0) << ','
           << (r.repairHistory ? 1 : 0) << ',' << r.filterTagBits
           << ',' << (r.oracleFutureBits ? 1 : 0) << ','
           << (r.timing ? "timing" : "accuracy") << ','
           << r.measureBranches
           << ',' << r.committedBranches << ',' << r.committedUops
           << ',' << r.finalMispredicts << ',' << r.prophetMispredicts
           << ',' << fmtDouble(s.mispPerKuops(), 6) << ','
           << fmtDouble(s.mispRate(), 6) << ','
           << fmtDouble(s.prophetMispRate(), 6) << ',' << r.btbMisses
           << ',' << r.criticOverrides << ',' << r.squashedPredictions
           << ',' << r.wrongPathBranches << ',' << r.wrongPathUops
           << ',' << r.partialCritiques << ',' << r.cycles << ','
           << r.fetchedUops << ',' << fmtDouble(r.upc(), 6);
        for (std::size_t c = 0; c < numCritiqueClasses; ++c)
            os << ',' << r.critiques.counts[c];
        os << "\n";
    }
    return os.str();
}

std::string
ResultStore::exportJson(const std::vector<CellResult> &results)
{
    std::ostringstream os;
    os << "[\n";
    for (std::size_t i = 0; i < results.size(); ++i)
        os << "  " << results[i].toJson()
           << (i + 1 < results.size() ? "," : "") << "\n";
    os << "]\n";
    return os.str();
}

} // namespace pcbp
