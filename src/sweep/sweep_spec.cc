#include "sweep/sweep_spec.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "core/tag_filter.hh"

namespace pcbp
{

namespace
{

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream is(s);
    while (std::getline(is, item, ',')) {
        item = trim(item);
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

[[noreturn]] void
badValue(int lineno, const std::string &s, const char *key,
         const std::string &expected)
{
    pcbp_fatal("sweep: line ", lineno, ": bad value '", s, "' for '",
               key, "' (expected ", expected, ")");
}

/**
 * A decimal in [0, @p max]: digits only, overflow checked digit by
 * digit (the grammar of parseCountArg), so no value wraps or throws.
 */
std::uint64_t
parseUint(const std::string &s, int lineno, const char *key,
          std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const std::string expected =
        "an integer from 0 to " + std::to_string(max);
    if (s.empty())
        badValue(lineno, s, key, expected);
    std::uint64_t v = 0;
    for (const char c : s) {
        const std::uint64_t d = std::uint64_t(c - '0');
        // v * 10 + d <= max, without overflowing on the way.
        if (c < '0' || c > '9' || d > max || v > (max - d) / 10)
            badValue(lineno, s, key, expected);
        v = v * 10 + d;
    }
    return v;
}

bool
parseOnOff(const std::string &s, const char *key)
{
    if (s == "on" || s == "true" || s == "1")
        return true;
    if (s == "off" || s == "false" || s == "0")
        return false;
    pcbp_fatal("sweep: bad value '", s, "' for '", key,
               "' (expected on/off)");
}

std::string
criticAxisName(const std::optional<CriticKind> &c)
{
    return c ? criticKindName(*c) : "none";
}

bool
criticHasFilter(const std::optional<CriticKind> &c)
{
    return c && (*c == CriticKind::TaggedGshare ||
                 *c == CriticKind::FilteredPerceptron);
}

} // namespace

// --------------------------------------------------------- SweepCell

std::string
SweepCell::key() const
{
    return keyImpl(true);
}

std::string
SweepCell::forkGroupKey() const
{
    return keyImpl(false);
}

std::string
SweepCell::keyImpl(bool with_run_lengths) const
{
    std::ostringstream os;
    os << "w=" << workload->name
       << ";p=" << prophetKindName(spec.prophet)
       << ";pb=" << budgetName(spec.prophetBudget)
       << ";c=" << criticAxisName(spec.critic)
       << ";cb=" << (spec.critic ? budgetName(spec.criticBudget) : "-")
       << ";fb=" << (spec.critic ? spec.futureBits : 0)
       << ";sh=" << (spec.speculativeHistory ? 1 : 0)
       << ";rh=" << (spec.repairHistory ? 1 : 0);
    if (with_run_lengths)
        os << ";mb=" << measureBranches << ";wb=" << warmupBranches;
    // Non-default knobs append so plain accuracy-grid keys (and
    // stores written before these knobs existed) are unchanged.
    if (spec.filterTagBits)
        os << ";tb=" << spec.filterTagBits;
    if (oracleFutureBits)
        os << ";ofb=1";
    if (timing)
        os << ";md=t";
    return os.str();
}

std::uint64_t
SweepCell::hash() const
{
    // FNV-1a, 64-bit.
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : key()) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

EngineConfig
SweepCell::engineConfig() const
{
    EngineConfig cfg = engineConfigFor(*workload);
    cfg.measureBranches = measureBranches;
    cfg.warmupBranches = warmupBranches;
    cfg.oracleFutureBits = oracleFutureBits;
    return cfg;
}

TimingConfig
SweepCell::timingConfig() const
{
    TimingConfig cfg = timingConfigFor(*workload);
    cfg.measureBranches = measureBranches;
    cfg.warmupBranches = warmupBranches;
    return cfg;
}

// --------------------------------------------------------- SweepSpec

SweepSpec
SweepSpec::parse(const std::string &text)
{
    SweepSpec spec;
    std::set<std::string> seen;
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    int futureBitsLine = 0;
    while (std::getline(is, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            pcbp_fatal("sweep: line ", lineno, ": expected 'key = value'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (!seen.insert(key).second)
            pcbp_fatal("sweep: line ", lineno, ": duplicate key '", key,
                       "'");
        const auto items = splitList(value);
        if (items.empty())
            pcbp_fatal("sweep: line ", lineno, ": empty value for '",
                       key, "'");

        if (key == "name") {
            spec.name = value;
        } else if (key == "prophet") {
            spec.axes.prophets.clear();
            for (const auto &s : items)
                spec.axes.prophets.push_back(parseProphetKind(s));
        } else if (key == "prophet_budget") {
            spec.axes.prophetBudgets.clear();
            for (const auto &s : items)
                spec.axes.prophetBudgets.push_back(parseBudget(s));
        } else if (key == "critic") {
            spec.axes.critics.clear();
            for (const auto &s : items)
                spec.axes.critics.push_back(
                    s == "none" ? std::nullopt
                                : std::optional<CriticKind>(
                                      parseCriticKind(s)));
        } else if (key == "critic_budget") {
            spec.axes.criticBudgets.clear();
            for (const auto &s : items)
                spec.axes.criticBudgets.push_back(parseBudget(s));
        } else if (key == "future_bits") {
            // Bounded below once `mode` is known.
            futureBitsLine = lineno;
            spec.axes.futureBits.clear();
            for (const auto &s : items)
                spec.axes.futureBits.push_back(static_cast<unsigned>(
                    parseUint(s, lineno, "future_bits",
                              std::numeric_limits<unsigned>::max())));
        } else if (key == "spec_history") {
            spec.axes.speculativeHistory.clear();
            for (const auto &s : items)
                spec.axes.speculativeHistory.push_back(
                    parseOnOff(s, "spec_history"));
        } else if (key == "repair_history") {
            spec.axes.repairHistory.clear();
            for (const auto &s : items)
                spec.axes.repairHistory.push_back(
                    parseOnOff(s, "repair_history"));
        } else if (key == "filter_tag_bits") {
            spec.axes.filterTagBits.clear();
            for (const auto &s : items) {
                const std::uint64_t tb =
                    parseUint(s, lineno, "filter_tag_bits");
                if (tb != 0 && (tb < TagFilter::minTagBits ||
                                tb > TagFilter::maxTagBits))
                    badValue(lineno, s, "filter_tag_bits",
                             "0 (the default) or " +
                                 std::to_string(TagFilter::minTagBits) +
                                 " to " +
                                 std::to_string(TagFilter::maxTagBits));
                spec.axes.filterTagBits.push_back(
                    static_cast<unsigned>(tb));
            }
        } else if (key == "oracle") {
            spec.axes.oracleFutureBits.clear();
            for (const auto &s : items)
                spec.axes.oracleFutureBits.push_back(
                    parseOnOff(s, "oracle"));
        } else if (key == "mode") {
            if (value == "timing")
                spec.timing = true;
            else if (value == "accuracy")
                spec.timing = false;
            else
                pcbp_fatal("sweep: line ", lineno, ": bad value '",
                           value, "' for 'mode' (expected "
                           "accuracy/timing)");
        } else if (key == "branches") {
            spec.branches = parseUint(value, lineno, "branches");
        } else if (key == "warmup") {
            spec.warmups.clear();
            for (const auto &s : items)
                spec.warmups.push_back(parseUint(s, lineno, "warmup"));
        } else if (key == "workloads") {
            spec.workloads = items;
        } else {
            pcbp_fatal("sweep: line ", lineno, ": unknown key '", key,
                       "' (known: name, prophet, prophet_budget, "
                       "critic, critic_budget, future_bits, "
                       "spec_history, repair_history, filter_tag_bits, "
                       "oracle, mode, branches, warmup, workloads)");
        }
    }
    const unsigned limit = futureBitsLimit(spec.timing);
    for (const unsigned fb : spec.axes.futureBits)
        if (fb >= limit)
            badValue(futureBitsLine, std::to_string(fb), "future_bits",
                     "fewer than " + std::to_string(limit) +
                         (spec.timing ? ", the timing model's FTQ size"
                                      : ", the accuracy engine's "
                                        "pipeline depth"));
    if (spec.workloads.empty())
        pcbp_fatal("sweep: no workloads");
    return spec;
}

SweepSpec
SweepSpec::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        pcbp_fatal("sweep: cannot read spec file '", path, "'");
    std::ostringstream os;
    os << in.rdbuf();
    return parse(os.str());
}

std::vector<const Workload *>
SweepSpec::resolveWorkloads() const
{
    std::vector<const Workload *> out;
    auto push = [&](const Workload *w) {
        if (std::find(out.begin(), out.end(), w) == out.end())
            out.push_back(w);
    };
    for (const auto &sel : workloads) {
        if (sel == "AVG") {
            for (const Workload *w : avgSet())
                push(w);
            continue;
        }
        if (sel == "ALL") {
            for (const auto &w : allWorkloads())
                push(&w);
            continue;
        }
        bool is_suite = false;
        for (const auto &w : allWorkloads())
            is_suite |= w.suite == sel;
        if (is_suite) {
            for (const Workload *w : suiteWorkloads(sel))
                push(w);
            continue;
        }
        push(&workloadByName(sel));
    }
    return out;
}

std::vector<SweepCell>
SweepSpec::cells() const
{
    const auto set = resolveWorkloads();
    if (set.empty())
        pcbp_fatal("sweep '", name, "': workload selectors resolve to "
                   "nothing");

    const SweepAxes &a = axes;
    const std::size_t dims[9] = {
        a.prophets.size(),      a.prophetBudgets.size(),
        a.critics.size(),       a.criticBudgets.size(),
        a.futureBits.size(),    a.speculativeHistory.size(),
        a.repairHistory.size(), a.filterTagBits.size(),
        a.oracleFutureBits.size(),
    };
    std::size_t num_configs = 1;
    for (const std::size_t d : dims) {
        if (d == 0)
            pcbp_fatal("sweep '", name, "': empty axis");
        num_configs *= d;
    }

    std::vector<SweepCell> out;
    std::set<std::string> dedup;
    for (std::size_t ci = 0; ci < num_configs; ++ci) {
        // Odometer over the axes, last axis fastest.
        std::size_t sub[9];
        std::size_t rem = ci;
        for (int d = 8; d >= 0; --d) {
            sub[d] = rem % dims[d];
            rem /= dims[d];
        }

        HybridSpec spec;
        spec.prophet = a.prophets[sub[0]];
        spec.prophetBudget = a.prophetBudgets[sub[1]];
        spec.critic = a.critics[sub[2]];
        spec.criticBudget = a.criticBudgets[sub[3]];
        spec.futureBits = spec.critic ? a.futureBits[sub[4]] : 0;
        spec.speculativeHistory = a.speculativeHistory[sub[5]];
        spec.repairHistory = a.repairHistory[sub[6]];
        // Only filtered critics have tags to resize; only critiqued
        // runs can consume oracle bits. Collapsing the axes here
        // (with key-level dedup below) keeps inapplicable grid
        // points from multiplying into duplicate cells.
        spec.filterTagBits =
            criticHasFilter(spec.critic) ? a.filterTagBits[sub[7]] : 0;
        const bool oracle =
            spec.critic && a.oracleFutureBits[sub[8]];
        if (oracle && timing)
            pcbp_fatal("sweep '", name, "': the oracle axis requires "
                       "the accuracy engine (mode = accuracy)");

        for (const Workload *w : set) {
            SweepCell base;
            base.spec = spec;
            base.workload = w;
            base.timing = timing;
            base.oracleFutureBits = oracle;
            if (branches) {
                base.measureBranches = std::max<std::uint64_t>(
                    scaleCount(double(branches), benchScale(), "'branches'"),
                    1000);
                base.warmupBranches = std::max<std::uint64_t>(
                    base.measureBranches / 10, 100);
            } else if (timing) {
                const TimingConfig cfg = timingConfigFor(*w);
                base.measureBranches = cfg.measureBranches;
                base.warmupBranches = cfg.warmupBranches;
            } else {
                const EngineConfig cfg = engineConfigFor(*w);
                base.measureBranches = cfg.measureBranches;
                base.warmupBranches = cfg.warmupBranches;
            }
            // The warmup axis expands innermost: cells differing only
            // in warmup sit adjacently and share a fork group.
            std::vector<std::uint64_t> wbs;
            if (warmups.empty()) {
                wbs.push_back(base.warmupBranches);
            } else {
                for (const std::uint64_t wb : warmups)
                    wbs.push_back(std::max<std::uint64_t>(
                        scaleCount(double(wb), benchScale(), "'warmup'"),
                        100));
            }
            for (const std::uint64_t wb : wbs) {
                SweepCell cell = base;
                cell.warmupBranches = wb;
                // Collapsed axes (baseline rows, unfiltered critics,
                // scale-flattened warmups) produce equal keys; dedup
                // keeps the first cell.
                if (!dedup.insert(cell.key()).second)
                    continue;
                cell.index = out.size();
                out.push_back(std::move(cell));
            }
        }
    }
    return out;
}

} // namespace pcbp
