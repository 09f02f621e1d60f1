#include "obs/stat_registry.hh"

#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace pcbp
{

void
StatRegistry::add(const std::string &path, std::uint64_t delta)
{
    Entry &e = sim[path];
    e.kind = StatKind::Sum;
    e.value += delta;
}

void
StatRegistry::setMax(const std::string &path, std::uint64_t value)
{
    Entry &e = sim[path];
    e.kind = StatKind::Max;
    if (e.value < value)
        e.value = value;
}

void
StatRegistry::hist(const std::string &path, const Histogram &h)
{
    HistEntry &e = hists[path];
    if (e.buckets.empty()) {
        e.bucketWidth = h.bucketWidth();
        e.buckets = h.buckets();
        e.samples = h.count();
        return;
    }
    pcbp_assert(e.bucketWidth == h.bucketWidth() &&
                    e.buckets.size() == h.buckets().size(),
                "histogram geometry mismatch for stat ", path);
    for (std::size_t i = 0; i < e.buckets.size(); ++i)
        e.buckets[i] += h.buckets()[i];
    e.samples += h.count();
}

void
StatRegistry::addHost(const std::string &path, std::uint64_t delta)
{
    Entry &e = host[path];
    e.kind = StatKind::Sum;
    e.value += delta;
}

void
StatRegistry::setHost(const std::string &path, std::uint64_t value)
{
    Entry &e = host[path];
    e.kind = StatKind::Sum;
    e.value = value;
}

void
StatRegistry::setHostMax(const std::string &path, std::uint64_t value)
{
    Entry &e = host[path];
    e.kind = StatKind::Max;
    if (e.value < value)
        e.value = value;
}

void
StatRegistry::mergeScalars(std::map<std::string, Entry> &into,
                           const std::map<std::string, Entry> &from)
{
    for (const auto &kv : from) {
        Entry &e = into[kv.first];
        e.kind = kv.second.kind;
        if (kv.second.kind == StatKind::Max)
            e.value = std::max(e.value, kv.second.value);
        else
            e.value += kv.second.value;
    }
}

void
StatRegistry::merge(const StatRegistry &other)
{
    mergeScalars(sim, other.sim);
    mergeScalars(host, other.host);
    for (const auto &kv : other.hists) {
        HistEntry &e = hists[kv.first];
        if (e.buckets.empty()) {
            e = kv.second;
            continue;
        }
        pcbp_assert(e.bucketWidth == kv.second.bucketWidth &&
                        e.buckets.size() == kv.second.buckets.size(),
                    "histogram geometry mismatch for stat ", kv.first);
        for (std::size_t i = 0; i < e.buckets.size(); ++i)
            e.buckets[i] += kv.second.buckets[i];
        e.samples += kv.second.samples;
    }
}

bool
StatRegistry::empty() const
{
    return sim.empty() && host.empty() && hists.empty();
}

namespace
{

template <typename Map>
void
emitScalars(std::ostringstream &os, const char *name, const Map &m)
{
    os << "\"" << name << "\":{";
    bool first = true;
    for (const auto &kv : m) {
        os << (first ? "" : ",") << "\"" << jsonEscape(kv.first)
           << "\":" << kv.second.value;
        first = false;
    }
    os << "}";
}

} // namespace

std::string
StatRegistry::simJson() const
{
    std::ostringstream os;
    os << "{";
    emitScalars(os, "sim", sim);
    os << ",\"hist\":{";
    bool first = true;
    for (const auto &kv : hists) {
        os << (first ? "" : ",") << "\"" << jsonEscape(kv.first)
           << "\":{\"bucket_width\":" << kv.second.bucketWidth
           << ",\"samples\":" << kv.second.samples << ",\"buckets\":[";
        for (std::size_t i = 0; i < kv.second.buckets.size(); ++i)
            os << (i ? "," : "") << kv.second.buckets[i];
        os << "]}";
        first = false;
    }
    os << "}}";
    return os.str();
}

std::string
StatRegistry::toJson() const
{
    // The sim/hist sections are re-emitted rather than spliced from
    // simJson() so the document stays one flat, readable object.
    std::ostringstream os;
    os << "{\"schema\":\"pcbp-stats-1\",";
    const std::string inner = simJson();
    // simJson() == "{" + sections + "}"; keep the sections.
    os << inner.substr(1, inner.size() - 2) << ",";
    emitScalars(os, "host", host);
    os << "}";
    return os.str();
}

ReportTable
StatRegistry::toTable() const
{
    ReportTable t("stats", "Run statistics",
                  {"section", "stat", "value"});
    for (const auto &kv : sim)
        t.addRow({"sim", kv.first, std::to_string(kv.second.value)});
    for (const auto &kv : hists)
        t.addRow({"sim", kv.first + " (samples)",
                  std::to_string(kv.second.samples)});
    for (const auto &kv : host)
        t.addRow({"host", kv.first, std::to_string(kv.second.value)});
    t.addNote("sim: deterministic for fixed options (any --jobs); "
              "host: this execution only.");
    return t;
}

std::vector<std::pair<std::string, std::uint64_t>>
StatRegistry::simScalars() const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(sim.size());
    for (const auto &kv : sim)
        out.emplace_back(kv.first, kv.second.value);
    return out;
}

std::uint64_t
StatRegistry::simValue(const std::string &path) const
{
    const auto it = sim.find(path);
    return it == sim.end() ? 0 : it->second.value;
}

void
StatRegistry::writeFiles(const std::string &path) const
{
    auto write = [](const std::string &p, const std::string &text) {
        std::ofstream out(p, std::ios::binary | std::ios::trunc);
        if (!out)
            pcbp_fatal("stats: cannot write '", p, "'");
        out << text;
        if (!out.flush())
            pcbp_fatal("stats: short write to '", p, "'");
    };
    write(path, toJson() + "\n");
    write(path + ".md", toTable().toMarkdown());
}

} // namespace pcbp
