#include "predictors/tage.hh"

#include <algorithm>

#include "common/bit_utils.hh"
#include "common/logging.hh"
#include "obs/stat_registry.hh"

namespace pcbp
{

TageFolds::TageFolds(const std::vector<TageTableConfig> &tables)
    : stepLanes(simd::tageStepKernel()), hashLanes(simd::tageHashKernel())
{
    // The lanes hold up to maxBanks banks of one index width and one
    // tag width, every fold 2..16 bits wide: every factory geometry.
    pcbp_assert(!tables.empty() &&
                    tables.size() <= simd::TageLanes::maxBanks,
                "tage lanes hold 1..8 tagged tables");
    indexBits = log2Floor(tables[0].entries);
    tagBits = tables[0].tagBits;
    pcbp_assert(indexBits >= 2 && indexBits <= 16 && tagBits >= 3 &&
                    tagBits <= 16,
                "tage lane folds must be 2..16 bits wide");
    unsigned max_history = 0;
    for (const TageTableConfig &tc : tables) {
        pcbp_assert(tc.entries == tables[0].entries &&
                        tc.tagBits == tagBits,
                    "tage lanes need one table size and one tag width");
        pcbp_assert(tc.historyLength >= 1 &&
                    tc.historyLength <= HistoryRegister::capacity);
        lengths.push_back(tc.historyLength);
        max_history = std::max(max_history, tc.historyLength);
    }
    mask0 = maskBits(std::min(max_history, 64u));
    mask1 = max_history > 64 ? maskBits(max_history - 64) : 0;

    const unsigned pc_width[2] = {indexBits, tagBits};
    for (unsigned j = 0; j < 2; ++j) {
        const unsigned w = pc_width[j];
        lanes.pcMask[j] = maskBits(w);
        unsigned s = foldFixedFirstShift(w);
        for (unsigned k = 0; k < simd::TageLanes::pcSteps; ++k, s >>= 1)
            lanes.pcShift[2 * k + j] = s >= w ? s : 64;
    }
    for (unsigned i = 0; i < lengths.size(); ++i) {
        const unsigned len = lengths[i];
        // Decorrelate banks by mixing the history length into the
        // index hash; the folded history does the rest.
        lanes.salt[i] = static_cast<std::uint16_t>(
            foldBits(len * 0x9e3779b9ull, indexBits));
        const unsigned lane[3] = {i, 8 + i, 24 + i};
        const unsigned width[3] = {indexBits, tagBits, tagBits - 1};
        for (unsigned j = 0; j < 3; ++j) {
            const unsigned l = lane[j], w = width[j];
            lanes.mask[l] = static_cast<std::uint16_t>(maskBits(w));
            lanes.wrapMul[l] = static_cast<std::uint16_t>(1u << (17 - w));
            lanes.outByte[l] = static_cast<std::uint16_t>((len - 1) / 8);
            lanes.outTest[l] = static_cast<std::uint16_t>(1u << (len - 1) % 8);
            // Bits 64 and up fold as their own sequence (foldedLow),
            // so the last bit of a wide bank sits at (len - 64) % w.
            lanes.outBit[l] = static_cast<std::uint16_t>(
                1u << (len > 64 ? len - 64 : len) % w);
            if (len > 64) {
                lanes.crossBits[l] =
                    static_cast<std::uint16_t>((1u << 64 % w) ^ 1u);
            }
        }
    }
}

void
TageFolds::refold(const HistoryRegister &hist)
{
    for (unsigned i = 0; i < lengths.size(); ++i) {
        const unsigned len = lengths[i];
        lanes.fold[i] =
            static_cast<std::uint16_t>(hist.foldedLow(len, indexBits));
        lanes.fold[8 + i] =
            static_cast<std::uint16_t>(hist.foldedLow(len, tagBits));
        lanes.fold[24 + i] =
            static_cast<std::uint16_t>(hist.foldedLow(len, tagBits - 1));
    }
}

const TableCoord *
TageFolds::hash(Addr pc, const HistoryRegister &hist)
{
    const std::uint64_t h0 = hist.word0() & mask0;
    const std::uint64_t h1 = hist.word1() & mask1;
    if (!valid) {
        refold(hist);
    } else if (h0 != last0 || h1 != last1) {
        const std::uint64_t in = h0 & 1;
        const bool shifted =
            h0 == (((last0 << 1) | in) & mask0) &&
            h1 == (((last1 << 1) | (last0 >> 63)) & mask1);
        if (shifted)
            stepLanes(lanes, last0, last1, in);
        else
            refold(hist);
    }
    last0 = h0;
    last1 = h1;
    valid = true;

    hashLanes(lanes, mix64(pc >> 2), coords);
    return coords;
}

Tage::Tage(const TageConfig &config)
    : cfg(config), baseIndexBits(log2Floor(config.baseEntries)),
      predictFolds(config.tables), updateFolds(config.tables)
{
    pcbp_assert(isPowerOfTwo(cfg.baseEntries),
                "tage base size must be 2^n");
    pcbp_assert(!cfg.tables.empty(), "tage needs tagged tables");

    base = SatCounterTable(cfg.baseEntries, 2, 1);

    unsigned prev_hist = 0;
    for (const TageTableConfig &tc : cfg.tables) {
        pcbp_assert(isPowerOfTwo(tc.entries),
                    "tage table size must be 2^n");
        pcbp_assert(tc.historyLength > prev_hist,
                    "tage histories must strictly increase");
        pcbp_assert(tc.historyLength <= HistoryRegister::capacity);
        pcbp_assert(tc.tagBits >= 4 && tc.tagBits <= 16);
        prev_hist = tc.historyLength;

        Table t;
        t.cfg = tc;
        t.indexBits = log2Floor(tc.entries);
        t.ctrs = SatCounterTable(tc.entries, cfg.counterBits,
                                 (1u << (cfg.counterBits - 1)) - 1);
        t.tags.assign(tc.entries, 0);
        t.useful = SatCounterTable(tc.entries, cfg.usefulBits, 0);
        tables.push_back(std::move(t));
    }
    maxHistory = cfg.tables.back().historyLength;
    providerCommits.assign(tables.size(), 0);
    carriesKey = tables.size() <= PredictKey::capacity;
}

std::size_t
Tage::baseIndex(Addr pc) const
{
    return foldBits(pc >> 2, baseIndexBits) & maskBits(baseIndexBits);
}

void
Tage::lookup(Addr pc, const TableCoord *h, Match &m) const
{
    m.alternatePred = base.taken(baseIndex(pc));
    m.providerPred = m.alternatePred;
    for (int i = int(tables.size()) - 1; i >= 0; --i) {
        const Table &t = tables[i];
        const std::size_t idx = h[i].idx;
        if (t.tags[idx] != static_cast<std::uint16_t>(h[i].tag))
            continue;
        if (m.provider < 0) {
            m.provider = i;
            m.providerPred = t.ctrs.taken(idx);
            // "Newly allocated" signature: weak counter, no proven
            // usefulness yet.
            const unsigned mid = t.ctrs.maxValue() / 2;
            m.providerWeak = t.useful.value(idx) == 0 &&
                             (t.ctrs.value(idx) == mid ||
                              t.ctrs.value(idx) == mid + 1);
        } else {
            m.alternate = i;
            m.alternatePred = t.ctrs.taken(idx);
            break;
        }
    }
    m.prediction = (m.provider >= 0 && m.providerWeak &&
                    useAltOnWeak.taken())
                       ? m.alternatePred
                       : m.providerPred;
}

bool
Tage::predict(Addr pc, const HistoryRegister &hist)
{
    Match m;
    lookup(pc, predictFolds.hash(pc, hist), m);
    return m.prediction;
}

void
Tage::update(Addr pc, const HistoryRegister &hist, bool taken)
{
    updateAt(pc, updateFolds.hash(pc, hist), taken);
}

bool
Tage::predictKeyed(Addr pc, const HistoryRegister &hist, PredictKey &key)
{
    const TableCoord *h = predictFolds.hash(pc, hist);
    if (carriesKey) {
        std::copy(h, h + tables.size(), key.coord);
        key.valid = true;
    }
    Match m;
    lookup(pc, h, m);
    return m.prediction;
}

void
Tage::updateKeyed(Addr pc, const HistoryRegister &hist, bool taken,
                  const PredictKey &key)
{
    if (key.valid)
        updateAt(pc, key.coord, taken);
    else
        update(pc, hist, taken);
}

void
Tage::updateAt(Addr pc, const TableCoord *h, bool taken)
{
    // One hash set serves the lookup, the provider update, allocation
    // and decay.
    Match m;
    lookup(pc, h, m);

    if (m.provider >= 0)
        ++providerCommits[std::size_t(m.provider)];
    else
        ++baseCommits;
    if (m.provider >= 0 && m.providerWeak && useAltOnWeak.taken())
        ++altOnWeakUses;

    if (m.provider >= 0) {
        Table &t = tables[m.provider];
        const std::size_t idx = h[std::size_t(m.provider)].idx;

        // Track whether the alternate would have done better on weak
        // providers (drives the use-alt-on-weak policy).
        if (m.providerWeak && m.providerPred != m.alternatePred)
            useAltOnWeak.update(m.alternatePred == taken);

        // Usefulness rewards the provider only where it beats the
        // alternate; a provider the alternate matches is replaceable.
        if (m.providerPred != m.alternatePred)
            t.useful.update(idx, m.providerPred == taken);

        t.ctrs.update(idx, taken);

        // The base keeps learning when it was (or backs) the
        // alternate, so freshly allocated entries fall back well.
        if (m.alternate < 0)
            base.update(baseIndex(pc), taken);
    } else {
        base.update(baseIndex(pc), taken);
    }

    // Allocate into a longer-history table when the final prediction
    // missed: first not-useful entry wins; if every candidate is
    // useful, decay them all so the next miss can allocate (Seznec).
    if (m.prediction != taken &&
        m.provider + 1 < int(tables.size())) {
        bool allocated = false;
        for (std::size_t i = std::size_t(m.provider + 1);
             i < tables.size(); ++i) {
            Table &t = tables[i];
            const std::size_t idx = h[i].idx;
            if (t.useful.value(idx) != 0)
                continue;
            t.tags[idx] = static_cast<std::uint16_t>(h[i].tag);
            t.ctrs.setWeak(idx, taken);
            t.useful.set(idx, 0);
            allocated = true;
            break;
        }
        if (allocated) {
            ++allocations;
        } else {
            ++allocFailures;
            for (std::size_t i = std::size_t(m.provider + 1);
                 i < tables.size(); ++i) {
                tables[i].useful.decrement(h[i].idx);
            }
        }
    }

    ++updates;
    agePeriodically();
}

void
Tage::agePeriodically()
{
    if (cfg.usefulResetPeriod == 0 ||
        updates % cfg.usefulResetPeriod != 0) {
        return;
    }
    ++agings;
    for (Table &t : tables)
        for (std::size_t i = 0; i < t.useful.size(); ++i)
            t.useful.set(i, t.useful.value(i) >> 1);
}

void
Tage::reset()
{
    base.fill(1);
    for (Table &t : tables) {
        t.ctrs.fill((1u << (cfg.counterBits - 1)) - 1);
        std::fill(t.tags.begin(), t.tags.end(), 0);
        t.useful.fill(0);
    }
    useAltOnWeak.set(8);
    predictFolds.invalidate();
    updateFolds.invalidate();
    updates = 0;
    providerCommits.assign(tables.size(), 0);
    baseCommits = 0;
    altOnWeakUses = 0;
    allocations = 0;
    allocFailures = 0;
    agings = 0;
}

std::size_t
Tage::sizeBits() const
{
    std::size_t bits = base.size() * 2;
    for (const Table &t : tables)
        bits += t.tags.size() *
                (cfg.counterBits + cfg.usefulBits + t.cfg.tagBits);
    return bits;
}

std::string
Tage::name() const
{
    return "tage" + std::to_string(tables.size()) + "-" +
           std::to_string(sizeBytes() / 1024) + "KB";
}

void
Tage::exportStats(StatRegistry &reg, const std::string &prefix) const
{
    DirectionPredictor::exportStats(reg, prefix);
    reg.add(prefix + ".updates", updates);
    reg.add(prefix + ".base_commits", baseCommits);
    reg.add(prefix + ".alt_on_weak_uses", altOnWeakUses);
    reg.add(prefix + ".allocations", allocations);
    reg.add(prefix + ".alloc_failures", allocFailures);
    reg.add(prefix + ".agings", agings);
    for (std::size_t i = 0; i < tables.size(); ++i) {
        reg.add(prefix + ".bank" + std::to_string(i) +
                    ".provider_commits",
                providerCommits[i]);
    }
}

} // namespace pcbp
