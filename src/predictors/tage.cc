#include "predictors/tage.hh"

#include <algorithm>

#include "common/bit_utils.hh"
#include "common/logging.hh"
#include "obs/stat_registry.hh"

namespace pcbp
{

TageFolds::TageFolds(const std::vector<TageTableConfig> &tables)
{
    unsigned max_history = 0;
    auto slotOf = [this](unsigned w) {
        for (unsigned s = 0; s < widths.size(); ++s)
            if (widths[s] == w)
                return s;
        widths.push_back(w);
        return unsigned(widths.size() - 1);
    };
    for (const TageTableConfig &tc : tables) {
        const unsigned len = tc.historyLength;
        const unsigned index_bits = log2Floor(tc.entries);
        Bank b;
        b.historyLength = len;
        b.outWord = (len - 1) / 64;
        b.outShift = (len - 1) % 64;
        b.wide = len > 64 ? 1 : 0;
        b.idxSlot = slotOf(index_bits);
        b.tagSlot = slotOf(tc.tagBits);
        // Decorrelate banks by mixing the history length into the
        // index hash; the folded history does the rest.
        b.idxSalt = foldBits(len * 0x9e3779b9ull, index_bits);
        b.tagMask = maskBits(tc.tagBits);
        const unsigned fold_widths[3] = {index_bits, tc.tagBits,
                                         tc.tagBits - 1};
        for (unsigned j = 0; j < 3; ++j) {
            Fold &f = b.folds[j];
            const unsigned w = fold_widths[j];
            f.width = w;
            f.mask = maskBits(w);
            if (w == 0)
                continue;
            f.top = w - 1;
            // Bits 64 and up fold as their own sequence (foldedLow),
            // so the last bit of a wide bank sits at (len - 64) % w.
            f.outPos = (len > 64 ? len - 64 : len) % w;
            f.pos64 = 64 % w;
        }
        banks.push_back(b);
        max_history = std::max(max_history, len);
    }
    mask0 = maskBits(std::min(max_history, 64u));
    mask1 = max_history > 64 ? maskBits(max_history - 64) : 0;
    pcFolds.assign(widths.size(), 0);
    hashes.assign(banks.size(), TableCoord{});
}

void
TageFolds::refold(const HistoryRegister &hist)
{
    for (Bank &b : banks)
        for (Fold &f : b.folds)
            f.value = hist.foldedLow(b.historyLength, f.width);
}

void
TageFolds::shiftFolds(std::uint64_t in)
{
    // New history = (last << 1) | in. Under a one-bit left rotate
    // every kept bit lands where its fold puts it, except two: the
    // bit that leaves the window, and (for wide banks) old bit 63,
    // which becomes bit 64 and restarts at position 0.
    const std::uint64_t bit63 = last0 >> 63;
    for (Bank &b : banks) {
        const std::uint64_t out =
            ((b.outWord ? last1 : last0) >> b.outShift) & 1;
        const std::uint64_t cross = bit63 & b.wide;
        for (Fold &f : b.folds) {
            std::uint64_t v = (f.value << 1) | (f.value >> f.top);
            v ^= in ^ (out << f.outPos) ^ (cross << f.pos64) ^ cross;
            f.value = v & f.mask;
        }
    }
}

const std::vector<TableCoord> &
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
            shiftFolds(in);
        else
            refold(hist);
    }
    last0 = h0;
    last1 = h1;
    valid = true;

    const std::uint64_t m = mix64(pc >> 2);
    for (std::size_t s = 0; s < widths.size(); ++s)
        pcFolds[s] = foldBitsFixed(m, widths[s]);
    for (std::size_t i = 0; i < banks.size(); ++i) {
        const Bank &b = banks[i];
        hashes[i].idx = static_cast<std::uint32_t>(
            pcFolds[b.idxSlot] ^ b.idxSalt ^ b.folds[0].value);
        // Two different-width folds of the same history decorrelate
        // the tag from the index (Seznec's CSR1/CSR2 pair).
        hashes[i].tag = static_cast<std::uint32_t>(
            (pcFolds[b.tagSlot] ^ b.folds[1].value ^
             (b.folds[2].value << 1)) &
            b.tagMask);
    }
    return hashes;
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

Tage::Match
Tage::lookup(Addr pc, const TableCoord *h) const
{
    Match m;
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
    return m;
}

bool
Tage::predict(Addr pc, const HistoryRegister &hist)
{
    return lookup(pc, predictFolds.hash(pc, hist).data()).prediction;
}

void
Tage::update(Addr pc, const HistoryRegister &hist, bool taken)
{
    updateAt(pc, updateFolds.hash(pc, hist).data(), taken);
}

bool
Tage::predictKeyed(Addr pc, const HistoryRegister &hist, PredictKey &key)
{
    const std::vector<TableCoord> &h = predictFolds.hash(pc, hist);
    if (carriesKey) {
        std::copy(h.begin(), h.end(), key.coord);
        key.valid = true;
    }
    return lookup(pc, h.data()).prediction;
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
    const Match m = lookup(pc, h);

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
