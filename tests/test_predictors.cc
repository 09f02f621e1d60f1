/**
 * @file
 * Unit tests for the predictor zoo: each predictor must learn the
 * behavior class it is designed for, report its storage honestly,
 * and match the paper's Table 3 configurations through the factory.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "obs/stat_registry.hh"
#include "predictors/bimodal.hh"
#include "predictors/factory.hh"
#include "predictors/gshare.hh"
#include "predictors/gskew.hh"
#include "predictors/perceptron.hh"
#include "predictors/static_pred.hh"
#include "predictors/tage.hh"

namespace pcbp
{
namespace
{

/** Run a predictor over a generated outcome stream; return accuracy. */
template <typename NextOutcome>
double
trainAndMeasure(DirectionPredictor &pred, NextOutcome &&next,
                int warmup = 2000, int measure = 4000,
                Addr pc = 0x401000)
{
    HistoryRegister hist;
    int correct = 0;
    for (int i = 0; i < warmup + measure; ++i) {
        const bool outcome = next(i, hist);
        const bool p = pred.predict(pc, hist);
        if (i >= warmup && p == outcome)
            ++correct;
        pred.update(pc, hist, outcome);
        hist.shiftIn(outcome);
    }
    return double(correct) / measure;
}

// ---------------------------------------------------------------- Bimodal

TEST(Bimodal, LearnsBias)
{
    Bimodal b(1024);
    const double acc = trainAndMeasure(
        b, [](int i, const HistoryRegister &) { return i % 10 != 0; });
    EXPECT_GT(acc, 0.85);
}

TEST(Bimodal, CannotLearnAlternation)
{
    Bimodal b(1024);
    const double acc = trainAndMeasure(
        b, [](int i, const HistoryRegister &) { return i % 2 == 0; });
    EXPECT_LT(acc, 0.6) << "bimodal has no history";
}

TEST(Bimodal, SizeBits)
{
    EXPECT_EQ(Bimodal(1024).sizeBits(), 2048u);
    EXPECT_EQ(Bimodal(1024, 3).sizeBits(), 3072u);
}

TEST(Bimodal, SeparatesBranchesByAddress)
{
    Bimodal b(1024);
    HistoryRegister h;
    for (int i = 0; i < 100; ++i) {
        b.update(0x1000, h, true);
        b.update(0x1010, h, false); // distinct table index
    }
    EXPECT_TRUE(b.predict(0x1000, h));
    EXPECT_FALSE(b.predict(0x1010, h));
}

// ----------------------------------------------------------------- Gshare

TEST(Gshare, LearnsAlternation)
{
    Gshare g(32768, 15);
    const double acc = trainAndMeasure(
        g, [](int i, const HistoryRegister &) { return i % 2 == 0; });
    EXPECT_GT(acc, 0.95);
}

TEST(Gshare, LearnsHistoryCorrelation)
{
    // Outcome = outcome 3 branches ago.
    Gshare g(32768, 15);
    Rng rng(7);
    std::vector<bool> past = {true, false, true};
    const double acc = trainAndMeasure(
        g, [&](int, const HistoryRegister &h) {
            const bool out = h.bit(2);
            (void)past;
            (void)rng;
            return out;
        });
    EXPECT_GT(acc, 0.9);
}

TEST(Gshare, SizeMatchesTable3)
{
    // 8KB gshare: 32K entries x 2 bits = 8KB.
    auto g = makeProphet(ProphetKind::Gshare, Budget::B8KB);
    EXPECT_EQ(g->sizeBytes(), 8u * 1024);
    EXPECT_EQ(g->historyLength(), 15u);
}

TEST(Gshare, Table3HistoryLengths)
{
    const unsigned expect[] = {13, 14, 15, 16, 17};
    int i = 0;
    for (Budget b : {Budget::B2KB, Budget::B4KB, Budget::B8KB,
                     Budget::B16KB, Budget::B32KB}) {
        auto g = makeProphet(ProphetKind::Gshare, b);
        EXPECT_EQ(g->historyLength(), expect[i]);
        EXPECT_EQ(g->sizeBytes(), budgetBytes(b));
        ++i;
    }
}

// ------------------------------------------------------------- Perceptron

TEST(Perceptron, LearnsSingleBitEcho)
{
    // Outcome = history bit 20: one weight suffices.
    Perceptron p(128, 28);
    const double acc = trainAndMeasure(
        p, [](int, const HistoryRegister &h) { return h.bit(20); });
    EXPECT_GT(acc, 0.97);
}

TEST(Perceptron, CannotLearnXor)
{
    // XOR of two balanced bits is not linearly separable.
    Perceptron p(128, 28);
    Rng rng(3);
    // Drive history with random bits; outcome = h20 ^ h21.
    HistoryRegister hist;
    int correct = 0;
    const int warmup = 4000, measure = 6000;
    for (int i = 0; i < warmup + measure; ++i) {
        const bool outcome = hist.bit(20) != hist.bit(21);
        const bool pr = p.predict(0x1000, hist);
        if (i >= warmup && pr == outcome)
            ++correct;
        p.update(0x1000, hist, outcome);
        hist.shiftIn(rng.nextBool(0.5));
    }
    EXPECT_LT(double(correct) / measure, 0.62);
}

TEST(Perceptron, LearnsLongHistoryEcho)
{
    // The perceptron's signature advantage: correlation at lag 50,
    // far beyond any counter-table scheme in this repo.
    Perceptron p(128, 57);
    const double acc = trainAndMeasure(
        p, [](int, const HistoryRegister &h) { return h.bit(50); });
    EXPECT_GT(acc, 0.95);
}

TEST(Perceptron, ThresholdFormula)
{
    Perceptron p(113, 17);
    EXPECT_EQ(p.threshold(), int(1.93 * 17 + 14));
}

TEST(Perceptron, Table3Budgets)
{
    // 113 perceptrons x 18 8-bit weights = 2034 bytes (~2KB).
    auto p = makeProphet(ProphetKind::Perceptron, Budget::B2KB);
    EXPECT_NEAR(double(p->sizeBytes()), 2048.0, 64.0);
    auto p32 = makeProphet(ProphetKind::Perceptron, Budget::B32KB);
    EXPECT_EQ(p32->historyLength(), 57u);
}

// ------------------------------------------------------------------ GSkew

TEST(GSkew, LearnsBiasAndPattern)
{
    GSkew g(8192, 13);
    const double bias_acc = trainAndMeasure(
        g, [](int i, const HistoryRegister &) { return i % 16 != 0; });
    EXPECT_GT(bias_acc, 0.9);

    GSkew g2(8192, 13);
    const double alt_acc = trainAndMeasure(
        g2, [](int i, const HistoryRegister &) { return i % 2 == 0; });
    EXPECT_GT(alt_acc, 0.95);
}

TEST(GSkew, MetaSelectsBimodalForBiasUnderAliasing)
{
    // Two branches, both strongly biased but opposite: the BIM bank
    // separates them by address even when G0/G1 alias.
    GSkew g(64, 13);
    HistoryRegister h;
    Rng rng(5);
    for (int i = 0; i < 4000; ++i) {
        g.update(0x1000 + 16 * (i % 7), h, true);
        g.update(0x2000 + 16 * (i % 7), h, false);
        h.shiftIn(rng.nextBool(0.5));
    }
    int right = 0;
    for (int i = 0; i < 100; ++i) {
        right += g.predict(0x1000 + 16 * (i % 7), h) ? 1 : 0;
        right += !g.predict(0x2000 + 16 * (i % 7), h) ? 1 : 0;
        h.shiftIn(rng.nextBool(0.5));
    }
    EXPECT_GT(right, 170);
}

TEST(GSkew, SizeMatchesTable3)
{
    // 8KB 2Bc-gskew: 4 banks x 8K entries x 2 bits = 8KB.
    auto g = makeProphet(ProphetKind::GSkew, Budget::B8KB);
    EXPECT_EQ(g->sizeBytes(), 8u * 1024);
    EXPECT_EQ(g->historyLength(), 13u);
}

TEST(GSkew, BankViewConsistent)
{
    GSkew g(1024, 12);
    HistoryRegister h;
    for (int i = 0; i < 50; ++i)
        h.shiftIn(i % 3 == 0);
    const auto v = g.banks(0x1234, h);
    const int votes = int(v.bim) + int(v.g0) + int(v.g1);
    EXPECT_EQ(v.majority, votes >= 2);
    EXPECT_EQ(v.final_, v.useMajority ? v.majority : v.bim);
    EXPECT_EQ(g.predict(0x1234, h), v.final_);
}

// ----------------------------------------------------------------- Static

TEST(StaticPredictor, FixedDirections)
{
    StaticPredictor t(true), n(false);
    HistoryRegister h;
    EXPECT_TRUE(t.predict(0x1, h));
    EXPECT_FALSE(n.predict(0x1, h));
    EXPECT_EQ(t.sizeBits(), 0u);
}

// ---------------------------------------------------------------- Factory

TEST(Factory, ParsesSpecs)
{
    auto p = makeProphet(parseProphetKind("gshare"), parseBudget("16KB"));
    EXPECT_EQ(p->name(), "gshare-16KB");
    auto q = makeProphet(parseProphetKind("perceptron"), Budget::B8KB);
    EXPECT_EQ(q->historyLength(), 28u);
}

TEST(Factory, AllKindsConstructAtAllBudgets)
{
    for (ProphetKind k : {ProphetKind::Gshare, ProphetKind::GSkew,
                          ProphetKind::Perceptron, ProphetKind::Bimodal}) {
        for (Budget b : {Budget::B2KB, Budget::B4KB, Budget::B8KB,
                         Budget::B16KB, Budget::B32KB}) {
            auto p = makeProphet(k, b);
            ASSERT_NE(p, nullptr);
            // Budget-matched within 2x either way (tag/LRU overheads
            // and rounding are documented).
            EXPECT_GT(p->sizeBytes(), budgetBytes(b) / 4)
                << prophetKindName(k) << " " << budgetName(b);
            EXPECT_LT(p->sizeBytes(), budgetBytes(b) * 2)
                << prophetKindName(k) << " " << budgetName(b);
        }
    }
}

TEST(Factory, BudgetRoundTrip)
{
    for (Budget b : {Budget::B2KB, Budget::B4KB, Budget::B8KB,
                     Budget::B16KB, Budget::B32KB})
        EXPECT_EQ(parseBudget(budgetName(b)), b);
}

TEST(Factory, KindRoundTrip)
{
    for (ProphetKind k : allProphetKinds())
        EXPECT_EQ(parseProphetKind(prophetKindName(k)), k);
}

// ------------------------------------------------------------------- TAGE

TageConfig
tageConfigSmall()
{
    TageConfig cfg;
    cfg.baseEntries = 1024;
    for (unsigned i = 0; i < 4; ++i) {
        TageTableConfig tc;
        tc.entries = 512;
        tc.tagBits = 8;
        tc.historyLength = 4u << i; // 4, 8, 16, 32
        cfg.tables.push_back(tc);
    }
    return cfg;
}

TEST(Tage, LearnsBias)
{
    Tage t(tageConfigSmall());
    const double acc = trainAndMeasure(
        t, [](int i, const HistoryRegister &) { return i % 10 != 0; });
    EXPECT_GT(acc, 0.85);
}

TEST(Tage, LearnsShortPattern)
{
    Tage t(tageConfigSmall());
    const double acc = trainAndMeasure(
        t, [](int i, const HistoryRegister &) { return i % 2 == 0; });
    EXPECT_GT(acc, 0.95);
}

TEST(Tage, LearnsDeepHistoryBeyondGshareReach)
{
    // 16-taken/16-not-taken blocks: every 15-bit window inside a run
    // is saturated (all-T or all-N), so the 8KB gshare cannot see
    // the upcoming transition and drops ~2-4 predictions per period;
    // TAGE's longer geometric tables disambiguate the run position
    // completely.
    auto runs = [](int i, const HistoryRegister &) {
        return (i / 16) % 2 == 0;
    };
    auto tage = makeProphet(ProphetKind::Tage, Budget::B8KB);
    const double tage_acc = trainAndMeasure(*tage, runs, 4000, 4000);
    EXPECT_GT(tage_acc, 0.99);

    auto gshare = makeProphet(ProphetKind::Gshare, Budget::B8KB);
    const double gshare_acc = trainAndMeasure(*gshare, runs, 4000, 4000);
    EXPECT_GT(tage_acc, gshare_acc + 0.05)
        << "the geometric tables must buy real deep-history reach";
}

TEST(Tage, SizeBitsMatchesGeometry)
{
    TageConfig cfg;
    cfg.baseEntries = 1024;
    for (unsigned i = 0; i < 3; ++i) {
        TageTableConfig tc;
        tc.entries = 256;
        tc.tagBits = 8;
        tc.historyLength = 5 * (i + 1);
        cfg.tables.push_back(tc);
    }
    const Tage t(cfg);
    // base 1024*2 + 3 tables of 256*(3 ctr + 2 useful + 8 tag).
    EXPECT_EQ(t.sizeBits(), 1024u * 2 + 3u * 256 * 13);
    EXPECT_EQ(t.historyLength(), 15u);
    EXPECT_EQ(t.numTables(), 3u);
}

TEST(Tage, FactoryBudgetsFitAndGrow)
{
    std::size_t prev = 0;
    for (Budget b : {Budget::B2KB, Budget::B4KB, Budget::B8KB,
                     Budget::B16KB, Budget::B32KB}) {
        auto t = makeProphet(ProphetKind::Tage, b);
        EXPECT_LE(t->sizeBytes(), budgetBytes(b))
            << budgetName(b) << " config over budget";
        EXPECT_GT(t->sizeBits(), prev) << "budgets must grow";
        prev = t->sizeBits();
        EXPECT_LE(t->historyLength(), HistoryRegister::capacity);
    }
}

TEST(Tage, UsefulnessAgingKeepsAllocatorAlive)
{
    // A tiny TAGE with aggressive aging must keep adapting across a
    // behavior change (entries allocated for phase A age out and get
    // reclaimed for phase B).
    TageConfig cfg;
    cfg.baseEntries = 256;
    for (unsigned i = 0; i < 3; ++i) {
        TageTableConfig tc;
        tc.entries = 128;
        tc.tagBits = 8;
        tc.historyLength = 4 << i;
        cfg.tables.push_back(tc);
    }
    cfg.usefulResetPeriod = 512;
    Tage t(cfg);
    HistoryRegister h;
    // Phase A: alternation keyed off history.
    for (int i = 0; i < 3000; ++i) {
        const bool outcome = i % 2 == 0;
        t.update(0x2000, h, outcome);
        h.shiftIn(outcome);
    }
    // Phase B: period-3 pattern; must relearn to high accuracy.
    int correct = 0;
    for (int i = 0; i < 4000; ++i) {
        const bool outcome = i % 3 == 0;
        if (i >= 2000 && t.predict(0x2000, h) == outcome)
            ++correct;
        t.update(0x2000, h, outcome);
        h.shiftIn(outcome);
    }
    EXPECT_GT(double(correct) / 2000, 0.9);
}

/** The naive hash each bank's folded registers must reproduce. */
TableCoord
naiveTageHash(const TageTableConfig &tc, Addr pc,
              const HistoryRegister &hist)
{
    const unsigned len = tc.historyLength;
    const unsigned index_bits = log2Floor(tc.entries);
    const unsigned tag_bits = tc.tagBits;
    TableCoord h;
    h.idx = static_cast<std::uint32_t>(
        (foldBits(mix64(pc >> 2) ^ (len * 0x9e3779b9ull), index_bits) ^
         hist.foldedLow(len, index_bits)) &
        maskBits(index_bits));
    h.tag = static_cast<std::uint32_t>(
        (foldBits(mix64(pc >> 2), tag_bits) ^
         hist.foldedLow(len, tag_bits) ^
         (hist.foldedLow(len, tag_bits - 1) << 1)) &
        maskBits(tag_bits));
    return h;
}

TEST(TageFolds, IncrementalMatchesFoldedLow)
{
    // Call sequences as the simulators make them: mostly one-bit
    // shifts (consecutive predicts, or consecutive commits), some
    // repeats (a BTB miss inserts no history), and jumps (a flush or
    // a repair rewinds the history). Two streams interleave, as the
    // predict and update streams do. Every geometry the factory
    // builds is covered: histories 4..128, widths 6..10, and banks
    // whose folds split at bit 64.
    for (Budget b : {Budget::B2KB, Budget::B4KB, Budget::B8KB,
                     Budget::B16KB, Budget::B32KB}) {
        const TageConfig cfg = tageConfigFor(b);
        TageFolds streams[2] = {TageFolds(cfg.tables),
                                TageFolds(cfg.tables)};
        HistoryRegister hist[2];
        // Each stream's register before its youngest shift: a repair
        // restores it and shifts in the resolved outcome.
        HistoryRegister beforeShift[2];
        Rng rng(0x7a9e + static_cast<std::uint64_t>(b));
        std::size_t mismatches = 0;
        for (int call = 0; call < 20000 && mismatches == 0; ++call) {
            const int s = rng.nextBool(0.5) ? 1 : 0;
            HistoryRegister &h = hist[s];
            const std::uint64_t kind = rng.nextBelow(20);
            if (kind < 15) {
                beforeShift[s] = h;
                h.shiftIn(rng.nextBool(0.5));
            } else if (kind == 15) {
                // repeat: same history as the last call
            } else if (kind == 16) {
                h = beforeShift[s]; // a repair rewrites the youngest bit
                h.shiftIn(rng.nextBool(0.5));
            } else if (kind == 17) {
                h.shiftInMany(rng.next(),
                              1 + unsigned(rng.nextBelow(8)));
            } else {
                h.shiftInMany(rng.next(), 64);
                h.shiftInMany(rng.next(), 64);
            }
            const Addr pc = 0x400000 + 4 * rng.nextBelow(1 << 14);
            const TableCoord *got = streams[s].hash(pc, h);
            for (std::size_t i = 0; i < cfg.tables.size(); ++i) {
                const TableCoord want = naiveTageHash(cfg.tables[i], pc, h);
                if (got[i].idx != want.idx || got[i].tag != want.tag) {
                    ++mismatches;
                    ADD_FAILURE()
                        << budgetName(b) << " bank " << i << " (history "
                        << cfg.tables[i].historyLength << ") call " << call
                        << ": idx " << got[i].idx << " vs " << want.idx
                        << ", tag " << got[i].tag << " vs " << want.tag;
                }
            }
        }
    }
}

/**
 * TAGE written plainly, as the per-bank reference: every call hashes
 * each bank with naiveTageHash, and the provider/alternate search
 * walks the banks from the longest history down, one tag compare at
 * a time. Counter semantics are spelled out as small integers.
 */
class ReferenceTage
{
  public:
    explicit ReferenceTage(const TageConfig &config)
        : providerCommits(config.tables.size(), 0), cfg(config),
          base(config.baseEntries, 1)
    {
        for (const TageTableConfig &tc : cfg.tables)
            banks.push_back({std::vector<unsigned>(tc.entries, 3),
                             std::vector<unsigned>(tc.entries, 0),
                             std::vector<unsigned>(tc.entries, 0)});
    }

    struct Match
    {
        int provider = -1;
        int alternate = -1;
        bool providerPred = false;
        bool alternatePred = false;
        bool providerWeak = false;
        bool prediction = false;
    };

    Match
    lookup(Addr pc, const HistoryRegister &hist) const
    {
        Match m;
        m.alternatePred = base[baseIndex(pc)] > 1;
        m.providerPred = m.alternatePred;
        for (int i = int(banks.size()) - 1; i >= 0; --i) {
            const TableCoord h = naiveTageHash(cfg.tables[i], pc, hist);
            const Bank &b = banks[i];
            if (b.tag[h.idx] != h.tag)
                continue;
            if (m.provider < 0) {
                m.provider = i;
                m.providerPred = b.ctr[h.idx] > 3;
                m.providerWeak = b.useful[h.idx] == 0 &&
                                 (b.ctr[h.idx] == 3 || b.ctr[h.idx] == 4);
            } else {
                m.alternate = i;
                m.alternatePred = b.ctr[h.idx] > 3;
                break;
            }
        }
        m.prediction = m.provider >= 0 && m.providerWeak && useAlt > 7
                           ? m.alternatePred
                           : m.providerPred;
        return m;
    }

    void
    update(Addr pc, const HistoryRegister &hist, bool taken)
    {
        const Match m = lookup(pc, hist);
        ++(m.provider >= 0 ? providerCommits[m.provider] : baseCommits);
        ++alternates[m.alternate >= 0];
        if (m.provider >= 0 && m.providerWeak && useAlt > 7)
            ++altOnWeakUses;
        if (m.provider >= 0) {
            Bank &b = banks[m.provider];
            const std::uint32_t idx =
                naiveTageHash(cfg.tables[m.provider], pc, hist).idx;
            if (m.providerWeak && m.providerPred != m.alternatePred)
                step(useAlt, m.alternatePred == taken, 15);
            if (m.providerPred != m.alternatePred)
                step(b.useful[idx], m.providerPred == taken, 3);
            step(b.ctr[idx], taken, 7);
            if (m.alternate < 0)
                step(base[baseIndex(pc)], taken, 3);
        } else {
            step(base[baseIndex(pc)], taken, 3);
        }
        if (m.prediction != taken && m.provider + 1 < int(banks.size())) {
            bool allocated = false;
            for (std::size_t i = m.provider + 1; i < banks.size(); ++i) {
                const TableCoord h = naiveTageHash(cfg.tables[i], pc, hist);
                Bank &b = banks[i];
                if (b.useful[h.idx] != 0)
                    continue;
                b.tag[h.idx] = h.tag;
                b.ctr[h.idx] = taken ? 4 : 3;
                allocated = true;
                break;
            }
            ++(allocated ? allocations : allocFailures);
            for (std::size_t i = m.provider + 1; !allocated && i < banks.size();
                 ++i) {
                const TableCoord h = naiveTageHash(cfg.tables[i], pc, hist);
                step(banks[i].useful[h.idx], false, 3);
            }
        }
        if (++updates % cfg.usefulResetPeriod == 0)
            for (Bank &b : banks)
                for (unsigned &u : b.useful)
                    u >>= 1;
    }

    std::vector<std::uint64_t> providerCommits;
    std::uint64_t baseCommits = 0;
    std::uint64_t altOnWeakUses = 0;
    std::uint64_t allocations = 0;
    std::uint64_t allocFailures = 0;
    /** Commits without and with an alternate bank. */
    std::uint64_t alternates[2] = {0, 0};

  private:
    struct Bank
    {
        std::vector<unsigned> ctr, useful, tag;
    };

    static void
    step(unsigned &v, bool up, unsigned max)
    {
        if (up && v < max)
            ++v;
        else if (!up && v > 0)
            --v;
    }

    std::size_t
    baseIndex(Addr pc) const
    {
        const unsigned bits = log2Floor(cfg.baseEntries);
        return foldBits(pc >> 2, bits) & maskBits(bits);
    }

    TageConfig cfg;
    std::vector<unsigned> base;
    std::vector<Bank> banks;
    unsigned useAlt = 8;
    std::uint64_t updates = 0;
};

TEST(TageSearch, ProviderAndAlternateMatchPerBankLoop)
{
    // Both models see one random call stream: a few PCs, and
    // histories that jump among a few saved 128-bit values (so long
    // banks see their (pc, history) pairs again and hit) or shift by
    // one bit or repeat, as the simulators' streams do; the outcomes
    // are random, so the tables fill with random tags and counters.
    // Predictions go through predict() and predictKeyed(), commits
    // through update() and updateKeyed(); every prediction and, at
    // the end, every provider count must match the reference.
    for (Budget b : {Budget::B2KB, Budget::B4KB, Budget::B8KB,
                     Budget::B16KB, Budget::B32KB}) {
        TageConfig cfg = tageConfigFor(b);
        cfg.usefulResetPeriod = 4096; // age often, so tables churn
        Tage tage(cfg);
        ReferenceTage ref(cfg);
        Rng rng(0x5ea7c4 + static_cast<std::uint64_t>(b));
        std::vector<HistoryRegister> saved(24);
        for (HistoryRegister &h : saved) {
            h.shiftInMany(rng.next(), 64);
            h.shiftInMany(rng.next(), 64);
        }
        HistoryRegister hist = saved[0];
        std::size_t mismatches = 0;
        for (int call = 0; call < 60000 && mismatches == 0; ++call) {
            const std::uint64_t kind = rng.nextBelow(8);
            if (kind < 4)
                hist = saved[rng.nextBelow(saved.size())];
            else if (kind < 7)
                hist.shiftIn(rng.nextBool(0.5));
            const Addr pc = 0x400000 + 4 * rng.nextBelow(12);
            const bool want = ref.lookup(pc, hist).prediction;
            PredictKey key;
            const bool keyed = rng.nextBool(0.5);
            const bool got = keyed ? tage.predictKeyed(pc, hist, key)
                                   : tage.predict(pc, hist);
            if (got != want) {
                ++mismatches;
                ADD_FAILURE() << budgetName(b) << " call " << call
                              << ": predicted " << got << ", reference "
                              << want;
            }
            const bool taken = rng.nextBool(0.5);
            if (keyed)
                tage.updateKeyed(pc, hist, taken, key);
            else
                tage.update(pc, hist, taken);
            ref.update(pc, hist, taken);
        }

        StatRegistry reg;
        tage.exportStats(reg, "t");
        for (std::size_t i = 0; i < cfg.tables.size(); ++i) {
            const std::uint64_t n = ref.providerCommits[i];
            EXPECT_EQ(reg.simValue("t.bank" + std::to_string(i) +
                                   ".provider_commits"),
                      n)
                << budgetName(b) << " bank " << i;
            EXPECT_GT(n, 500u) << budgetName(b) << " bank " << i
                               << " was rarely the provider";
        }
        EXPECT_EQ(reg.simValue("t.base_commits"), ref.baseCommits);
        EXPECT_EQ(reg.simValue("t.alt_on_weak_uses"), ref.altOnWeakUses);
        EXPECT_EQ(reg.simValue("t.allocations"), ref.allocations);
        EXPECT_EQ(reg.simValue("t.alloc_failures"), ref.allocFailures);
        EXPECT_GT(ref.alternates[1], 5000u)
            << budgetName(b) << ": the search rarely found an alternate";
    }
}

TEST(Tage, RegisteredInFactoryAndRegistry)
{
    EXPECT_EQ(parseProphetKind("tage"), ProphetKind::Tage);
    EXPECT_EQ(prophetKindName(ProphetKind::Tage), "tage");
    bool found = false;
    for (ProphetKind k : allProphetKinds())
        found |= k == ProphetKind::Tage;
    EXPECT_TRUE(found);
    auto p = makeProphet(parseProphetKind("tage"), parseBudget("16KB"));
    EXPECT_EQ(p->name().rfind("tage", 0), 0u);
}

// ----------------------------------------------------- update determinism

TEST(AllPredictors, PredictIsSideEffectFreeAtCommitGranularity)
{
    // Calling predict twice with the same inputs yields the same
    // answer (no hidden speculative state inside predictors).
    for (ProphetKind k : allProphetKinds()) {
        auto p = makeProphet(k, Budget::B4KB);
        HistoryRegister h;
        Rng rng(11);
        for (int i = 0; i < 500; ++i) {
            const Addr pc = 0x1000 + 16 * rng.nextBelow(64);
            const bool a = p->predict(pc, h);
            const bool b = p->predict(pc, h);
            EXPECT_EQ(a, b) << prophetKindName(k);
            const bool outcome = rng.nextBool(0.7);
            p->update(pc, h, outcome);
            h.shiftIn(outcome);
        }
    }
}

TEST(AllPredictors, ResetRestoresInitialPredictions)
{
    for (ProphetKind k : allProphetKinds()) {
        auto p = makeProphet(k, Budget::B4KB);
        auto q = makeProphet(k, Budget::B4KB);
        HistoryRegister h;
        Rng rng(13);
        for (int i = 0; i < 300; ++i) {
            const Addr pc = 0x1000 + 16 * rng.nextBelow(64);
            const bool outcome = rng.nextBool(0.5);
            p->update(pc, h, outcome);
            h.shiftIn(outcome);
        }
        p->reset();
        HistoryRegister fresh;
        for (int i = 0; i < 50; ++i) {
            const Addr pc = 0x1000 + 16 * i;
            EXPECT_EQ(p->predict(pc, fresh), q->predict(pc, fresh))
                << prophetKindName(k);
        }
    }
}

} // namespace
} // namespace pcbp
