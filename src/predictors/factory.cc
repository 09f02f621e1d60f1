#include "predictors/factory.hh"

#include <array>

#include "common/logging.hh"
#include "predictors/bimodal.hh"
#include "predictors/gshare.hh"
#include "predictors/gskew.hh"
#include "predictors/perceptron.hh"
#include "predictors/static_pred.hh"
#include "predictors/tage.hh"

namespace pcbp
{

namespace
{

constexpr std::array<std::size_t, 5> budgetBytesTable = {
    2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024,
};

// Table 3: gshare row.
constexpr std::array<std::size_t, 5> gshareEntries = {
    8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024,
};
constexpr std::array<unsigned, 5> gshareHistory = {13, 14, 15, 16, 17};

// Table 3: perceptron row.
constexpr std::array<std::size_t, 5> perceptronCount = {
    113, 163, 282, 348, 565,
};
constexpr std::array<unsigned, 5> perceptronHistory = {17, 24, 28, 47, 57};

// Table 3: 2Bc-gskew row (entries per table).
constexpr std::array<std::size_t, 5> gskewEntries = {
    2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024,
};
constexpr std::array<unsigned, 5> gskewHistory = {11, 12, 13, 14, 15};

// TAGE rows (budget-matched, not from the paper): bimodal base
// entries, tagged tables x entries, tag bits, and the geometric
// history series per budget class.
struct TageRow
{
    std::size_t baseEntries;
    std::size_t tableEntries;
    unsigned numTables;
    unsigned tagBits;
    std::array<unsigned, 6> histories; // first numTables used
};

constexpr std::array<TageRow, 5> tageRows = {{
    {1024, 256, 4, 7, {4, 9, 20, 45, 0, 0}},       // 2KB
    {2048, 512, 4, 8, {5, 11, 25, 56, 0, 0}},      // 4KB
    {4096, 1024, 4, 8, {6, 14, 32, 72, 0, 0}},     // 8KB
    {8192, 1024, 5, 10, {5, 11, 24, 52, 112, 0}},  // 16KB
    {16384, 2048, 6, 10, {4, 9, 19, 40, 84, 128}}, // 32KB
}};

std::size_t
budgetIndex(Budget b)
{
    return static_cast<std::size_t>(b);
}

} // namespace

TageConfig
tageConfigFor(Budget b)
{
    const TageRow &row = tageRows[budgetIndex(b)];
    TageConfig cfg;
    cfg.baseEntries = row.baseEntries;
    for (unsigned i = 0; i < row.numTables; ++i) {
        TageTableConfig tc;
        tc.entries = row.tableEntries;
        tc.tagBits = row.tagBits;
        tc.historyLength = row.histories[i];
        cfg.tables.push_back(tc);
    }
    return cfg;
}

std::size_t
budgetBytes(Budget b)
{
    return budgetBytesTable[budgetIndex(b)];
}

std::string
budgetName(Budget b)
{
    return std::to_string(budgetBytes(b) / 1024) + "KB";
}

Budget
parseBudget(const std::string &s)
{
    for (Budget b : {Budget::B2KB, Budget::B4KB, Budget::B8KB,
                     Budget::B16KB, Budget::B32KB}) {
        if (budgetName(b) == s)
            return b;
    }
    pcbp_fatal("unknown budget '", s, "' (expected 2KB..32KB)");
}

std::string
prophetKindName(ProphetKind k)
{
    switch (k) {
      case ProphetKind::Gshare: return "gshare";
      case ProphetKind::GSkew: return "2Bc-gskew";
      case ProphetKind::Perceptron: return "perceptron";
      case ProphetKind::Bimodal: return "bimodal";
      case ProphetKind::Tage: return "tage";
      case ProphetKind::AlwaysTaken: return "always-taken";
      case ProphetKind::AlwaysNotTaken: return "always-not-taken";
    }
    pcbp_panic("bad ProphetKind");
}

const std::vector<ProphetKind> &
allProphetKinds()
{
    static const std::vector<ProphetKind> kinds = {
        ProphetKind::Gshare,     ProphetKind::GSkew,
        ProphetKind::Perceptron, ProphetKind::Bimodal,
        ProphetKind::Tage,       ProphetKind::AlwaysTaken,
        ProphetKind::AlwaysNotTaken,
    };
    return kinds;
}

ProphetKind
parseProphetKind(const std::string &s)
{
    for (ProphetKind k : allProphetKinds()) {
        if (prophetKindName(k) == s)
            return k;
    }
    pcbp_fatal("unknown predictor kind '", s, "'");
}

DirectionPredictorPtr
makeProphet(ProphetKind kind, Budget b)
{
    const std::size_t i = budgetIndex(b);
    switch (kind) {
      case ProphetKind::Gshare:
        return std::make_unique<Gshare>(gshareEntries[i],
                                        gshareHistory[i]);
      case ProphetKind::GSkew:
        return std::make_unique<GSkew>(gskewEntries[i], gskewHistory[i]);
      case ProphetKind::Perceptron:
        return std::make_unique<Perceptron>(perceptronCount[i],
                                            perceptronHistory[i]);
      case ProphetKind::Bimodal:
        // budget / 2 bits per entry.
        return std::make_unique<Bimodal>(budgetBytes(b) * 4);
      case ProphetKind::Tage:
        return std::make_unique<Tage>(tageConfigFor(b));
      case ProphetKind::AlwaysTaken:
        return std::make_unique<StaticPredictor>(true);
      case ProphetKind::AlwaysNotTaken:
        return std::make_unique<StaticPredictor>(false);
    }
    pcbp_panic("bad ProphetKind");
}

} // namespace pcbp
