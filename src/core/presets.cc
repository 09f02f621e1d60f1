#include "core/presets.hh"

#include <array>

#include "common/logging.hh"
#include "core/critic.hh"
#include "core/filtered_perceptron.hh"
#include "core/tagged_gshare.hh"
#include "predictors/perceptron.hh"

namespace pcbp
{

namespace
{

// Table 3: tagged gshare row — sets x 6-way, BOR size 18.
constexpr std::array<std::size_t, 5> tgshareSets = {
    256, 512, 1024, 2048, 4096,
};
constexpr unsigned tgshareWays = 6;
constexpr unsigned tgshareTagBits = 10;
constexpr unsigned tgshareBorBits = 18;

// Table 3: filtered perceptron rows.
constexpr std::array<std::size_t, 5> fpercCount = {73, 113, 163, 282, 348};
constexpr std::array<unsigned, 5> fpercHistory = {13, 17, 24, 28, 47};
constexpr std::array<std::size_t, 5> fpercFilterSets = {
    128, 256, 512, 1024, 2048,
};
constexpr unsigned fpercFilterWays = 3;
constexpr unsigned fpercTagBits = 10;
constexpr unsigned fpercFilterBorBits = 18;

// Unfiltered perceptron critic reuses the Table 3 perceptron row.
constexpr std::array<std::size_t, 5> upercCount = {113, 163, 282, 348, 565};
constexpr std::array<unsigned, 5> upercHistory = {17, 24, 28, 47, 57};

} // namespace

std::string
criticKindName(CriticKind k)
{
    switch (k) {
      case CriticKind::TaggedGshare: return "t.gshare";
      case CriticKind::FilteredPerceptron: return "f.perceptron";
      case CriticKind::UnfilteredPerceptron: return "u.perceptron";
    }
    pcbp_panic("bad CriticKind");
}

const std::vector<CriticKind> &
allCriticKinds()
{
    static const std::vector<CriticKind> kinds = {
        CriticKind::TaggedGshare,
        CriticKind::FilteredPerceptron,
        CriticKind::UnfilteredPerceptron,
    };
    return kinds;
}

CriticKind
parseCriticKind(const std::string &s)
{
    for (CriticKind k : allCriticKinds()) {
        if (criticKindName(k) == s)
            return k;
    }
    pcbp_fatal("unknown critic kind '", s, "'");
}

FilteredPredictorPtr
makeCritic(CriticKind kind, Budget b, unsigned filter_tag_bits)
{
    const std::size_t i = static_cast<std::size_t>(b);
    switch (kind) {
      case CriticKind::TaggedGshare:
        return std::make_unique<TaggedGshare>(
            tgshareSets[i], tgshareWays,
            filter_tag_bits ? filter_tag_bits : tgshareTagBits,
            tgshareBorBits);
      case CriticKind::FilteredPerceptron:
        return std::make_unique<FilteredPerceptron>(
            fpercCount[i], fpercHistory[i], fpercFilterSets[i],
            fpercFilterWays,
            filter_tag_bits ? filter_tag_bits : fpercTagBits,
            fpercFilterBorBits);
      case CriticKind::UnfilteredPerceptron:
        if (filter_tag_bits)
            pcbp_fatal("u.perceptron has no filter tags to override");
        return std::make_unique<UnfilteredCritic>(
            std::make_unique<Perceptron>(upercCount[i], upercHistory[i]));
    }
    pcbp_panic("bad CriticKind");
}

} // namespace pcbp
