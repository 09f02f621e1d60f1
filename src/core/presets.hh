/**
 * @file
 * Critic configurations from Table 3 and convenience builders for
 * whole prophet/critic hybrids.
 */

#ifndef PCBP_CORE_PRESETS_HH
#define PCBP_CORE_PRESETS_HH

#include <string>
#include <vector>

#include "core/prophet_critic.hh"
#include "predictors/factory.hh"

namespace pcbp
{

/** Critic kinds evaluated in the paper. */
enum class CriticKind
{
    TaggedGshare,         // "t.gshare" in Figure 7
    FilteredPerceptron,   // "f.perceptron" in Figure 7
    UnfilteredPerceptron, // Figure 6(a)
};

/** Every registered critic kind, in declaration order. */
const std::vector<CriticKind> &allCriticKinds();

/** Kind as a string ("t.gshare", "f.perceptron", ...). */
std::string criticKindName(CriticKind k);

/** Parse a critic kind name (fatal on unknown). */
CriticKind parseCriticKind(const std::string &s);

/**
 * Build a critic configured per Table 3 for the given budget. The
 * returned critic is fully owned and freshly initialized (no shared
 * tables between instances). @p filter_tag_bits overrides the filter
 * tag width for the §4 ablation; 0 keeps the Table-3 default, and
 * the override is fatal for unfiltered critics (they have no tags).
 */
FilteredPredictorPtr makeCritic(CriticKind kind, Budget b,
                                unsigned filter_tag_bits = 0);

} // namespace pcbp

#endif // PCBP_CORE_PRESETS_HH
