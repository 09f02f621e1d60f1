/**
 * @file
 * Factory for prophet-capable predictors, encoding the paper's
 * Table 3 configurations for hardware budgets from 2KB to 32KB.
 */

#ifndef PCBP_PREDICTORS_FACTORY_HH
#define PCBP_PREDICTORS_FACTORY_HH

#include <string>
#include <vector>

#include "predictors/predictor.hh"

namespace pcbp
{

struct TageConfig;

/** Hardware budgets from Table 3. */
enum class Budget { B2KB, B4KB, B8KB, B16KB, B32KB };

/** Budget in bytes. */
std::size_t budgetBytes(Budget b);

/** Budget as a short string, e.g.\ "8KB". */
std::string budgetName(Budget b);

/** Parse "2KB".."32KB" (fatal on anything else). */
Budget parseBudget(const std::string &s);

/** Prophet-capable predictor kinds. */
enum class ProphetKind
{
    Gshare,         // the paper's three prophets (Table 3)
    GSkew,
    Perceptron,
    Bimodal,        // baseline for tests
    Tage,           // geometric-history tagged tables (post-paper)
    AlwaysTaken,    // static floors
    AlwaysNotTaken,
};

/**
 * Every registered prophet kind, in declaration order: the paper's
 * three prophets, then the bimodal baseline, TAGE and the static
 * floors. The differential tests, the `pred.*` bench rows and
 * predictor_battle iterate it.
 */
const std::vector<ProphetKind> &allProphetKinds();

/** Kind as a string ("gshare", "2Bc-gskew", "perceptron", ...). */
std::string prophetKindName(ProphetKind k);

/** Parse a kind name (fatal on unknown). */
ProphetKind parseProphetKind(const std::string &s);

/**
 * Build a predictor of @p kind configured per Table 3 for budget
 * @p b. Non-paper kinds get budget-matched configurations.
 */
DirectionPredictorPtr makeProphet(ProphetKind kind, Budget b);

/** The budget-matched TAGE geometry makeProphet() builds for @p b. */
TageConfig tageConfigFor(Budget b);

} // namespace pcbp

#endif // PCBP_PREDICTORS_FACTORY_HH
