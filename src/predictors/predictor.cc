#include "predictors/predictor.hh"

#include "obs/stat_registry.hh"

namespace pcbp
{

// Geometry is config-derived and identical every run; setMax keeps
// it stable when per-cell registries covering different configs are
// merged into one run-wide dump (the largest config wins).

void
DirectionPredictor::exportStats(StatRegistry &reg,
                                const std::string &prefix) const
{
    reg.setMax(prefix + ".size_bits", sizeBits());
    reg.setMax(prefix + ".history_bits", historyLength());
}

void
FilteredPredictor::exportStats(StatRegistry &reg,
                               const std::string &prefix) const
{
    reg.setMax(prefix + ".size_bits", sizeBits());
    reg.setMax(prefix + ".bor_bits", borBits());
}

} // namespace pcbp
