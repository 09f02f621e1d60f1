/**
 * @file
 * Branch Outcome Register (BOR) support.
 *
 * The BOR is the critic's history input: a shift register that the
 * prophet fills with its predictions as it makes them. When a branch
 * is critiqued with n future bits, the youngest n bits of the BOR
 * are the prophet's predictions for the branch itself and the n-1
 * branches that followed it; the older bits are (speculative)
 * history (§3.1, Fig. 1).
 *
 * Every prophet prediction enters both the BHR and the BOR, and one
 * checkpoint repairs both (§3.2-3.3), so the two never differ: the
 * hybrid keeps one speculative history register for both. This
 * header adds the per-branch checkpoint record and the helper that
 * appends the future bits to make the BOR view a critique sees
 * (defined here: it runs once per critique).
 */

#ifndef PCBP_CORE_BOR_HH
#define PCBP_CORE_BOR_HH

#include "common/bit_utils.hh"
#include "common/future_bits.hh"
#include "common/history_register.hh"
#include "common/types.hh"
#include "predictors/predictor.hh"

namespace pcbp
{

/**
 * Checkpoint taken when the front end fetches a branch: the
 * speculative history from just before the branch's own prediction
 * was shifted in. Restoring it and inserting the resolved outcome is
 * the repair mechanism of §3.3.
 *
 * The key holds the table coordinates the prophet hashed from
 * (pc, histBefore) at predict, so the commit-time update of the same
 * branch need not hash again. A checkpoint taken without a predict
 * (a BTB miss) carries an invalid key.
 */
struct BranchContext
{
    HistoryRegister histBefore;
    PredictKey key;
};

/**
 * Reconstruct the BOR as seen by the critique of a branch.
 *
 * @param hist_before History checkpoint from the branch's prediction.
 * @param future_bits The prophet's predictions for the branch and
 *        the ones after it, oldest first (so future_bits[0] is the
 *        prediction for the branch being critiqued).
 * @return BOR with future_bits shifted in youngest-last.
 */
inline HistoryRegister
buildCritiqueBor(const HistoryRegister &hist_before,
                 const FutureBits &future_bits)
{
    HistoryRegister bor = hist_before;
    const unsigned n = future_bits.size();
    if (n == 0)
        return bor;
    // future_bits is oldest-first (bit 0 = first bit shifted in);
    // shiftInMany wants youngest-first, so reverse the window. One
    // two-word funnel shift replaces the n-iteration shiftIn loop on
    // the per-critique hot path.
    const std::uint64_t youngest_first =
        bitReverse64(future_bits.rawMask()) >> (64 - n);
    bor.shiftInMany(youngest_first, n);
    return bor;
}

} // namespace pcbp

#endif // PCBP_CORE_BOR_HH
