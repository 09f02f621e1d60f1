#include "predictors/gskew.hh"

#include "common/bit_utils.hh"
#include "common/logging.hh"

namespace pcbp
{

GSkew::GSkew(std::size_t entries_per_bank, unsigned history_bits)
    : bim(entries_per_bank, SatCounter(2, 1)),
      g0(entries_per_bank, SatCounter(2, 1)),
      g1(entries_per_bank, SatCounter(2, 1)),
      meta(entries_per_bank, SatCounter(2, 2)),
      histBits(history_bits),
      indexBits(log2Floor(entries_per_bank))
{
    pcbp_assert(isPowerOfTwo(entries_per_bank),
                "gskew bank size must be 2^n");
    pcbp_assert(indexBits >= 2, "gskew banks need at least 4 entries");
}

GSkew::Indexes
GSkew::indexes(Addr pc, const HistoryRegister &hist) const
{
    const std::uint64_t a = foldBits(pc >> 2, indexBits);
    const std::uint64_t h = hist.foldedLow(histBits, indexBits);
    const std::uint64_t mask = maskBits(indexBits);
    Indexes ix;
    ix.bim = a;
    // Skewing: two bijections of the two components so that a pair
    // (a, h) colliding in G0 maps elsewhere in G1.
    ix.g0 = (skewH(a, indexBits) ^ skewHInv(h, indexBits) ^ h) & mask;
    ix.g1 = (skewHInv(a, indexBits) ^ skewH(h, indexBits) ^ a) & mask;
    ix.meta = (a ^ skewH(h, indexBits)) & mask;
    return ix;
}

GSkew::BankView
GSkew::bankView(const Indexes &ix) const
{
    BankView v;
    v.bim = bim[ix.bim].taken();
    v.g0 = g0[ix.g0].taken();
    v.g1 = g1[ix.g1].taken();
    const int votes = int(v.bim) + int(v.g0) + int(v.g1);
    v.majority = votes >= 2;
    v.useMajority = meta[ix.meta].taken();
    v.final_ = v.useMajority ? v.majority : v.bim;
    return v;
}

GSkew::BankView
GSkew::banks(Addr pc, const HistoryRegister &hist) const
{
    return bankView(indexes(pc, hist));
}

bool
GSkew::predict(Addr pc, const HistoryRegister &hist)
{
    return banks(pc, hist).final_;
}

void
GSkew::update(Addr pc, const HistoryRegister &hist, bool taken)
{
    updateAt(indexes(pc, hist), taken);
}

bool
GSkew::predictKeyed(Addr pc, const HistoryRegister &hist,
                    PredictKey &key)
{
    const Indexes ix = indexes(pc, hist);
    key.coord[0].idx = static_cast<std::uint32_t>(ix.bim);
    key.coord[1].idx = static_cast<std::uint32_t>(ix.g0);
    key.coord[2].idx = static_cast<std::uint32_t>(ix.g1);
    key.coord[3].idx = static_cast<std::uint32_t>(ix.meta);
    key.valid = true;
    return bankView(ix).final_;
}

void
GSkew::updateKeyed(Addr pc, const HistoryRegister &hist, bool taken,
                   const PredictKey &key)
{
    if (!key.valid) {
        update(pc, hist, taken);
        return;
    }
    updateAt({key.coord[0].idx, key.coord[1].idx, key.coord[2].idx,
              key.coord[3].idx},
             taken);
}

void
GSkew::updateAt(const Indexes &ix, bool taken)
{
    const BankView v = bankView(ix);

    // META learns which side to trust whenever the two sides differ.
    if (v.bim != v.majority)
        meta[ix.meta].update(v.majority == taken);

    if (v.final_ == taken) {
        // Partial update: strengthen only the banks that took part in
        // the correct prediction and agreed with the outcome.
        if (v.useMajority) {
            if (v.bim == taken)
                bim[ix.bim].update(taken);
            if (v.g0 == taken)
                g0[ix.g0].update(taken);
            if (v.g1 == taken)
                g1[ix.g1].update(taken);
        } else {
            bim[ix.bim].update(taken);
        }
    } else {
        // Mispredict: re-educate all direction banks.
        bim[ix.bim].update(taken);
        g0[ix.g0].update(taken);
        g1[ix.g1].update(taken);
    }
}

void
GSkew::reset()
{
    for (auto *bank : {&bim, &g0, &g1})
        for (auto &c : *bank)
            c.set(1);
    for (auto &c : meta)
        c.set(2);
}

std::size_t
GSkew::sizeBits() const
{
    return (bim.size() + g0.size() + g1.size() + meta.size()) * 2;
}

std::string
GSkew::name() const
{
    return "2Bc-gskew-" + std::to_string(sizeBytes() / 1024) + "KB";
}

} // namespace pcbp
