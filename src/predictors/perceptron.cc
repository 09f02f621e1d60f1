#include "predictors/perceptron.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"

namespace pcbp
{

namespace
{

/** Row stride in weights: history weights padded to a 64-byte
 *  multiple so the SIMD kernels never need a masked tail. */
std::size_t
strideFor(unsigned history_bits)
{
    return (static_cast<std::size_t>(history_bits) + 63) / 64 * 64;
}

} // namespace

Perceptron::Perceptron(std::size_t num_perceptrons, unsigned history_bits)
    : weights(num_perceptrons * strideFor(history_bits), 0),
      biases(num_perceptrons, 0),
      numPerceptrons(num_perceptrons),
      histBits(history_bits),
      rowStride(strideFor(history_bits)),
      theta(static_cast<int>(1.93 * history_bits + 14)),
      modMul(UINT64_MAX / num_perceptrons + 1),
      dot(simd::dotKernel()),
      train(simd::trainKernel())
{
    pcbp_assert(num_perceptrons > 0);
    pcbp_assert(history_bits >= 1 &&
                history_bits <= HistoryRegister::capacity);
}

std::size_t
Perceptron::select(Addr pc) const
{
    const std::uint64_t x = pc >> 2;
    // Lemire fast-mod is exact for 32-bit dividends; branch
    // predictors index with low PC bits so the fallback never fires
    // in practice, but keep the semantics identical regardless.
    if (x >> 32)
        return x % numPerceptrons;
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(modMul * x) * numPerceptrons) >>
        64);
}

int
Perceptron::outputAt(std::size_t row, const HistoryRegister &hist) const
{
    return biases[row] + dot(&weights[row * rowStride], histBits,
                             hist.word0(), hist.word1());
}

int
Perceptron::output(Addr pc, const HistoryRegister &hist) const
{
    return outputAt(select(pc), hist);
}

bool
Perceptron::predict(Addr pc, const HistoryRegister &hist)
{
    return output(pc, hist) >= 0;
}

void
Perceptron::update(Addr pc, const HistoryRegister &hist, bool taken)
{
    updateAt(select(pc), hist, taken);
}

bool
Perceptron::predictKeyed(Addr pc, const HistoryRegister &hist,
                         PredictKey &key)
{
    const std::size_t row = select(pc);
    key.coord[0].idx = static_cast<std::uint32_t>(row);
    key.valid = true;
    return outputAt(row, hist) >= 0;
}

void
Perceptron::updateKeyed(Addr pc, const HistoryRegister &hist, bool taken,
                        const PredictKey &key)
{
    updateAt(key.valid ? key.coord[0].idx : select(pc), hist, taken);
}

void
Perceptron::updateAt(std::size_t row, const HistoryRegister &hist,
                     bool taken)
{
    std::int8_t *w = &weights[row * rowStride];
    const int out =
        biases[row] + dot(w, histBits, hist.word0(), hist.word1());
    const bool pred = out >= 0;
    // Train on mispredict or low confidence (|out| <= theta).
    if (pred == taken && std::abs(out) > theta)
        return;

    std::int8_t &bias = biases[row];
    if (taken) {
        if (bias < 127)
            ++bias;
    } else {
        if (bias > -127)
            --bias;
    }
    train(w, histBits, hist.word0(), hist.word1(), taken);
}

void
Perceptron::reset()
{
    std::fill(weights.begin(), weights.end(), 0);
    std::fill(biases.begin(), biases.end(), 0);
}

std::size_t
Perceptron::sizeBits() const
{
    // Logical cost: (history + bias) int8 weights per perceptron.
    // The 64-byte row padding is an implementation artifact and is
    // not charged.
    return numPerceptrons * (histBits + 1) * 8;
}

std::string
Perceptron::name() const
{
    return "perceptron-" + std::to_string(numPerceptrons) + "x" +
           std::to_string(histBits);
}

} // namespace pcbp
