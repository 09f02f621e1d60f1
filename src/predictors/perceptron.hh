/**
 * @file
 * Perceptron predictor (Jiménez & Lin). A pool of perceptrons is
 * selected by branch address; the chosen perceptron computes a dot
 * product between its signed weights and the (bipolar) history bits.
 * Its key property — and the reason the paper favors it as a critic
 * component — is that it scales to much longer histories than
 * counter-table schemes, so future bits can be added to its input
 * without sacrificing as much history.
 *
 * Storage is structure-of-arrays (DESIGN.md §12): the bias weights
 * live in their own array and each perceptron's history weights
 * occupy a row padded to a 64-byte multiple, so the SIMD dot-product
 * and train kernels (predictors/simd.hh) run full-width vector
 * operations with no tails — pad lanes hold weight 0 and contribute
 * nothing. The reported sizeBits() stays the logical cost
 * (perceptrons x (history + bias) x 8), not the padded footprint.
 */

#ifndef PCBP_PREDICTORS_PERCEPTRON_HH
#define PCBP_PREDICTORS_PERCEPTRON_HH

#include <cstdint>
#include <vector>

#include "predictors/predictor.hh"
#include "predictors/simd.hh"

namespace pcbp
{

class Perceptron final : public DirectionPredictor
{
  public:
    /**
     * @param num_perceptrons Pool size (any positive value; selection
     *        is modulo, as in the original paper).
     * @param history_bits Number of history bits (weights per
     *        perceptron is history_bits + 1 for the bias weight).
     */
    Perceptron(std::size_t num_perceptrons, unsigned history_bits);

    bool predict(Addr pc, const HistoryRegister &hist) override;
    void update(Addr pc, const HistoryRegister &hist, bool taken) override;
    bool predictKeyed(Addr pc, const HistoryRegister &hist,
                      PredictKey &key) override;
    void updateKeyed(Addr pc, const HistoryRegister &hist, bool taken,
                     const PredictKey &key) override;
    void reset() override;

    DirectionPredictorPtr clone() const override
    {
        return std::make_unique<Perceptron>(*this);
    }
    std::size_t sizeBits() const override;
    unsigned historyLength() const override { return histBits; }
    std::string name() const override;

    /**
     * Dot-product output for the branch; the prediction is
     * output >= 0. Exposed so tests and confidence-style clients can
     * inspect the margin.
     */
    int output(Addr pc, const HistoryRegister &hist) const;

    /** Training threshold theta = floor(1.93 * h + 14). */
    int threshold() const { return theta; }

  private:
    std::size_t select(Addr pc) const;
    int outputAt(std::size_t row, const HistoryRegister &hist) const;
    void updateAt(std::size_t row, const HistoryRegister &hist, bool taken);

    /**
     * History weights [w1 .. wh], one padded row per perceptron
     * (rowStride bytes; pad weights are always 0).
     */
    std::vector<std::int8_t> weights;
    /** Bias weights, one per perceptron (input fixed at +1). */
    std::vector<std::int8_t> biases;
    std::size_t numPerceptrons;
    unsigned histBits;
    std::size_t rowStride;
    int theta;
    /** Lemire fast-mod constant for select() (exact for 32-bit pc). */
    std::uint64_t modMul;
    /** SIMD kernels, resolved once at construction. */
    simd::DotFn dot;
    simd::TrainFn train;
};

} // namespace pcbp

#endif // PCBP_PREDICTORS_PERCEPTRON_HH
