#include "core/filtered_perceptron.hh"

#include <algorithm>

namespace pcbp
{

FilteredPerceptron::FilteredPerceptron(std::size_t num_perceptrons,
                                       unsigned perceptron_bits,
                                       std::size_t filter_sets,
                                       unsigned filter_ways,
                                       unsigned tag_bits,
                                       unsigned filter_bor_bits)
    : perceptron(num_perceptrons, perceptron_bits),
      filter(filter_sets, filter_ways, tag_bits, filter_bor_bits)
{
}

CritiqueResult
FilteredPerceptron::critique(Addr pc, const HistoryRegister &bor)
{
    const FilterKey key = filter.keyOf(pc, bor);
    if (!filter.probe(key).hit)
        return {key.set, key.tag, false, false};
    return {key.set, key.tag, true, perceptron.predict(pc, bor)};
}

void
FilteredPerceptron::train(Addr pc, const HistoryRegister &bor, bool taken,
                          bool mispredicted)
{
    trainKeyed(pc, bor, taken, mispredicted, filter.keyOf(pc, bor));
}

void
FilteredPerceptron::trainKeyed(Addr pc, const HistoryRegister &bor,
                               bool taken, bool mispredicted,
                               const FilterKey &key)
{
    const auto r = filter.probe(key);
    if (r.hit) {
        perceptron.update(pc, bor, taken);
        filter.touch(r.entry);
    } else if (mispredicted) {
        filter.allocate(key);
        // Initialize the prediction structures toward the branch's
        // outcome (§4). The perceptron pool is shared, so
        // initialization is one training step.
        perceptron.update(pc, bor, taken);
    }
}

void
FilteredPerceptron::reset()
{
    perceptron.reset();
    filter.reset();
}

std::size_t
FilteredPerceptron::sizeBits() const
{
    return perceptron.sizeBits() + filter.sizeBits();
}

unsigned
FilteredPerceptron::borBits() const
{
    return std::max(perceptron.historyLength(), filter.borBits());
}

std::string
FilteredPerceptron::name() const
{
    return "f.perceptron-" + std::to_string(sizeBytes() / 1024) + "KB";
}

} // namespace pcbp
