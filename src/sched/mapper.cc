#include "sched/mapper.hh"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/prefix_sort.hh"

namespace hermes::sched {

void
NeuronMapper::applyPartition(ModelPlacement &placement,
                             const PartitionAssignment &assignment)
{
    const std::size_t layers = placement.attn.size();
    hermes_assert(assignment.location.size() == 2 * layers,
                  "partition must cover attn+mlp of every layer");
    for (std::size_t l = 0; l < layers; ++l) {
        const auto &attn_loc = assignment.location[2 * l];
        const auto &mlp_loc = assignment.location[2 * l + 1];
        BlockPlacement &attn = placement.attn[l];
        BlockPlacement &mlp = placement.mlp[l];
        hermes_assert(attn_loc.size() == attn.neurons() &&
                      mlp_loc.size() == mlp.neurons(),
                      "partition block size mismatch");
        for (std::uint32_t i = 0; i < attn.neurons(); ++i) {
            if (attn_loc[i] < 0) {
                attn.setOnGpu(i, true);
                // Hot neurons still need a DIMM home (IV-C2); spread
                // them like the cold ones.
                attn.setHomeDimm(i, static_cast<std::uint16_t>(
                                        i % attn.numDimms()));
            } else {
                attn.setOnGpu(i, false);
                attn.setHomeDimm(
                    i, static_cast<std::uint16_t>(attn_loc[i]));
            }
        }
        for (std::uint32_t i = 0; i < mlp.neurons(); ++i) {
            if (mlp_loc[i] < 0) {
                mlp.setOnGpu(i, true);
                mlp.setHomeDimm(i, static_cast<std::uint16_t>(
                                       i % mlp.numDimms()));
            } else {
                mlp.setOnGpu(i, false);
                mlp.setHomeDimm(
                    i, static_cast<std::uint16_t>(mlp_loc[i]));
            }
        }
    }
}

AdjustmentResult
NeuronMapper::adjustBlock(BlockPlacement &placement,
                          const std::vector<std::uint32_t> &scores,
                          Bytes neuron_bytes, AdjustmentPolicy policy)
{
    hermes_assert(scores.size() == placement.neurons(),
                  "score/placement size mismatch");

    // Hot non-residents, hottest first; residents, coldest first.
    // Keys pack (score << 32 | id) and the comparators read only the
    // score, so ties land where an index std::sort keyed on
    // scores[id] puts them; prefixSort keeps that order in the prefix
    // it sorts.
    const std::size_t n = scores.size();
    const std::uint32_t *const score = scores.data();
    const std::uint8_t *const on_gpu = placement.gpuFlags().data();
    const std::uint32_t hot = policy.hotThreshold;
    const auto keys = std::make_unique_for_overwrite<std::uint64_t[]>(2 * n);
    std::uint64_t *const promote = keys.get();
    std::uint64_t *const residents = promote + n;
    std::size_t promote_count = 0;
    std::size_t resident_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key =
            static_cast<std::uint64_t>(score[i]) << 32 | i;
        const bool resident = on_gpu[i] != 0;
        promote[promote_count] = key;
        residents[resident_count] = key;
        promote_count += !resident & (score[i] >= hot);
        resident_count += resident;
    }
    AdjustmentResult result;
    const std::size_t max_swaps = std::min<std::size_t>(
        {promote_count, resident_count, policy.maxSwaps});
    if (max_swaps == 0)
        return result; // No swap can happen; the order is never read.

    auto score_of = [](std::uint64_t key) {
        return static_cast<std::uint32_t>(key >> 32);
    };
    auto id_of = [](std::uint64_t key) {
        return static_cast<std::uint32_t>(key);
    };
    // Only the first max_swaps entries of each list are read.
    prefixSort(promote, promote + promote_count, max_swaps,
               [&](std::uint64_t a, std::uint64_t b) {
                   return score_of(a) > score_of(b);
               });
    prefixSort(residents, residents + resident_count, max_swaps,
               [&](std::uint64_t a, std::uint64_t b) {
                   return score_of(a) < score_of(b);
               });

    for (std::size_t k = 0; k < max_swaps; ++k) {
        const std::uint64_t in = promote[k];
        const std::uint64_t victim = residents[k];
        // Only swap when the incoming neuron beats the coldest
        // resident by the hysteresis margin; otherwise churn buys
        // nothing and costs PCIe bandwidth.
        if (score_of(in) < score_of(victim) + policy.hysteresis)
            break;
        placement.setOnGpu(id_of(victim), false);
        placement.setOnGpu(id_of(in), true);
        ++result.promotions;
        ++result.evictions;
        result.pcieBytes += neuron_bytes;
    }
    return result;
}

} // namespace hermes::sched
