/**
 * @file
 * Neuron placement state shared by the offline partitioner, the
 * online mapper and the window scheduler.
 *
 * Following Sec. IV-C2, *all* neurons are stored in the NDP-DIMMs
 * (their home DIMM); hot neurons are additionally replicated in GPU
 * memory.  Swapping a neuron out of the GPU therefore costs nothing
 * (overwrite), and promoting one costs a DIMM->GPU PCIe copy.
 */

#ifndef HERMES_SCHED_PLACEMENT_HH
#define HERMES_SCHED_PLACEMENT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"
#include "model/llm_config.hh"

namespace hermes::sched {

/** Which functional block of a layer a neuron belongs to. */
enum class BlockKind { Attention, Mlp };

/** Placement of every neuron of one block. */
class BlockPlacement
{
  public:
    BlockPlacement() = default;

    BlockPlacement(std::uint32_t neurons, std::uint32_t num_dimms)
        : onGpu_(neurons, 0), homeDimm_(neurons, 0), numDimms_(num_dimms)
    {
    }

    std::uint32_t
    neurons() const
    {
        return static_cast<std::uint32_t>(onGpu_.size());
    }
    std::uint32_t numDimms() const { return numDimms_; }

    bool onGpu(std::uint32_t i) const { return onGpu_[i] != 0; }
    std::uint16_t homeDimm(std::uint32_t i) const { return homeDimm_[i]; }

    /** Per-neuron GPU-residency flags (1 = resident), for bulk scans. */
    const std::vector<std::uint8_t> &gpuFlags() const { return onGpu_; }

    /** Per-neuron home DIMM, for bulk scans. */
    const std::vector<std::uint16_t> &homeDimms() const
    {
        return homeDimm_;
    }

    void
    setOnGpu(std::uint32_t i, bool value)
    {
        onGpu_[i] = value ? 1 : 0;
    }

    void
    setHomeDimm(std::uint32_t i, std::uint16_t dimm)
    {
        hermes_assert(dimm < numDimms_, "DIMM index out of range");
        homeDimm_[i] = dimm;
    }

    /** Number of neurons replicated on the GPU. */
    std::uint64_t
    gpuResidentCount() const
    {
        std::uint64_t count = 0;
        for (auto flag : onGpu_)
            count += flag;
        return count;
    }

    /** Number of neurons homed on each DIMM. */
    std::vector<std::uint64_t>
    dimmCounts() const
    {
        std::vector<std::uint64_t> counts(numDimms_, 0);
        for (auto dimm : homeDimm_)
            ++counts[dimm];
        return counts;
    }

  private:
    std::vector<std::uint8_t> onGpu_;
    std::vector<std::uint16_t> homeDimm_;
    std::uint32_t numDimms_ = 0;
};

/** Placement of every sparsity-eligible neuron in the model. */
struct ModelPlacement
{
    std::vector<BlockPlacement> attn; ///< One per layer.
    std::vector<BlockPlacement> mlp;  ///< One per layer.

    BlockPlacement &
    block(std::uint32_t layer, BlockKind kind)
    {
        return kind == BlockKind::Attention ? attn[layer] : mlp[layer];
    }
    const BlockPlacement &
    block(std::uint32_t layer, BlockKind kind) const
    {
        return kind == BlockKind::Attention ? attn[layer] : mlp[layer];
    }

    /** GPU bytes used by replicated hot neurons. */
    Bytes
    gpuBytesUsed(const model::LlmConfig &llm) const
    {
        Bytes bytes = 0;
        for (std::size_t l = 0; l < attn.size(); ++l) {
            bytes += attn[l].gpuResidentCount() * llm.attnNeuronBytes();
            bytes += mlp[l].gpuResidentCount() * llm.mlpNeuronBytes();
        }
        return bytes;
    }

    /** Bytes homed on each DIMM (weights only). */
    std::vector<Bytes>
    dimmBytesUsed(const model::LlmConfig &llm,
                  std::uint32_t num_dimms) const
    {
        std::vector<Bytes> bytes(num_dimms, 0);
        for (std::size_t l = 0; l < attn.size(); ++l) {
            const auto attn_counts = attn[l].dimmCounts();
            const auto mlp_counts = mlp[l].dimmCounts();
            for (std::uint32_t d = 0; d < num_dimms; ++d) {
                bytes[d] += attn_counts[d] * llm.attnNeuronBytes();
                bytes[d] += mlp_counts[d] * llm.mlpNeuronBytes();
            }
        }
        return bytes;
    }
};

/** Create an all-cold placement with round-robin DIMM homes. */
ModelPlacement makeRoundRobinPlacement(const model::LlmConfig &llm,
                                       std::uint32_t num_dimms);

} // namespace hermes::sched

#endif // HERMES_SCHED_PLACEMENT_HH
