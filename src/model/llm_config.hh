/**
 * @file
 * Architecture descriptions of the LLMs evaluated in the paper.
 *
 * The neuron abstraction follows Sec. II-B / Fig. 3:
 *  - an MLP neuron i bundles FC1 row i with FC2 column i (plus the
 *    gate row for gated LLaMA-style MLPs), so `ffnHidden` neurons per
 *    layer, each `mlpMatrices * hidden` FP16 values;
 *  - a self-attention neuron i bundles column i of the fused W_QKV
 *    (the input dimension that the pre-QKV ReLU can zero), so `hidden`
 *    neurons per layer, each `hidden + 2*kvDim` output values;
 *  - the attention output projection cannot exploit activation
 *    sparsity and always runs dense on the GPU (Sec. IV-A2).
 */

#ifndef HERMES_MODEL_LLM_CONFIG_HH
#define HERMES_MODEL_LLM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace hermes::model {

/** Activation function family, after the ReLU-fication of Sec. II-B. */
enum class Activation
{
    NativeRelu,   ///< OPT: ReLU out of the box.
    RelufiedSilu, ///< LLaMA-2: SiLU replaced by ReLU (SparseLLM).
    RelufiedGelu, ///< Falcon: GELU replaced by ReLU (SparseLLM).
};

/** Static architecture of one transformer LLM. */
struct LlmConfig
{
    std::string name;
    std::uint32_t layers = 0;
    std::uint32_t hidden = 0;     ///< Model dimension H.
    std::uint32_t ffnHidden = 0;  ///< MLP intermediate dimension F.
    std::uint32_t heads = 0;
    std::uint32_t kvHeads = 0;    ///< < heads means GQA.
    std::uint32_t vocab = 0;
    std::uint32_t mlpMatrices = 2; ///< 2: up+down; 3: gate+up+down.
    Activation activation = Activation::NativeRelu;

    bool operator==(const LlmConfig &) const = default;

    std::uint32_t headDim() const { return hidden / heads; }
    std::uint32_t kvDim() const { return kvHeads * headDim(); }

    /** Sparsity-eligible neurons in one layer's attention block. */
    std::uint64_t attnNeuronsPerLayer() const { return hidden; }

    /** Sparsity-eligible neurons in one layer's MLP block. */
    std::uint64_t mlpNeuronsPerLayer() const { return ffnHidden; }

    /** Weight bytes bundled into one attention neuron. */
    Bytes
    attnNeuronBytes() const
    {
        return static_cast<Bytes>(hidden + 2ULL * kvDim()) * kFp16Bytes;
    }

    /** Weight bytes bundled into one MLP neuron. */
    Bytes
    mlpNeuronBytes() const
    {
        return static_cast<Bytes>(mlpMatrices) * hidden * kFp16Bytes;
    }

    /** Dense (non-sparsifiable) projection bytes per layer. */
    Bytes
    projectionBytesPerLayer() const
    {
        return static_cast<Bytes>(hidden) * hidden * kFp16Bytes;
    }

    /** All sparsity-eligible weight bytes in one layer. */
    Bytes
    sparseBytesPerLayer() const
    {
        return attnNeuronsPerLayer() * attnNeuronBytes() +
               mlpNeuronsPerLayer() * mlpNeuronBytes();
    }

    /** Total weight bytes of one transformer layer. */
    Bytes
    layerBytes() const
    {
        return sparseBytesPerLayer() + projectionBytesPerLayer();
    }

    /** Embedding + LM-head bytes (untied). */
    Bytes
    embeddingBytes() const
    {
        return 2ULL * vocab * hidden * kFp16Bytes;
    }

    /** Total model weight bytes. */
    Bytes
    totalBytes() const
    {
        return static_cast<Bytes>(layers) * layerBytes() +
               embeddingBytes();
    }

    /** KV-cache bytes for one token across all layers. */
    Bytes
    kvBytesPerToken() const
    {
        return 2ULL * layers * kvDim() * kFp16Bytes;
    }

    /** FLOPs of one dense token-generation step (per token). */
    Flops denseFlopsPerToken(std::uint64_t seq_len) const;
};

/** The six models of Sec. V-A3 plus LLaMA-13B used by Fig. 4/13. */
LlmConfig opt13b();
LlmConfig opt30b();
LlmConfig opt66b();
LlmConfig llama2_13b();
LlmConfig llama2_70b();
LlmConfig falcon40b();

/** All models, for parameterized tests and benches. */
std::vector<LlmConfig> allModels();

/**
 * Look a model up by name; throws std::invalid_argument listing the
 * known models on an unknown name.
 */
LlmConfig modelByName(const std::string &name);

} // namespace hermes::model

#endif // HERMES_MODEL_LLM_CONFIG_HH
