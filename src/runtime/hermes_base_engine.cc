#include "runtime/hermes_base_engine.hh"

#include <algorithm>
#include <cstdint>

#include "gpu/kernels.hh"
#include "interconnect/pcie.hh"
#include "ndp/ndp_dimm.hh"
#include "runtime/common_costs.hh"
#include "runtime/decode_pipeline.hh"

namespace hermes::runtime {

bool
HermesBaseEngine::supports(const InferenceRequest &request) const
{
    if (config_.numDimms == 0)
        return false;
    const Bytes kv = static_cast<Bytes>(request.batch) *
                     (request.promptTokens + request.generateTokens) *
                     request.llm.kvBytesPerToken();
    return request.llm.totalBytes() + kv <= config_.totalDimmCapacity();
}

InferenceResult
HermesBaseEngine::run(const InferenceRequest &request)
{
    InferenceResult result;
    result.engine = name();
    if (!supports(request)) {
        result.supported = false;
        result.unsupportedReason = "model exceeds NDP-DIMM capacity";
        return result;
    }

    const model::LlmConfig &llm = request.llm;
    const gpu::GpuModel gpu_model(config_.gpu);
    const interconnect::PcieBus pcie(config_.pcie);

    // Whole FC blocks are resident until GPU memory runs out (the KV
    // cache lives on the DIMMs, as in Hermes).
    const GpuResidency residency = computeResidency(config_, llm, 0);
    const Bytes sparse_per_layer = llm.sparseBytesPerLayer();
    const std::uint32_t resident_layers = std::min<std::uint64_t>(
        llm.layers, residency.hotBudget / sparse_per_layer);

    const Bytes resident =
        residency.denseBytes +
        static_cast<Bytes>(resident_layers) * sparse_per_layer;
    const Bytes non_resident =
        llm.totalBytes() > resident ? llm.totalBytes() - resident : 0;
    result.prefillTime = streamingPrefill(config_, llm, request.batch,
                                          request.promptTokens,
                                          non_resident, true, true);
    result.breakdown.prefill = result.prefillTime;

    const Seconds sync = activationSyncTime(pcie, llm, request.batch);
    const std::uint64_t h = llm.hidden;
    const std::uint64_t attn_neurons = llm.attnNeuronsPerLayer();
    const std::uint64_t mlp_neurons = llm.mlpNeuronsPerLayer();
    const std::uint64_t attn_values = h + 2ULL * llm.kvDim();
    const std::uint64_t mlp_values =
        static_cast<std::uint64_t>(llm.mlpMatrices) * h;
    const std::uint32_t kv_heads_per_dimm =
        (llm.kvHeads + config_.numDimms - 1) / config_.numDimms;
    const std::uint32_t gqa_group =
        llm.kvHeads > 0 ? llm.heads / llm.kvHeads : 1;

    // Dense per-layer costs on each side (no predictor: every neuron
    // computes, so offloaded layers run whole blocks on the NDP).
    const Seconds gpu_attn_fc =
        gpu_model.sparseGemv(attn_neurons, attn_values, request.batch);
    const Seconds gpu_mlp_fc =
        gpu_model.sparseGemv(mlp_neurons, mlp_values, request.batch);
    const Seconds dimm_attn_fc =
        ndp_.sparseGemv(attn_neurons / config_.numDimms, attn_values,
                       request.batch)
            .total;
    const Seconds dimm_mlp_fc =
        ndp_.sparseGemv(mlp_neurons / config_.numDimms, mlp_values,
                       request.batch)
            .total;
    const Seconds proj = gpu_model.gemm(request.batch, h, h);
    const Seconds seq_attn =
        ndp_.attention(request.batch, kv_heads_per_dimm, llm.headDim(),
                      request.promptTokens, gqa_group)
            .total;
    const Seconds lm_head = lmHeadTime(gpu_model, llm, request.batch);
    const Seconds merge =
        ndp_.merge(static_cast<Bytes>(request.batch) * h * kFp16Bytes)
            .total;

    // Every token is identical: build one token step on the shared
    // pipeline and extrapolate.  Without sparsity there is no hot/cold
    // overlap to exploit, so the chain is serial; the layer's FC runs
    // dense on the GPU while layers fit and whole-block on the NDP
    // lanes beyond that.
    DecodePipeline pipeline(config_.numDimms);
    pipeline.beginToken();
    for (std::uint32_t l = 0; l < llm.layers; ++l) {
        if (l < resident_layers) {
            pipeline.gpuStage(CostCategory::Fc, gpu_attn_fc);
        } else {
            pipeline.pcieStage(sync); // Activations to the DIMMs.
            pipeline.ndpStage(CostCategory::Fc, dimm_attn_fc);
        }
        pipeline.ndpStage(CostCategory::Attention, seq_attn);
        pipeline.pcieStage(sync); // Attention out.
        pipeline.gpuStage(CostCategory::Fc, proj);
        if (l < resident_layers) {
            pipeline.gpuStage(CostCategory::Fc, gpu_mlp_fc);
            pipeline.pcieStage(sync); // Partials to the merge.
        } else {
            pipeline.pcieStage(sync);
            pipeline.ndpStage(CostCategory::Fc, dimm_mlp_fc);
        }
        pipeline.ndpStage(CostCategory::Others, merge);
    }
    pipeline.gpuStage(CostCategory::Others, lm_head);
    pipeline.endToken(1.0, request.generateTokens);

    result.generateTime = pipeline.totalTime();
    result.breakdown += pipeline.accumulated().toBreakdown();

    result.stats.counter("resident.layers").set(resident_layers);

    finalize(result, request);
    return result;
}

} // namespace hermes::runtime
