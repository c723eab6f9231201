#include "runtime/hermes_host_engine.hh"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/threads.hh"
#include "gpu/kernels.hh"
#include "interconnect/pcie.hh"
#include "runtime/common_costs.hh"
#include "runtime/decode_pipeline.hh"
#include "sched/predictor.hh"
#include "sparsity/trace.hh"

namespace hermes::runtime {

HermesHostEngine::Tape
HermesHostEngine::record(const InferenceRequest &request) const
{
    // Profile a representative layer (the second; the only one of a
    // one-layer model) of a 4-layer trace to find how much activation
    // mass the hot budget covers.  Only the layers up to it are
    // built: the rest of the stream is skipped, not stepped.
    model::LlmConfig sim_llm = request.llm;
    sim_llm.layers = std::min<std::uint32_t>(request.llm.layers, 4);
    sparsity::SparsityConfig sparsity_config = config_.sparsity;
    sparsity_config.seed = request.seed;
    const std::uint32_t layer = sim_llm.layers > 1 ? 1 : 0;
    const std::uint32_t threads =
        effectiveThreads(recordThreads_, hardwareThreads());
    sparsity::ActivationTrace trace(sim_llm, sparsity_config,
                                    request.batch, threads, layer + 1);
    sched::ActivationProfile profile = sched::profileActivations(
        trace, request.profileTokens, layer + 1, threads);
    auto runs = [](std::vector<double> &freq) {
        std::sort(freq.begin(), freq.end(), std::greater<>());
        std::vector<FreqRun> coded;
        for (const double f : freq) {
            if (coded.empty() || coded.back().value != f)
                coded.push_back(FreqRun{f, 0});
            ++coded.back().count;
        }
        return coded;
    };
    Tape tape;
    tape.attnFreq = runs(profile.attn.at(layer));
    tape.mlpFreq = runs(profile.mlp.at(layer));
    return tape;
}

InferenceResult
HermesHostEngine::run(const InferenceRequest &request)
{
    InferenceResult result;
    result.engine = name();
    const Tape &tape =
        tapes_.get(request, [&] { return record(request); });

    const model::LlmConfig &llm = request.llm;
    const gpu::GpuModel gpu_model(config_.gpu);
    const interconnect::PcieBus pcie(config_.pcie);

    // Attention runs on the GPU (PowerInfer keeps the KV cache there).
    const Bytes kv_bytes =
        static_cast<Bytes>(request.batch) *
        (request.promptTokens + request.generateTokens) *
        llm.kvBytesPerToken();
    const GpuResidency residency =
        computeResidency(config_, llm, kv_bytes);

    // Hot set: most frequent neurons until the per-layer quota fills.
    auto split_mass = [&](const std::vector<FreqRun> &freq,
                          Bytes neuron_bytes, Bytes layer_budget,
                          double &hot, double &cold) {
        std::uint64_t neurons = 0;
        for (const FreqRun &run : freq)
            neurons += run.count;
        const std::uint64_t hot_count =
            std::min<std::uint64_t>(neurons, layer_budget / neuron_bytes);
        hot = 0.0;
        cold = 0.0;
        std::uint64_t rank = 0;
        for (const FreqRun &run : freq) {
            for (std::uint64_t k = 0; k < run.count; ++k, ++rank)
                (rank < hot_count ? hot : cold) += run.value;
        }
    };
    // The hot budget splits across layers and blocks pro rata.
    const Bytes per_layer_budget = residency.hotBudget / llm.layers;
    const Bytes attn_budget = static_cast<Bytes>(
        per_layer_budget *
        (static_cast<double>(llm.attnNeuronsPerLayer() *
                             llm.attnNeuronBytes()) /
         llm.sparseBytesPerLayer()));
    const Bytes mlp_budget = per_layer_budget - attn_budget;

    double attn_hot = 0.0, attn_cold = 0.0;
    double mlp_hot = 0.0, mlp_cold = 0.0;
    split_mass(tape.attnFreq, llm.attnNeuronBytes(), attn_budget,
               attn_hot, attn_cold);
    split_mass(tape.mlpFreq, llm.mlpNeuronBytes(), mlp_budget, mlp_hot,
               mlp_cold);

    // Prompting: as in Hermes, GPU + streamed weights.
    const Bytes resident =
        residency.denseBytes +
        std::min(residency.hotBudget,
                 static_cast<Bytes>(llm.layers) *
                     llm.sparseBytesPerLayer());
    const Bytes non_resident =
        llm.totalBytes() > resident ? llm.totalBytes() - resident : 0;
    result.prefillTime = streamingPrefill(config_, llm, request.batch,
                                          request.promptTokens,
                                          non_resident, true, true);
    result.breakdown.prefill = result.prefillTime;

    // Per token: GPU handles hot + dense parts, CPU streams the
    // activated cold rows from plain DIMMs; the two overlap, and each
    // layer syncs activations over PCIe.
    const Seconds sync = activationSyncTime(pcie, llm, request.batch);
    const std::uint64_t h = llm.hidden;
    const std::uint64_t attn_values = h + 2ULL * llm.kvDim();
    const std::uint64_t mlp_values =
        static_cast<std::uint64_t>(llm.mlpMatrices) * h;

    auto cpu_gemv = [&](double active_mass, std::uint64_t values) {
        const double bytes = active_mass * values * kFp16Bytes;
        const double flops =
            2.0 * active_mass * values * request.batch;
        return std::max(
            bytes / config_.host.effectiveGatherBandwidth(),
            flops / config_.host.compute);
    };

    // split_mass sums frequencies, i.e. the expected number of
    // activated neurons per token in each partition.
    const Seconds gpu_qkv = gpu_model.sparseGemv(
        static_cast<std::uint64_t>(attn_hot), attn_values,
        request.batch);
    const Seconds cpu_qkv = cpu_gemv(attn_cold, attn_values);
    const Seconds gpu_mlp = gpu_model.sparseGemv(
        static_cast<std::uint64_t>(mlp_hot), mlp_values,
        request.batch);
    const Seconds cpu_mlp = cpu_gemv(mlp_cold, mlp_values);
    const Seconds proj = gpu_model.gemm(request.batch, h, h);
    const Seconds layer_attn =
        gpu_model.attention(request.batch, llm.heads, llm.kvHeads,
                            llm.headDim(), request.promptTokens);
    const Seconds lm_head = lmHeadTime(gpu_model, llm, request.batch);
    const Seconds predictor_cost =
        static_cast<double>(llm.layers) *
        static_cast<double>(llm.attnNeuronsPerLayer() +
                            llm.mlpNeuronsPerLayer()) *
        config_.predictorPerNeuron;

    // Hot/cold split against the host CPU on the shared pipeline:
    // the GPU computes the hot share and returns its partials over
    // PCIe while the CPU streams the activated cold rows; each layer
    // additionally pays the activation round trip and the
    // PowerInfer-style executor synchronization.
    DecodePipeline pipeline(0);
    pipeline.beginToken();
    for (std::uint32_t l = 0; l < llm.layers; ++l) {
        pipeline.hostSplitStage(CostCategory::Fc, gpu_qkv, 0.0, sync,
                                cpu_qkv);
        pipeline.gpuStage(CostCategory::Attention, layer_attn);
        pipeline.gpuStage(CostCategory::Fc, proj);
        pipeline.hostSplitStage(CostCategory::Fc, gpu_mlp, 0.0, sync,
                                cpu_mlp);
        pipeline.pcieStage(2.0 * sync);
        pipeline.hostStage(CostCategory::Communication,
                           config_.host.layerSyncOverhead);
    }
    pipeline.gpuStage(CostCategory::Others, lm_head);
    pipeline.endToken(1.0, request.generateTokens);
    pipeline.addSerial(CostCategory::Predictor,
                       predictor_cost * request.generateTokens);

    result.generateTime = pipeline.totalTime();
    result.breakdown += pipeline.accumulated().toBreakdown();

    result.stats.counter("hot.mass.attn").set(attn_hot);
    result.stats.counter("hot.mass.mlp").set(mlp_hot);

    finalize(result, request);
    return result;
}

} // namespace hermes::runtime
