#include "runtime/dejavu_engine.hh"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/threads.hh"
#include "gpu/kernels.hh"
#include "interconnect/pcie.hh"
#include "runtime/common_costs.hh"
#include "runtime/decode_pipeline.hh"
#include "sparsity/trace.hh"

namespace hermes::runtime {

DejaVuEngine::Tape
DejaVuEngine::record(const InferenceRequest &request) const
{
    model::LlmConfig sim_llm = request.llm;
    sim_llm.layers = std::min<std::uint32_t>(request.llm.layers, 4);
    sparsity::SparsityConfig sparsity_config = config_.sparsity;
    sparsity_config.seed = request.seed;
    const std::uint32_t threads =
        effectiveThreads(recordThreads_, hardwareThreads());
    sparsity::ActivationTrace trace(sim_llm, sparsity_config,
                                    request.batch, threads);
    // Each lane counts its own layers' activations per token; the
    // per-token fractions are summed in token order after the join,
    // as currentActiveFraction() after each nextToken() would give.
    const std::uint32_t probe_tokens = 16;
    const std::uint32_t layers = trace.layers();
    std::vector<std::uint64_t> active(
        static_cast<std::size_t>(probe_tokens) * layers);
    trace.stepTokens(probe_tokens, threads,
                     [&](std::uint32_t t, std::uint32_t l) {
                         active[static_cast<std::size_t>(t) * layers + l] =
                             trace.attn(l).activeCount() +
                             trace.mlp(l).activeCount();
                     });
    std::uint64_t neurons = 0;
    for (std::uint32_t l = 0; l < layers; ++l)
        neurons += trace.attn(l).neurons() + trace.mlp(l).neurons();
    Tape tape;
    for (std::uint32_t t = 0; t < probe_tokens; ++t) {
        std::uint64_t token_active = 0;
        for (std::uint32_t l = 0; l < layers; ++l)
            token_active +=
                active[static_cast<std::size_t>(t) * layers + l];
        tape.activeFraction +=
            neurons == 0 ? 0.0
                         : static_cast<double>(token_active) /
                               static_cast<double>(neurons);
    }
    tape.activeFraction /= probe_tokens;
    return tape;
}

bool
DejaVuEngine::supports(const InferenceRequest &request) const
{
    return request.llm.name.rfind("OPT", 0) == 0;
}

InferenceResult
DejaVuEngine::run(const InferenceRequest &request)
{
    InferenceResult result;
    result.engine = name();
    if (!supports(request)) {
        result.supported = false;
        result.unsupportedReason = "Deja Vu supports OPT models only";
        return result;
    }

    const model::LlmConfig &llm = request.llm;
    const gpu::GpuModel gpu_model(config_.gpu);
    // Per-neuron gathers issue one async copy each; the driver-side
    // submission cost dominates the paper's measured Deja Vu rates.
    interconnect::PcieConfig gather_config = config_.pcie;
    gather_config.perChunkOverhead = 5.0e-6;
    const interconnect::PcieBus pcie(gather_config);

    // Per-layer MLP predictors: two dense matrices per block pair.
    const Bytes predictor_bytes =
        static_cast<Bytes>(llm.layers) *
        (static_cast<Bytes>(llm.hidden) * kPredictorRank +
         static_cast<Bytes>(kPredictorRank) *
             (llm.hidden + llm.ffnHidden)) *
        kFp16Bytes;

    // "Since the activated neurons are dynamic and cannot be
    // pre-loaded into the limited consumer-grade GPU memory, data
    // still need to be loaded from host memory" (Sec. II-C): the
    // sparse weights live in host memory; the dense projections,
    // embeddings and the MLP predictors stay resident when they fit.
    const Bytes kv_bytes =
        static_cast<Bytes>(request.batch) *
        (request.promptTokens + request.generateTokens) *
        llm.kvBytesPerToken();
    const Bytes overhead = config_.gpuReservedBytes + kv_bytes +
                           llm.embeddingBytes() + predictor_bytes;
    const Bytes available = config_.gpu.memCapacity > overhead
                                ? config_.gpu.memCapacity - overhead
                                : 0;
    const Bytes dense_bytes = static_cast<Bytes>(llm.layers) *
                              llm.projectionBytesPerLayer();
    const bool dense_resident = dense_bytes <= available;
    const double resident_fraction = 0.0; // Sparse weights stream.

    result.prefillTime = streamingPrefill(
        config_, llm, request.batch, request.promptTokens,
        static_cast<Bytes>(llm.layers) * llm.sparseBytesPerLayer() +
            (dense_resident ? 0 : dense_bytes),
        /*pinned=*/true, /*overlap=*/true);
    result.breakdown.prefill = result.prefillTime;

    // A short trace determines how many neurons activate per token
    // (union over the batch), which is what must be gathered.
    const double active_fraction =
        tapes_.get(request, [&] { return record(request); })
            .activeFraction;

    // Per token: gather the activated neurons that are not resident,
    // in per-neuron chunks; the projection (dense) streams too.
    const Bytes active_sparse_bytes = static_cast<Bytes>(
        active_fraction *
        static_cast<double>(llm.layers * llm.sparseBytesPerLayer()));
    const Bytes nonresident_gather = static_cast<Bytes>(
        (1.0 - resident_fraction) *
        static_cast<double>(active_sparse_bytes));
    const Bytes nonresident_proj =
        dense_resident ? 0 : dense_bytes;
    const Bytes mean_neuron_bytes =
        (llm.attnNeuronBytes() + llm.mlpNeuronBytes()) / 2;
    const Seconds gather_time =
        pcie.chunkedTransferTime(nonresident_gather, mean_neuron_bytes,
                                 true) +
        pcie.transferTime(nonresident_proj, true);

    // GPU compute: sparse FC on activated neurons + dense projection
    // + attention + the MLP predictors themselves.
    const std::uint64_t h = llm.hidden;
    const auto active_attn = static_cast<std::uint64_t>(
        active_fraction * llm.attnNeuronsPerLayer());
    const auto active_mlp = static_cast<std::uint64_t>(
        active_fraction * llm.mlpNeuronsPerLayer());
    const Seconds layer_fc =
        gpu_model.sparseGemv(active_attn, h + 2ULL * llm.kvDim(),
                             request.batch) +
        gpu_model.gemm(request.batch, h, h) +
        gpu_model.sparseGemv(
            active_mlp,
            static_cast<std::uint64_t>(llm.mlpMatrices) * h,
            request.batch);
    const Seconds layer_attn =
        gpu_model.attention(request.batch, llm.heads, llm.kvHeads,
                            llm.headDim(), request.promptTokens);
    const Seconds layer_predictor =
        gpu_model.sparseGemv(kPredictorRank, h, request.batch) +
        gpu_model.sparseGemv(h + llm.ffnHidden, kPredictorRank,
                             request.batch);
    const Seconds lm_head = lmHeadTime(gpu_model, llm, request.batch);
    const Seconds layer_gather =
        llm.layers > 0 ? gather_time / llm.layers : 0.0;

    // Gathers cannot overlap compute: the predictor must run first,
    // then the gather, then the sparse kernels (data dependence) —
    // a strictly serial chain on the shared pipeline.
    DecodePipeline pipeline(0);
    pipeline.beginToken();
    for (std::uint32_t l = 0; l < llm.layers; ++l) {
        pipeline.predictorStage(layer_predictor, /*on_gpu=*/true);
        pipeline.pcieStage(layer_gather);
        pipeline.gpuStage(CostCategory::Fc, layer_fc);
        pipeline.gpuStage(CostCategory::Attention, layer_attn);
    }
    pipeline.gpuStage(CostCategory::Others, lm_head);
    pipeline.endToken(1.0, request.generateTokens);

    result.generateTime = pipeline.totalTime();
    result.breakdown += pipeline.accumulated().toBreakdown();

    result.stats.counter("active.fraction").set(active_fraction);
    result.stats.counter("predictor.bytes").set(
        static_cast<double>(predictor_bytes));

    finalize(result, request);
    return result;
}

} // namespace hermes::runtime
