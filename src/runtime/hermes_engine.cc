#include "runtime/hermes_engine.hh"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/threads.hh"
#include "gpu/kernels.hh"
#include "interconnect/dimm_link.hh"
#include "interconnect/pcie.hh"
#include "ndp/ndp_dimm.hh"
#include "runtime/common_costs.hh"
#include "runtime/decode_pipeline.hh"
#include "sched/ilp_partition.hh"
#include "sched/mapper.hh"
#include "sched/predictor.hh"
#include "sched/window_scheduler.hh"
#include "sparsity/trace.hh"

namespace hermes::runtime {

namespace {

/** Predicted-active neuron counts per compute location. */
struct LocationCounts
{
    std::uint64_t gpu = 0;
    std::vector<std::uint64_t> dimm;
};

LocationCounts
countLocations(const std::vector<std::uint8_t> &mask,
               const sched::BlockPlacement &placement)
{
    LocationCounts counts;
    counts.dimm.assign(placement.numDimms(), 0);
    const std::uint32_t n = placement.neurons();
    const std::uint8_t *const active = mask.data();
    const std::uint8_t *const on_gpu = placement.gpuFlags().data();
    const std::uint16_t *const home = placement.homeDimms().data();
    std::uint64_t *const dimm = counts.dimm.data();
    std::uint64_t gpu = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t is_active = active[i] != 0;
        const std::uint64_t resident = on_gpu[i] != 0;
        gpu += is_active & resident;
        dimm[home[i]] += is_active & !resident;
    }
    counts.gpu = gpu;
    return counts;
}

/**
 * Token slots between the trace and the layer lanes of a record: the
 * producer runs up to this many tokens ahead, which absorbs the
 * jitter of lanes whose layers cost more on some tokens (window
 * boundaries) than on others.
 */
constexpr std::size_t kRingDepth = 4;

/** What a layer step adds to the record's counters besides its times. */
struct LayerTally
{
    std::uint64_t transfers = 0;      ///< Window-rebalance migrations.
    std::uint64_t mlpGpuRows = 0;     ///< Predicted-active MLP rows on GPU.
    std::uint64_t mlpDimmRowsMax = 0; ///< Busiest DIMM's MLP rows.
};

/**
 * One record lane's scratch and integer totals, a cache line apart
 * from the next lane's: each lane updates its totals every step.
 */
struct alignas(64) LaneState
{
    std::vector<std::uint8_t> attnPred;
    std::vector<std::uint8_t> mlpPred;
    std::vector<std::uint32_t> hotScores;
    sched::PredictionMetrics metrics;
    std::uint64_t promotions = 0;
    Bytes promotionBytes = 0;
    Bytes migrationBytes = 0;
};

/** Layers a run simulates; costs extrapolate to the full depth. */
std::uint32_t
simulatedLayers(const SystemConfig &config, const model::LlmConfig &llm)
{
    return config.simulatedLayers == 0
               ? llm.layers
               : std::min(llm.layers, config.simulatedLayers);
}

/** Per-DIMM sparse-GEMV lane times for a split stage. */
std::vector<Seconds>
dimmLaneTimes(ndp::NdpDimm &ndp, const std::vector<std::uint64_t> &rows,
              std::uint64_t row_values, std::uint32_t batch,
              double compute_scale)
{
    std::vector<Seconds> lanes;
    lanes.reserve(rows.size());
    for (const auto count : rows)
        lanes.push_back(
            ndp.sparseGemv(count, row_values, batch, compute_scale)
                .total);
    return lanes;
}

} // namespace

bool
HermesEngine::supports(const InferenceRequest &request) const
{
    if (config_.numDimms == 0)
        return false; // Hermes is defined by its NDP-DIMM pool.
    // All weights (plus the KV cache) must fit in the NDP-DIMM pool.
    const Bytes kv = static_cast<Bytes>(request.batch) *
                     (request.promptTokens + request.generateTokens) *
                     request.llm.kvBytesPerToken();
    return request.llm.totalBytes() + kv <= config_.totalDimmCapacity();
}

HermesEngine::Tape
HermesEngine::record(const InferenceRequest &request)
{
    const model::LlmConfig &llm = request.llm;
    const std::uint32_t sim_layers = simulatedLayers(config_, llm);
    const double layer_scale =
        static_cast<double>(llm.layers) / sim_layers;

    model::LlmConfig sim_llm = llm;
    sim_llm.layers = sim_layers;

    sparsity::SparsityConfig sparsity_config = config_.sparsity;
    sparsity_config.seed = request.seed;
    const std::uint32_t threads =
        effectiveThreads(recordThreads_, hardwareThreads());
    sparsity::ActivationTrace trace(sim_llm, sparsity_config,
                                    request.batch, threads);

    const gpu::GpuModel gpu_model(config_.gpu);
    const interconnect::PcieBus pcie(config_.pcie);
    const interconnect::DimmLinkNetwork link_net(config_.numDimms,
                                                 config_.link);

    // ---- Offline profiling and predictor setup. ----
    // Per-block activation frequencies seed the predictor and feed
    // the partition below.  The compute-set predictor always
    // combines token- and layer-wise signals; the Fig. 13 ablation
    // flags select which signals feed the *adjustment* scores
    // (Sec. V-C evaluates prediction variants as guides for online
    // adjustment).
    sched::ModelPredictor predictor(sim_llm, sched::PredictorConfig{});
    const sched::ActivationProfile profile =
        predictor.calibrate(trace, request.profileTokens, threads);

    // ---- Offline partition (Sec. IV-B). ----
    const GpuResidency residency = computeResidency(config_, llm, 0);
    const Bytes sim_gpu_budget = static_cast<Bytes>(
        static_cast<double>(residency.hotBudget) / layer_scale);

    sched::ModelPlacement placement =
        sched::makeRoundRobinPlacement(sim_llm, config_.numDimms);

    const std::uint64_t attn_values = llm.hidden + 2ULL * llm.kvDim();
    const std::uint64_t mlp_values =
        static_cast<std::uint64_t>(llm.mlpMatrices) * llm.hidden;

    if (config_.sched.offlinePartition) {
        sched::PartitionProblem problem;
        problem.syncTime = activationSyncTime(pcie, llm, request.batch);
        problem.gpuBudget = sim_gpu_budget;
        problem.dimmBudgets.assign(
            config_.numDimms,
            static_cast<Bytes>(0.95 *
                               static_cast<double>(
                                   config_.dimm.dimm.capacity) /
                               layer_scale));
        // Per-neuron marginal costs via finite differences, so the
        // fixed per-kernel terms (launch, activation I/O, command
        // dispatch) cancel and only the per-row weight traffic and
        // compute remain.
        auto gpu_marginal = [&](std::uint64_t values) {
            return gpu_model.sparseGemv(1025, values, request.batch) -
                   gpu_model.sparseGemv(1024, values, request.batch);
        };
        auto dimm_marginal = [&](std::uint64_t values, double scale) {
            return ndp_.sparseGemv(1025, values, request.batch, scale)
                       .total -
                   ndp_.sparseGemv(1024, values, request.batch, scale)
                       .total;
        };
        const Seconds gpu_per_attn = gpu_marginal(attn_values);
        const Seconds gpu_per_mlp = gpu_marginal(mlp_values);
        const Seconds dimm_per_attn =
            dimm_marginal(attn_values, trace.attn(0).computeScale);
        const Seconds dimm_per_mlp =
            dimm_marginal(mlp_values, trace.mlp(0).computeScale);
        for (std::uint32_t l = 0; l < sim_layers; ++l) {
            sched::BlockProblem attn_block;
            attn_block.frequency = profile.attn[l];
            attn_block.neuronBytes = llm.attnNeuronBytes();
            attn_block.gpuTimePerNeuron = gpu_per_attn;
            attn_block.dimmTimePerNeuron = dimm_per_attn;
            problem.blocks.push_back(std::move(attn_block));

            sched::BlockProblem mlp_block;
            mlp_block.frequency = profile.mlp[l];
            mlp_block.neuronBytes = llm.mlpNeuronBytes();
            mlp_block.gpuTimePerNeuron = gpu_per_mlp;
            mlp_block.dimmTimePerNeuron = dimm_per_mlp;
            problem.blocks.push_back(std::move(mlp_block));
        }
        const sched::PartitionResult partition =
            sched::IlpPartitioner().solve(problem, threads);
        sched::NeuronMapper::applyPartition(placement,
                                            partition.assignment);
    } else {
        // Hermes-random: fill the same GPU budget with a uniformly
        // random hot set (Fig. 13 baseline).  Each block receives a
        // budget share proportional to its weight volume; a random
        // permutation prefix fills it.
        Rng rng(request.seed ^ 0xfeedface);
        const double share = std::min(
            1.0, static_cast<double>(sim_gpu_budget) /
                     static_cast<double>(
                         static_cast<Bytes>(sim_layers) *
                         llm.sparseBytesPerLayer()));
        auto fill_random = [&](sched::BlockPlacement &block) {
            const auto target = static_cast<std::uint32_t>(
                share * block.neurons());
            std::vector<std::uint32_t> order(block.neurons());
            std::iota(order.begin(), order.end(), 0);
            for (std::uint32_t i = block.neurons(); i > 1; --i)
                std::swap(order[i - 1], order[rng.below(i)]);
            for (std::uint32_t k = 0; k < target; ++k)
                block.setOnGpu(order[k], true);
        };
        for (std::uint32_t l = 0; l < sim_layers; ++l) {
            fill_random(placement.attn[l]);
            fill_random(placement.mlp[l]);
        }
    }
    const Bytes hot_bytes = static_cast<Bytes>(
        static_cast<double>(placement.gpuBytesUsed(llm)) * layer_scale);

    // ---- Token generation: the context-free stages of each layer. ----
    sched::WindowSet windows(
        sim_layers, trace.attn(0).neurons(), trace.mlp(0).neurons(),
        config_.numDimms, config_.sched.windowSize,
        sched::WindowSet::Policy{config_.sched.windowRebalance,
                                 config_.sched.oracleRebalance});

    // The trace is one serial RNG stream and stays on this thread;
    // everything a layer's stages touch (its predictor FSMs,
    // placement blocks and windows) belongs to one lane, which takes
    // the layer's tokens in order.  So each layer sees exactly the
    // serial sequence of operations, whatever the thread count; the
    // `double` counters, whose sums depend on order, are added after
    // the join in (token, layer) order.
    const std::uint32_t lanes =
        std::max<std::uint32_t>(std::min(threads - 1, sim_layers), 1);
    const std::size_t step_count =
        static_cast<std::size_t>(request.generateTokens) * sim_layers;
    Tape tape;
    tape.steps.resize(step_count);
    std::vector<LayerTally> tallies(step_count);
    std::vector<LaneState> lane_states(lanes);
    std::vector<double> attn_scale(sim_layers);
    std::vector<double> mlp_scale(sim_layers);
    for (std::uint32_t l = 0; l < sim_layers; ++l) {
        attn_scale[l] = trace.attn(l).computeScale;
        mlp_scale[l] = trace.mlp(l).computeScale;
    }
    // Slot s holds one token's activations of every layer; a slot
    // stays empty until its first use.
    std::vector<std::vector<sparsity::LayerActivations>> ring(
        kRingDepth, std::vector<sparsity::LayerActivations>(sim_layers));
    // The lanes share the bandwidth probe; miss it here, not under
    // its lock while the other lanes wait.
    if (request.generateTokens > 0)
        ndp_.internalBandwidth();

    const auto produce = [&](std::size_t, std::size_t slot) {
        trace.nextToken();
        for (std::uint32_t l = 0; l < sim_layers; ++l)
            trace.swapActivations(l, ring[slot][l]);
    };
    const auto consume = [&](std::size_t lane, std::size_t t,
                             std::size_t slot) {
        const std::vector<sparsity::LayerActivations> &token =
            ring[slot];
        LaneState &own = lane_states[lane];
        for (auto l = static_cast<std::uint32_t>(lane); l < sim_layers;
             l += lanes) {
            const sparsity::LayerActivations &actual = token[l];
            const std::size_t index = t * sim_layers + l;
            LayerStep &step = tape.steps[index];
            LayerTally &tally = tallies[index];

            // 1. Prediction (parents' actuals are available in
            // execution order).
            const std::vector<std::uint8_t> *attn_parent =
                l == 0 ? nullptr : &token[l - 1].mlpMask;
            predictor.attn(l).predict(attn_parent, own.attnPred);
            predictor.mlp(l).predict(&actual.attnMask, own.mlpPred);

            // 2. QKV generation split (Fig. 6b).
            const LocationCounts qkv_counts =
                countLocations(own.attnPred, placement.attn[l]);
            step.qkvGpu = gpu_model.sparseGemv(
                qkv_counts.gpu, attn_values, request.batch);
            step.qkvLanes =
                dimmLaneTimes(ndp_, qkv_counts.dimm, attn_values,
                              request.batch, attn_scale[l]);

            // 4. Hot/cold swaps and rebalancing, shadowed by the
            // projection at replay.
            if (config_.sched.onlineAdjustment) {
                const bool token_wise = config_.sched.tokenWisePrediction;
                const bool layer_wise = config_.sched.layerWisePrediction;
                predictor.attn(l).hotScores(attn_parent, token_wise,
                                            layer_wise, own.hotScores);
                const sched::AdjustmentResult adj_attn =
                    sched::NeuronMapper::adjustBlock(
                        placement.attn[l], own.hotScores,
                        llm.attnNeuronBytes());
                predictor.mlp(l).hotScores(&actual.attnMask, token_wise,
                                           layer_wise, own.hotScores);
                const sched::AdjustmentResult adj_mlp =
                    sched::NeuronMapper::adjustBlock(
                        placement.mlp[l], own.hotScores,
                        llm.mlpNeuronBytes());
                const Bytes upload =
                    adj_attn.pcieBytes + adj_mlp.pcieBytes;
                own.promotions +=
                    adj_attn.promotions + adj_mlp.promotions;
                own.promotionBytes += upload;
                if (upload > 0)
                    step.upload = pcie.transferTime(upload);
            }

            windows.observe(l, actual.attnActive, actual.mlpActive);
            const sched::WindowSet::RebalanceOutcome rebalance =
                windows.maybeRebalance(
                    l, placement.attn[l], placement.mlp[l],
                    llm.attnNeuronBytes(), llm.mlpNeuronBytes(),
                    link_net);
            own.migrationBytes += rebalance.migrationBytes;
            tally.transfers = rebalance.transfers;
            step.migration = rebalance.migrationTime;

            // 5. MLP split.
            const LocationCounts mlp_counts =
                countLocations(own.mlpPred, placement.mlp[l]);
            step.mlpGpu = gpu_model.sparseGemv(
                mlp_counts.gpu, mlp_values, request.batch);
            step.mlpLanes =
                dimmLaneTimes(ndp_, mlp_counts.dimm, mlp_values,
                              request.batch, mlp_scale[l]);
            tally.mlpGpuRows = mlp_counts.gpu;
            tally.mlpDimmRowsMax = *std::max_element(
                mlp_counts.dimm.begin(), mlp_counts.dimm.end());

            // Predictor bookkeeping (metrics + FSM update).
            own.metrics.tallyMasks(own.attnPred, actual.attnMask);
            own.metrics.tallyMasks(own.mlpPred, actual.mlpMask);
            predictor.attn(l).update(actual.attnMask);
            predictor.mlp(l).update(actual.mlpMask);
        }
    };
    pipelineFor(lanes, kRingDepth, request.generateTokens, produce,
                consume);

    StatSet &stats = tape.stats;
    if (step_count > 0) {
        Counter &qkv_gpu_time = stats.counter("time.qkv.gpu");
        Counter &qkv_dimm_time = stats.counter("time.qkv.dimm");
        Counter &transfers = stats.counter("migration.transfers");
        Counter &mlp_gpu_time = stats.counter("time.mlp.gpu");
        Counter &mlp_dimm_time = stats.counter("time.mlp.dimm");
        Counter &mlp_gpu_count = stats.counter("count.mlp.gpu");
        Counter &mlp_dimm_max = stats.counter("count.mlp.dimm.max");
        for (std::size_t i = 0; i < step_count; ++i) {
            const LayerStep &step = tape.steps[i];
            const LayerTally &tally = tallies[i];
            qkv_gpu_time.add(step.qkvGpu);
            qkv_dimm_time.add(*std::max_element(step.qkvLanes.begin(),
                                                step.qkvLanes.end()));
            transfers.add(static_cast<double>(tally.transfers));
            mlp_gpu_time.add(step.mlpGpu);
            mlp_dimm_time.add(*std::max_element(step.mlpLanes.begin(),
                                                step.mlpLanes.end()));
            mlp_gpu_count.add(static_cast<double>(tally.mlpGpuRows));
            mlp_dimm_max.add(static_cast<double>(tally.mlpDimmRowsMax));
        }
    }
    sched::PredictionMetrics metrics;
    std::uint64_t promotions = 0;
    Bytes promotion_bytes = 0;
    Bytes migration_bytes = 0;
    for (const LaneState &own : lane_states) {
        metrics += own.metrics;
        promotions += own.promotions;
        promotion_bytes += own.promotionBytes;
        migration_bytes += own.migrationBytes;
    }

    stats.counter("predictor.accuracy").set(metrics.accuracy());
    stats.counter("predictor.recall").set(metrics.recall());
    stats.counter("predictor.precision").set(metrics.precision());
    stats.counter("hot.bytes").set(static_cast<double>(hot_bytes));
    stats.counter("promotions").set(static_cast<double>(promotions));
    stats.counter("promotion.bytes").set(
        static_cast<double>(promotion_bytes));
    stats.counter("migration.bytes").set(
        static_cast<double>(migration_bytes));
    return tape;
}

InferenceResult
HermesEngine::run(const InferenceRequest &request)
{
    InferenceResult result;
    result.engine = name_;
    if (!supports(request)) {
        result.supported = false;
        result.unsupportedReason =
            config_.numDimms == 0
                ? "platform has no NDP-DIMMs"
                : "model exceeds NDP-DIMM capacity";
        return result;
    }
    const Tape &tape = this->tape(request);

    const model::LlmConfig &llm = request.llm;
    const std::uint32_t sim_layers = simulatedLayers(config_, llm);
    const double layer_scale =
        static_cast<double>(llm.layers) / sim_layers;
    const gpu::GpuModel gpu_model(config_.gpu);
    const interconnect::PcieBus pcie(config_.pcie);

    // ---- Prompting stage (Fig. 6a): GPU + streamed weights. ----
    // Every sparse weight crosses PCIe once during prompting (hot
    // neurons are only "loaded back into GPU memory" afterwards,
    // Sec. IV-A2), so the prompting cost is independent of the
    // partition; only the startup-resident dense components skip the
    // stream.
    const GpuResidency residency = computeResidency(config_, llm, 0);
    const Bytes non_resident =
        llm.totalBytes() > residency.denseBytes
            ? llm.totalBytes() - residency.denseBytes
            : 0;
    Seconds prefill = streamingPrefill(config_, llm, request.batch,
                                       request.promptTokens,
                                       non_resident, true, true);
    // KV cache produced by prompting lands in the DIMMs over PCIe.
    prefill += pcie.transferTime(static_cast<Bytes>(request.batch) *
                                 request.promptTokens *
                                 llm.kvBytesPerToken());
    result.prefillTime = prefill;
    result.breakdown.prefill = prefill;

    // ---- Token generation: the tape replayed on the shared decode
    // pipeline, with attention over each token's context. ----
    const std::uint32_t kv_heads_per_dimm =
        (llm.kvHeads + config_.numDimms - 1) / config_.numDimms;
    const std::uint32_t gqa_group =
        llm.kvHeads > 0 ? llm.heads / llm.kvHeads : 1;
    const Seconds sync = activationSyncTime(pcie, llm, request.batch);
    const Seconds projection =
        gpu_model.gemm(request.batch, llm.hidden, llm.hidden);
    const Seconds merge =
        ndp_.merge(static_cast<Bytes>(request.batch) * llm.hidden *
                   kFp16Bytes)
            .total;
    const Seconds predictor_cost =
        static_cast<double>(llm.layers) *
        static_cast<double>(llm.attnNeuronsPerLayer() +
                            llm.mlpNeuronsPerLayer()) *
        config_.predictorPerNeuron;
    const Seconds lm_head = lmHeadTime(gpu_model, llm, request.batch);

    DecodePipeline pipeline(config_.numDimms);
    auto step = tape.steps.begin();
    for (std::uint32_t t = 0; t < request.generateTokens; ++t) {
        const std::uint64_t seq = request.promptTokens + t;
        const Seconds attention =
            ndp_.attention(request.batch, kv_heads_per_dimm,
                           llm.headDim(), seq, gqa_group)
                .total;
        pipeline.beginToken();
        for (std::uint32_t l = 0; l < sim_layers; ++l, ++step) {
            pipeline.splitStage(CostCategory::Fc, step->qkvGpu, sync,
                                sync, step->qkvLanes);
            // 3. Attention on the NDP-DIMMs, next to the KV cache.
            pipeline.ndpStage(CostCategory::Attention, attention);
            // 4. Projection on the GPU; DIMMs and PCIe are idle, so
            // swaps and rebalancing hide behind it.
            pipeline.pcieStage(sync); // Attention out.
            pipeline.gpuStage(CostCategory::Fc, projection);
            pipeline.shadowedPcie(step->upload);
            pipeline.shadowedDimmLink(step->migration);
            pipeline.splitStage(CostCategory::Fc, step->mlpGpu, sync,
                                sync, step->mlpLanes);
            // 6. Merge of GPU and NDP partials on the DIMMs.
            pipeline.ndpStage(CostCategory::Others, merge);
        }

        // The layer section extrapolates to the full depth; the
        // LM head and the host-side predictor scan are per token.
        pipeline.endToken(layer_scale);
        pipeline.addSerial(CostCategory::Others, lm_head);
        pipeline.addSerial(CostCategory::Predictor, predictor_cost);
    }

    result.generateTime = pipeline.totalTime();
    result.breakdown += pipeline.accumulated().toBreakdown();
    result.stats = tape.stats;

    finalize(result, request);
    return result;
}

} // namespace hermes::runtime
