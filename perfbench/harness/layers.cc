/**
 * @file
 * Per-layer replays: one unit of every simulator layer, timed from
 * outside through its public functions, with inputs shaped like the
 * workload the traced run stands beside (Shape).
 *
 * Each replay repeats its unit until it has `maxCalls` samples or
 * its share of the time budget is spent (but at least `minCalls`),
 * timing only the unit itself: inputs are rebuilt or advanced
 * outside the timed region.  Sub-microsecond units are timed in
 * batches and divided, so the clock read does not dominate.
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "core/event_sim.hh"
#include "dram/bandwidth_probe.hh"
#include "dram/controller.hh"
#include "gpu/kernels.hh"
#include "harness.hh"
#include "interconnect/dimm_link.hh"
#include "interconnect/pcie.hh"
#include "ndp/ndp_dimm.hh"
#include "runtime/common_costs.hh"
#include "runtime/decode_pipeline.hh"
#include "runtime/factory.hh"
#include "sched/ilp_partition.hh"
#include "sched/mapper.hh"
#include "sched/placement.hh"
#include "sched/predictor.hh"
#include "sched/router.hh"
#include "sched/window_scheduler.hh"
#include "sparsity/trace.hh"
#include "workloads.hh"

namespace perfbench {

using namespace hermes;

namespace {

/** How long one replay may run, and how many samples it wants. */
struct Quota
{
    double budget_s;
    std::uint32_t minCalls;
    std::uint32_t maxCalls;
};

/**
 * Call `unit` (which returns the seconds of the timed part of one
 * call) until the quota is met.
 */
Samples
repeat(const Quota &quota, const std::function<double()> &unit)
{
    Samples samples;
    const double start = monoNow();
    while (samples.values.size() < quota.maxCalls &&
           (samples.values.size() < quota.minCalls ||
            monoNow() - start < quota.budget_s))
        samples.add(unit());
    return samples;
}

/** Seconds `body` takes. */
template <typename Body>
double
timed(Body &&body)
{
    const double start = monoNow();
    body();
    return monoNow() - start;
}

/** The simulated slice of the shape's model (kSimulatedLayers). */
model::LlmConfig
simulatedModel(const Shape &shape)
{
    model::LlmConfig llm = model::modelByName(shape.model);
    llm.layers = std::min(llm.layers, kSimulatedLayers);
    return llm;
}

/** Per-neuron activation frequency of every block over a profile. */
struct Profile
{
    std::vector<std::vector<double>> attn;
    std::vector<std::vector<double>> mlp;
};

Profile
profileTrace(sparsity::ActivationTrace &trace, std::uint32_t layers,
             std::uint32_t tokens)
{
    Profile profile;
    profile.attn.resize(layers);
    profile.mlp.resize(layers);
    for (std::uint32_t l = 0; l < layers; ++l) {
        profile.attn[l].assign(trace.attn(l).neurons(), 0.0);
        profile.mlp[l].assign(trace.mlp(l).neurons(), 0.0);
    }
    for (std::uint32_t t = 0; t < tokens; ++t) {
        trace.nextToken();
        for (std::uint32_t l = 0; l < layers; ++l) {
            for (const auto id : trace.attn(l).activeList)
                profile.attn[l][id] += 1.0;
            for (const auto id : trace.mlp(l).activeList)
                profile.mlp[l][id] += 1.0;
        }
    }
    for (std::uint32_t l = 0; l < layers; ++l) {
        for (double &f : profile.attn[l])
            f /= tokens;
        for (double &f : profile.mlp[l])
            f /= tokens;
    }
    return profile;
}

/**
 * The 6-layer profile partition problem a Hermes run solves, built
 * the way the engine builds it: profiled frequencies and
 * finite-difference per-neuron GPU/NDP costs.
 */
sched::PartitionProblem
partitionProblem(const SystemConfig &platform, const model::LlmConfig &full,
                 const model::LlmConfig &sim, const Profile &profile,
                 const sparsity::ActivationTrace &trace,
                 std::uint32_t batch)
{
    const gpu::GpuModel gpu_model(platform.gpu);
    const interconnect::PcieBus pcie(platform.pcie);
    ndp::NdpDimm ndp(platform.dimm);
    const double layer_scale =
        static_cast<double>(full.layers) / sim.layers;

    sched::PartitionProblem problem;
    problem.syncTime = runtime::activationSyncTime(pcie, full, batch);
    problem.gpuBudget = static_cast<Bytes>(
        static_cast<double>(
            runtime::computeResidency(platform, full, 0).hotBudget) /
        layer_scale);
    problem.dimmBudgets.assign(
        platform.numDimms,
        static_cast<Bytes>(0.95 *
                           static_cast<double>(
                               platform.dimm.dimm.capacity) /
                           layer_scale));
    const std::uint64_t attn_values = full.hidden + 2ULL * full.kvDim();
    const std::uint64_t mlp_values =
        static_cast<std::uint64_t>(full.mlpMatrices) * full.hidden;
    const auto gpu_marginal = [&](std::uint64_t values) {
        return gpu_model.sparseGemv(1025, values, batch) -
               gpu_model.sparseGemv(1024, values, batch);
    };
    const auto dimm_marginal = [&](std::uint64_t values, double scale) {
        return ndp.sparseGemv(1025, values, batch, scale).total -
               ndp.sparseGemv(1024, values, batch, scale).total;
    };
    for (std::uint32_t l = 0; l < sim.layers; ++l) {
        sched::BlockProblem attn;
        attn.frequency = profile.attn[l];
        attn.neuronBytes = full.attnNeuronBytes();
        attn.gpuTimePerNeuron = gpu_marginal(attn_values);
        attn.dimmTimePerNeuron =
            dimm_marginal(attn_values, trace.attn(0).computeScale);
        problem.blocks.push_back(std::move(attn));

        sched::BlockProblem mlp;
        mlp.frequency = profile.mlp[l];
        mlp.neuronBytes = full.mlpNeuronBytes();
        mlp.gpuTimePerNeuron = gpu_marginal(mlp_values);
        mlp.dimmTimePerNeuron =
            dimm_marginal(mlp_values, trace.mlp(0).computeScale);
        problem.blocks.push_back(std::move(mlp));
    }
    return problem;
}

/** 512 full-row reads at scattered rows, like the bandwidth probe. */
std::vector<dram::RowRead>
scatteredRows(const dram::DimmConfig &config, std::uint64_t seed)
{
    const dram::AddressMapper mapper(config);
    const auto bursts =
        static_cast<std::uint32_t>(config.rowBytes / config.burstBytes);
    const std::uint64_t chunks =
        config.rowsPerBank() *
        static_cast<std::uint64_t>(config.banksPerRank());
    Rng rng(seed);
    std::vector<dram::RowRead> reads;
    for (int i = 0; i < 512; ++i)
        reads.push_back(mapper.mapRowChunk(rng.below(chunks), bursts));
    return reads;
}

} // namespace

std::string
runLayers(Workload workload, std::uint64_t seed, double budget_s)
{
    const Shape shape = shapeOf(workload);
    const SystemConfig platform = benchPlatform();
    const model::LlmConfig full = model::modelByName(shape.model);
    const model::LlmConfig sim = simulatedModel(shape);
    sparsity::SparsityConfig sparsity = platform.sparsity;
    sparsity.seed = seed;

    // The twelve light replays share a third of the budget; the
    // eight engine-run replays, the cost cell and the generator the
    // rest.
    const Quota light{budget_s / 3.0 / 12.0, 20, 2000};
    const Quota heavy{budget_s * 2.0 / 3.0 / 10.0, 3, 200};
    std::map<std::string, std::pair<Samples, double>> metrics;
    const auto record = [&](const std::string &name, Samples samples,
                            double scale) {
        metrics[name] = {std::move(samples), scale};
    };

    // ---- sparsity ----
    record("sparsity.trace_init_ms", repeat(light, [&] {
               return timed([&] {
                   sparsity::ActivationTrace trace(sim, sparsity,
                                                   shape.batch);
               });
           }),
           1e3);
    sparsity::ActivationTrace trace(sim, sparsity, shape.batch);
    trace.reset(0);
    record("sparsity.next_token_ms",
           repeat(light, [&] { return timed([&] { trace.nextToken(); }); }),
           1e3);

    // ---- dram / ndp ----
    const dram::DimmConfig &dimm = platform.dimm.dimm;
    const std::vector<dram::RowRead> reads = scatteredRows(dimm, seed);
    dram::RankController controller(dimm);
    record("dram.rank_simulate_ms", repeat(light, [&] {
               return timed([&] { controller.simulate(reads); });
           }),
           1e3);
    record("dram.probe_cold_ms", repeat(light, [&] {
               dram::BandwidthProbe probe(dimm);
               return timed([&] {
                   probe.internalBandwidth(
                       dram::AccessPattern::ScatteredRows);
               });
           }),
           1e3);
    ndp::NdpDimm ndp(platform.dimm);
    ndp.internalBandwidth();
    const std::uint64_t mlp_values =
        static_cast<std::uint64_t>(full.mlpMatrices) * full.hidden;
    const std::uint64_t cold_rows = static_cast<std::uint64_t>(
        0.2 * static_cast<double>(full.mlpNeuronsPerLayer()) /
        platform.numDimms);
    constexpr int kGemvBatch = 64;
    record("ndp.sparse_gemv_us", repeat(light, [&] {
               return timed([&] {
                          for (int i = 0; i < kGemvBatch; ++i)
                              ndp.sparseGemv(cold_rows + i, mlp_values,
                                             shape.batch,
                                             trace.mlp(0).computeScale);
                      }) /
                      kGemvBatch;
           }),
           1e6);

    // ---- sched ----
    sparsity::ActivationTrace profiled(sim, sparsity, shape.batch);
    profiled.reset(0);
    const Profile profile = profileTrace(profiled, sim.layers, 32);
    const sched::PartitionProblem problem = partitionProblem(
        platform, full, sim, profile, profiled, shape.batch);
    const sched::IlpPartitioner solver;
    sched::PartitionResult partition;
    record("sched.ilp_solve_ms", repeat(light, [&] {
               return timed([&] { partition = solver.solve(problem); });
           }),
           1e3);
    sched::ModelPlacement placement =
        sched::makeRoundRobinPlacement(sim, platform.numDimms);
    sched::NeuronMapper::applyPartition(placement, partition.assignment);

    const std::uint32_t layer = std::min<std::uint32_t>(1, sim.layers - 1);
    const sched::PredictorConfig predictor_config;
    sched::BlockPredictor predictor(profiled.mlp(layer).neurons(),
                                    predictor_config);
    predictor.initFromFrequency(profile.mlp[layer]);
    predictor.setCorrelation(profiled.mlp(layer).parent1,
                             profiled.mlp(layer).parent2);
    std::vector<std::uint8_t> predicted;
    record("sched.predictor_step_us", repeat(light, [&] {
               profiled.nextToken();
               return timed([&] {
                   predictor.predict(&profiled.attn(layer).mask,
                                     predicted);
                   predictor.update(profiled.mlp(layer).mask);
               });
           }),
           1e6);
    std::vector<std::uint32_t> scores;
    record("sched.mapper_adjust_us", repeat(light, [&] {
               profiled.nextToken();
               predictor.update(profiled.mlp(layer).mask);
               return timed([&] {
                   predictor.hotScores(&profiled.attn(layer).mask, true,
                                       true, scores);
                   sched::NeuronMapper::adjustBlock(
                       placement.mlp[layer], scores,
                       full.mlpNeuronBytes());
               });
           }),
           1e6);
    const interconnect::DimmLinkNetwork link(platform.numDimms,
                                             platform.link);
    sched::WindowSet windows(
        sim.layers, profiled.attn(0).neurons(), profiled.mlp(0).neurons(),
        platform.numDimms, platform.sched.windowSize,
        sched::WindowSet::Policy{true, false});
    record("sched.window_rebalance_us", repeat(light, [&] {
               while (!windows.windowComplete(layer)) {
                   profiled.nextToken();
                   windows.observe(layer, profiled.attn(layer).activeList,
                                   profiled.mlp(layer).activeList);
               }
               return timed([&] {
                   windows.maybeRebalance(
                       layer, placement.attn[layer], placement.mlp[layer],
                       full.attnNeuronBytes(), full.mlpNeuronBytes(),
                       link);
               });
           }),
           1e6);

    // The router and the event queue run at fleet-scale width.
    std::vector<sched::ReplicaModel> models(kFleetReplicas);
    sched::Router router(sched::RouterPolicy::TrueJsq, models, 1.5);
    std::vector<sched::ReplicaObservation> observed(kFleetReplicas);
    Rng route_rng(seed);
    double arrival = 0.0;
    constexpr int kRouteBatch = 64;
    record("sched.router_route_ns", repeat(light, [&] {
               for (auto &o : observed) {
                   o.outstanding =
                       static_cast<std::uint32_t>(route_rng.below(12));
                   o.backlogTokens = 24.0 * o.outstanding;
               }
               return timed([&] {
                          for (int i = 0; i < kRouteBatch; ++i) {
                              arrival += 1.0 / 384.0;
                              router.route(arrival, 24, &observed);
                          }
                      }) /
                      kRouteBatch;
           }),
           1e9);

    // ---- runtime ----
    runtime::DecodePipeline pipeline(platform.numDimms);
    Rng stage_rng(seed);
    const auto jitter = [&](double base) {
        return base * (0.5 + stage_rng.uniform());
    };
    std::vector<Seconds> lanes(platform.numDimms);
    record("runtime.pipeline_token_us", repeat(light, [&] {
               for (Seconds &lane : lanes)
                   lane = jitter(40e-6);
               return timed([&] {
                   pipeline.beginToken();
                   for (std::uint32_t l = 0; l < sim.layers; ++l) {
                       pipeline.splitStage(runtime::CostCategory::Fc,
                                           jitter(30e-6), 5e-6, 5e-6,
                                           lanes);
                       pipeline.ndpStage(runtime::CostCategory::Attention,
                                         jitter(20e-6));
                       pipeline.pcieStage(5e-6);
                       pipeline.gpuStage(runtime::CostCategory::Fc,
                                         jitter(25e-6));
                       pipeline.shadowedPcie(jitter(10e-6));
                       pipeline.shadowedDimmLink(jitter(8e-6));
                       pipeline.splitStage(runtime::CostCategory::Fc,
                                           jitter(60e-6), 5e-6, 5e-6,
                                           lanes);
                       pipeline.ndpStage(runtime::CostCategory::Others,
                                         jitter(4e-6));
                   }
                   pipeline.endToken(static_cast<double>(full.layers) /
                                     sim.layers);
                   pipeline.addSerial(runtime::CostCategory::Others,
                                      20e-6);
                   pipeline.addSerial(runtime::CostCategory::Predictor,
                                      10e-6);
               });
           }),
           1e6);

    for (const EngineKind kind :
         {EngineKind::Hermes, EngineKind::HermesHost,
          EngineKind::HermesBase, EngineKind::DejaVu}) {
        const auto engine = runtime::makeEngine(kind, platform);
        InferenceRequest calib = paperRequest(shape.model, shape.batch,
                                              seed);
        calib.promptTokens = static_cast<std::uint32_t>(shape.context);
        calib.generateTokens = 6;
        calib.profileTokens = 24;
        const InferenceRequest paper =
            paperRequest(shape.model, shape.batch, seed);
        const std::string prefix =
            "runtime.engine_run_ms." + engineSlug(kind);
        record(prefix + ".calib", repeat(heavy, [&] {
                   return timed([&] { engine->run(calib); });
               }),
               1e3);
        record(prefix + ".paper", repeat(heavy, [&] {
                   return timed([&] { engine->run(paper); });
               }),
               1e3);
    }

    // ---- core ----
    serving::ServingConfig serving = fleetServing();
    record("core.serving.cost_cell_ms", repeat(heavy, [&] {
               serving::ServingSimulator cold(platform, full, serving);
               return timed([&] {
                   cold.tokenSeconds(shape.batch, shape.context);
               });
           }),
           1e3);
    record("core.workload.generate_ms", repeat(heavy, [&] {
               if (workload == Workload::ChatSessions) {
                   const auto scenario = chatScenario(seed);
                   return timed([&] {
                       serving::generateSessionWorkload(scenario);
                   });
               }
               const auto scenario = fleetScenario(seed);
               return timed([&] { serving::generateWorkload(scenario); });
           }),
           1e3);

    // Fleet-scale occupancy: a few in-flight events per replica.
    sim::EventQueue queue;
    queue.shard(kFleetReplicas);
    Rng queue_rng(seed);
    for (std::uint32_t r = 0; r < kFleetReplicas; ++r) {
        for (std::uint64_t k = 0; k < 3; ++k)
            queue.push(queue_rng.uniform(), sim::EventKind::StepComplete,
                       static_cast<std::int32_t>(r), k);
    }
    constexpr int kQueueBatch = 256;
    record("core.event_queue.push_pop_ns", repeat(light, [&] {
               return timed([&] {
                          for (int i = 0; i < kQueueBatch; ++i) {
                              const sim::Event event = queue.pop();
                              queue.push(event.time +
                                             0.01 + 0.02 *
                                                 queue_rng.uniform(),
                                         event.kind, event.replica,
                                         event.id);
                          }
                      }) /
                      kQueueBatch;
           }),
           1e9);

    Json out;
    out.text("mode", "layers");
    Json rendered;
    for (const auto &[name, entry] : metrics)
        rendered.raw(name, renderSamples(entry.first, entry.second));
    out.raw("metrics", rendered.dump());
    return out.dump();
}

} // namespace perfbench
