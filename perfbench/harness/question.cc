/**
 * @file
 * The workload questions: what one user of the simulator asks it,
 * answered once per process.
 *
 *  - offline-sweep: every engine on three large models at a few
 *    batch sizes (one engine run per op);
 *  - chat-sessions: closed-loop multi-turn sessions on two replicas
 *    under KV-affinity routing (one fleet run);
 *  - fleet-scale: open-loop bursty arrivals on a 256-replica fleet
 *    under true-jsq + slo-steal (one fleet run).
 *
 * Every op's simulated outputs are folded into a digest that the
 * benchmark compares with a recorded reference.
 */

#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "harness.hh"
#include "runtime/factory.hh"
#include "workloads.hh"

namespace perfbench {

using namespace hermes;

SystemConfig
benchPlatform()
{
    SystemConfig config;
    config.simulatedLayers = kSimulatedLayers;
    return config;
}

InferenceRequest
paperRequest(const std::string &model, std::uint32_t batch,
             std::uint64_t seed)
{
    InferenceRequest request =
        defaultRequest(model::modelByName(model), batch);
    request.generateTokens = 48;
    request.profileTokens = 32;
    request.seed = seed;
    return request;
}

serving::ServingConfig
fleetServing()
{
    serving::ServingConfig config;
    config.maxBatch = 8;
    config.calibrationTokens = 6;
    return config;
}

serving::ScenarioConfig
chatScenario(std::uint64_t seed)
{
    serving::ScenarioConfig scenario = serving::scenarioByName(
        "multiturn", kChatSessions, kChatSessionsPerSecond, seed);
    scenario.turns = {kChatTurns, 0, 0.0, 1.0};
    scenario.prompt = {kChatPromptTokens, 0, 0.0, 1.0};
    return scenario;
}

serving::ScenarioConfig
fleetScenario(std::uint64_t seed)
{
    serving::ScenarioConfig scenario = serving::scenarioByName(
        "bursty", kFleetRequests,
        kFleetRatePerReplica * kFleetReplicas, seed);
    scenario.prompt = {192, 64, 0.05, 3.0};
    scenario.generate = {24, 8, 0.0, 1.0};
    return scenario;
}

fleet::FleetConfig
benchFleet(std::uint32_t replicas, const serving::ServingConfig &serving,
           const std::string &control, std::uint32_t threads)
{
    fleet::FleetConfig config;
    config.ttftDeadline = 1.5;
    config.control = sched::controlPolicyByName(control);
    config.calibrationThreads = threads;
    for (std::uint32_t i = 0; i < replicas; ++i) {
        fleet::ReplicaConfig replica;
        replica.system = benchPlatform();
        replica.serving = serving;
        config.replicas.push_back(std::move(replica));
    }
    return config;
}

std::string
engineSlug(EngineKind kind)
{
    switch (kind) {
    case EngineKind::Accelerate: return "accelerate";
    case EngineKind::FlexGen: return "flexgen";
    case EngineKind::DejaVu: return "dejavu";
    case EngineKind::HermesHost: return "hermes-host";
    case EngineKind::HermesBase: return "hermes-base";
    case EngineKind::Hermes: return "hermes";
    case EngineKind::TensorRtLlm: return "tensorrt-llm";
    }
    return "unknown";
}

bool
traceDriven(EngineKind kind)
{
    return kind == EngineKind::Hermes ||
           kind == EngineKind::HermesHost ||
           kind == EngineKind::DejaVu;
}

Shape
shapeOf(Workload workload)
{
    switch (workload) {
    case Workload::OfflineSweep:
        return {"OPT-66B", 4, 128 + 48};
    case Workload::ChatSessions:
        return {"OPT-13B", 8, 3072};
    case Workload::FleetScale:
        return {"OPT-13B", 8, 192 + 24};
    }
    return {};
}

namespace {

/** One simulated operation of a workload question. */
struct OpResult
{
    std::string name;
    std::string digest; ///< Empty when the op threw.
    std::string error;
};

/** Seed of op `index` of a question asked with `seed`. */
std::uint64_t
opSeed(std::uint64_t seed, std::uint64_t index)
{
    return Rng(seed * 0x9e3779b97f4a7c15ULL + index).next();
}

std::string
digestOf(const InferenceResult &result)
{
    Digest digest;
    digest.str(result.engine);
    digest.u64(result.supported ? 1 : 0);
    digest.f64(result.prefillTime);
    digest.f64(result.generateTime);
    digest.f64(result.tokensPerSecond);
    const runtime::LatencyBreakdown &b = result.breakdown;
    for (const double part : {b.fc, b.attention, b.predictor, b.prefill,
                              b.communication, b.others})
        digest.f64(part);
    for (const auto &[name, counter] : result.stats.counters()) {
        digest.str(name);
        digest.f64(counter.value());
        digest.u64(counter.samples());
    }
    return digest.hex();
}

std::string
digestOf(const fleet::FleetReport &report)
{
    Digest digest;
    digest.str(report.policy);
    for (const serving::RequestMetrics &m : report.requests) {
        digest.u64(m.id);
        digest.u64(m.rejected ? 1 : 0);
        for (const double t :
             {m.arrival, m.admitted, m.firstToken, m.completed})
            digest.f64(t);
        digest.u64(m.tokens);
        digest.u64(m.priority);
        digest.u64(m.preemptions);
        digest.u64(m.migrations);
    }
    for (const int replica : report.assignment)
        digest.u64(static_cast<std::uint64_t>(replica));
    for (const std::uint64_t count :
         {report.completed, report.rejected, report.shed})
        digest.u64(count);
    for (const double value :
         {report.makespan, report.throughputTps, report.p50Ttft,
          report.p99Ttft, report.sloAttainment, report.replicaSeconds,
          report.costPerRequest})
        digest.f64(value);
    digest.u64(report.costModelSaturated ? 1 : 0);
    const fleet::KernelStats &k = report.kernelStats;
    for (const std::uint64_t count :
         {k.events.popped(), k.steals, k.stolenRequests, k.preemptions,
          k.migrations})
        digest.u64(count);
    return digest.hex();
}

/** Spans around the harness's own calls, kept only when traced. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    double begin() const { return on_ ? monoNow() : 0.0; }

    void
    end(const std::string &name, double start)
    {
        if (on_)
            spans_.emplace_back(name, monoNow() - start);
    }

    std::string
    render() const
    {
        std::vector<std::string> rendered;
        for (const auto &[name, seconds] : spans_)
            rendered.push_back(
                Json().text("name", name).num("s", seconds).dump());
        return jsonArray(rendered);
    }

  private:
    bool on_;
    std::vector<std::pair<std::string, double>> spans_;
};

/** What a question reports besides its ops. */
struct Counters
{
    std::uint64_t engineRuns = 0;
    std::uint64_t traceTokens = 0;
    std::uint64_t steals = 0;
    std::uint64_t sessionContinues = 0;
    std::uint64_t requestsDone = 0;
};

std::string
renderOp(const OpResult &op)
{
    return Json()
        .text("name", op.name)
        .text("digest", op.digest)
        .text("error", op.error)
        .dump();
}

/** The kernel's own view of one fleet run (traced only). */
std::string
renderKernel(const fleet::FleetReport &report, std::uint32_t threads)
{
    const fleet::KernelStats &k = report.kernelStats;
    return Json()
        .num("loop_s", k.loopSeconds)
        .num("calibration_s", k.calibrationSeconds)
        .integer("events", k.events.popped())
        .integer("calibration_threads", threads)
        .dump();
}

} // namespace

std::string
runQuestion(const QuestionOptions &options)
{
    Tracer tracer(options.trace);
    std::vector<OpResult> ops;
    Counters counters;
    std::string kernel = "null";
    double setup_end = 0.0;

    if (options.workload == Workload::OfflineSweep) {
        struct Cell
        {
            std::size_t engine; ///< Into `engines`.
            EngineKind kind;
            InferenceRequest request;
            std::string name;
        };
        const SystemConfig platform = benchPlatform();
        const std::vector<EngineKind> kinds = runtime::allEngineKinds();
        std::vector<std::unique_ptr<runtime::InferenceEngine>> engines;
        for (const EngineKind kind : kinds)
            engines.push_back(runtime::makeEngine(kind, platform));
        std::vector<Cell> cells;
        for (const std::string &model : kSweepModels) {
            for (const std::uint32_t batch : kSweepBatches) {
                for (std::size_t e = 0; e < kinds.size(); ++e) {
                    const EngineKind kind = kinds[e];
                    const std::uint64_t index = cells.size();
                    cells.push_back(
                        {e, kind,
                         paperRequest(model, batch,
                                      opSeed(options.seed, index)),
                         engineSlug(kind) + "/" + model + "/b" +
                             std::to_string(batch)});
                }
            }
        }
        if (options.perturb) {
            // Hermes runs every sweep model and reads the trace seed;
            // the analytic engines ignore it.
            for (Cell &cell : cells) {
                if (cell.kind == EngineKind::Hermes) {
                    cell.request.seed += 1;
                    break;
                }
            }
        }

        setup_end = monoNow();
        for (const Cell &cell : cells) {
            OpResult op{cell.name, "", ""};
            const double start = tracer.begin();
            try {
                const InferenceResult result =
                    engines[cell.engine]->run(cell.request);
                tracer.end("runtime.engine_run", start);
                op.digest = digestOf(result);
                if (result.supported && traceDriven(cell.kind))
                    counters.traceTokens += cell.request.profileTokens +
                                            cell.request.generateTokens;
            } catch (const std::exception &error) {
                op.error = error.what();
            }
            ++counters.engineRuns;
            ops.push_back(std::move(op));
        }
    } else {
        const bool chat = options.workload == Workload::ChatSessions;
        serving::ServingConfig serving = fleetServing();
        if (options.perturb)
            serving.seed += 1;
        const std::uint32_t threads =
            chat ? kChatCalibrationThreads : 1;
        const model::LlmConfig llm = model::modelByName("OPT-13B");

        serving::SessionTrace sessions;
        std::vector<serving::ServedRequest> requests;
        if (chat)
            sessions = serving::generateSessionWorkload(
                chatScenario(options.seed));
        else
            requests =
                serving::generateWorkload(fleetScenario(options.seed));
        fleet::FleetSimulator simulator(
            benchFleet(chat ? kChatReplicas : kFleetReplicas, serving,
                       chat ? "affinity" : "true-jsq+slo-steal",
                       threads),
            llm);

        OpResult op{chat ? "chat-sessions" : "fleet-scale", "", ""};
        setup_end = monoNow();
        const double start = tracer.begin();
        try {
            const fleet::FleetReport report =
                chat ? simulator.run(sessions)
                     : simulator.run(std::move(requests));
            tracer.end("core.fleet.run", start);
            op.digest = digestOf(report);
            counters.steals = report.kernelStats.steals;
            counters.sessionContinues =
                report.kernelStats.events.sessionContinues;
            counters.requestsDone = report.completed;
            if (options.trace)
                kernel = renderKernel(report, threads);
        } catch (const std::exception &error) {
            op.error = error.what();
        }
        ops.push_back(std::move(op));
    }

    std::vector<std::string> rendered;
    for (const OpResult &op : ops)
        rendered.push_back(renderOp(op));
    return Json()
        .text("mode", "question")
        .integer("seed", options.seed)
        .num("setup_s", setup_end - options.spawnTime)
        .raw("ops", jsonArray(rendered))
        .raw("counters",
             Json()
                 .integer("engine_runs", counters.engineRuns)
                 .integer("trace_tokens", counters.traceTokens)
                 .integer("steals", counters.steals)
                 .integer("session_continues",
                          counters.sessionContinues)
                 .integer("requests_done", counters.requestsDone)
                 .dump())
        .raw("spans", tracer.render())
        .raw("kernel", kernel)
        .dump();
}

} // namespace perfbench
