/**
 * @file
 * Multi-request serving bench: continuous batching over the decode
 * pipeline (core/serving.hh) driven by the workload scenario
 * generator (core/workload.hh).
 *
 * Beyond the paper's single-request figures, this drives generated
 * arrival scenarios through Hermes and the strongest baselines and
 * reports fleet metrics: throughput, batch occupancy, and
 * per-request p50/p99 token latency and TTFT.
 *
 * Configurable from the command line (see --help); `--smoke` runs a
 * seconds-long subset for CI.
 */

#include <cstdio>
#include <stdexcept>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/serving.hh"
#include "core/workload.hh"

namespace {

using namespace hermes;
using namespace hermes::bench;

std::string
ms(Seconds seconds)
{
    return TextTable::num(seconds * 1e3, 1);
}

/** Requests around 128-token prompts / 64-token generations. */
serving::ScenarioConfig
benchScenario(const std::string &name, std::uint32_t requests,
              double rate, std::uint64_t seed)
{
    serving::ScenarioConfig scenario =
        serving::scenarioByName(name, requests, rate, seed);
    scenario.prompt = {128, 32, 0.0, 1.0};
    scenario.generate = {64, 16, 0.0, 1.0};
    return scenario;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    const bool smoke =
        args.flag("smoke", "seconds-long CI subset");
    const std::string model_name = args.str(
        "model", smoke ? "OPT-13B" : "OPT-66B", "model name");
    const std::string scenario_name = args.str(
        "scenario", "steady", "arrival scenario for the tables");
    const std::uint32_t requests = args.u32(
        "requests", smoke ? 8 : 24, "trace length");
    const double rate =
        args.f64("rate", 1.5, "mean arrival rate (req/s)");
    const std::uint32_t batch =
        args.u32("batch", 16, "continuous-batching slots");
    const std::uint64_t seed =
        args.u64("seed", 7, "trace seed (full 64-bit range)");
    std::string engine_help = "single engine to bench (";
    for (const std::string &name : runtime::engineKindNames())
        engine_help += name + "|";
    engine_help += "...), or 'compare'";
    const std::string engine_name =
        args.str("engine", "compare", engine_help);
    const std::string json_path = args.out(
        "json", "write a machine-readable summary of the engine "
                "comparison to this path");
    args.finish();

    model::LlmConfig llm;
    try {
        llm = model::modelByName(model_name);
    } catch (const std::invalid_argument &error) {
        std::fprintf(stderr, "--model: %s\n", error.what());
        return 2;
    }
    System system(benchPlatform());

    banner("Serving", "engine comparison");
    std::printf("%s, %u requests at %.1f req/s (%s)\n",
                model_name.c_str(), requests, rate,
                scenario_name.c_str());

    const auto workload = serving::generateWorkload(
        benchScenario(scenario_name, requests, rate, seed));

    serving::ServingConfig config;
    config.maxBatch = batch;
    config.calibrationTokens = smoke ? 6 : 8;

    std::vector<EngineKind> engines;
    if (engine_name != "compare")
        engines = {runtime::engineKindByName(engine_name)};
    else if (smoke)
        engines = {EngineKind::Hermes, EngineKind::HermesBase};
    else
        engines = {EngineKind::Hermes, EngineKind::HermesBase,
                   EngineKind::DejaVu};

    TextTable table({"engine", "done", "rej", "tok/s", "mean batch",
                     "peak", "p50 tok (ms)", "p99 tok (ms)",
                     "p50 TTFT (ms)", "p99 TTFT (ms)"});
    const auto reports =
        system.compareServing(llm, workload, engines, config);
    for (const auto &report : reports) {
        table.addRow({report.engine,
                      std::to_string(report.completed),
                      std::to_string(report.rejected),
                      TextTable::num(report.throughputTps, 2),
                      TextTable::num(report.meanBatchOccupancy, 1),
                      std::to_string(report.peakBatch),
                      ms(report.p50TokenLatency),
                      ms(report.p99TokenLatency),
                      ms(report.p50Ttft), ms(report.p99Ttft)});
    }
    table.print();
    std::printf("\nnote: token latencies are decode-step times under "
                "contention; TTFT includes queueing + prefill\n");

    if (!json_path.empty()) {
        // One flat object per engine would need nesting; the
        // comparison's headline (the Hermes row) is what sweeps
        // track, so emit that plus the shared run config.
        JsonObject json;
        json.set("bench", "bench_serving");
        json.set("model", model_name);
        json.set("scenario", scenario_name);
        json.setU64("requests", requests);
        json.setF64("rate_per_sec", rate);
        json.setU64("max_batch", batch);
        json.setU64("seed", seed);
        json.setBool("smoke", smoke);
        json.set("engine", reports.front().engine);
        json.setU64("completed", reports.front().completed);
        json.setF64("throughput_tps",
                    reports.front().throughputTps);
        json.setF64("p99_ttft_ms", reports.front().p99Ttft * 1e3);
        json.setU64("peak_rss_kib", peakRssKib());
        if (!json.writeFile(json_path))
            return 1;
    }
    if (smoke)
        return 0;

    banner("Serving", "arrival-scenario sweep, Hermes");
    TextTable scenarios({"scenario", "tok/s", "mean batch",
                         "p99 tok (ms)", "p50 TTFT (ms)",
                         "p99 TTFT (ms)"});
    for (const char *name : {"steady", "bursty", "diurnal"}) {
        const auto report = system.serve(
            llm,
            serving::generateWorkload(
                benchScenario(name, requests, rate, seed)),
            config);
        scenarios.addRow(
            {name, TextTable::num(report.throughputTps, 2),
             TextTable::num(report.meanBatchOccupancy, 1),
             ms(report.p99TokenLatency), ms(report.p50Ttft),
             ms(report.p99Ttft)});
    }
    scenarios.print();
    std::printf("same mean rate, different shapes: bursts deepen "
                "queues (TTFT tail) while filling batch slots\n");

    banner("Serving", "batch-slot sweep, Hermes");
    TextTable sweep({"max batch", "tok/s", "p50 tok (ms)",
                     "p99 tok (ms)", "p99 TTFT (ms)"});
    for (const std::uint32_t slots : {4u, 8u, 16u, 32u}) {
        serving::ServingConfig swept = config;
        swept.maxBatch = slots;
        const auto report = system.serve(llm, workload, swept);
        sweep.addRow({std::to_string(slots),
                      TextTable::num(report.throughputTps, 2),
                      ms(report.p50TokenLatency),
                      ms(report.p99TokenLatency),
                      ms(report.p99Ttft)});
    }
    sweep.print();
    std::printf("paper context: Fig. 11 shows Hermes throughput "
                "scaling with batch; serving adds the latency side "
                "of that trade\n");
    return 0;
}
