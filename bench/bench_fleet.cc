/**
 * @file
 * Fleet co-simulation bench: router policies x arrival scenarios x
 * replica counts (core/fleet.hh + core/workload.hh) on the
 * event-driven kernel.
 *
 * Sweeps control policies (estimate-based and feedback routing,
 * optionally composed with the `stealer` option's policy) over the
 * standard scenario set (steady Poisson, bursty Gamma, diurnal
 * sinusoid) and reports aggregate throughput, fleet p99 TTFT, and
 * SLO attainment against a TTFT deadline, plus the events/sec of
 * the kernel loop itself so control-plane overhead stays visible.
 * A second section compares SLO-aware stealing ("slo-steal")
 * against the occupancy-greedy heuristic on a heterogeneous fleet.
 * Lifecycle sections compare priority preemption against stealing
 * on an overloaded bursty fleet with high-priority traffic, and
 * drain-migrate against abandonment on a fleet with a dead replica.
 * `--scenario multiturn` is a closed-loop conversational tier of
 * its own: multi-turn sessions (core/workload.hh) scored on
 * end-to-end turn latency, comparing KV-affinity routing against
 * jsq and true-jsq.
 * A final section re-runs one cell from scratch and checks the
 * rendered report is byte-identical — the reproducibility contract
 * the regression tests rely on; the process exits non-zero when it
 * fails.
 *
 * Everything is configurable from the command line (see --help);
 * `--smoke` runs a seconds-long subset for CI and `--scale` is the
 * 32-replica / 2000-request configuration ROADMAP asks for.
 */

#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/fleet.hh"
#include "core/workload.hh"

namespace {

using namespace hermes;
using namespace hermes::bench;

struct Sweep
{
    std::vector<sched::RouterPolicy> policies;
    std::vector<std::uint32_t> fleetSizes;
    std::vector<serving::ScenarioConfig> scenarios;
    std::string stealer; ///< "" = none; else a registry name.
    Seconds ttftDeadline = 1.5;
    std::uint32_t maxBatch = 8;
};

serving::ServingConfig
replicaServing(const Sweep &sweep)
{
    serving::ServingConfig config;
    config.maxBatch = sweep.maxBatch;
    config.calibrationTokens = 6;
    return config;
}

std::vector<serving::ScenarioConfig>
scenarios(const std::string &which, std::uint32_t requests,
          double rate, std::uint64_t seed)
{
    std::vector<serving::ScenarioConfig> set;
    if (which == "all")
        set = serving::standardScenarios(requests, rate, seed);
    else
        set = {serving::scenarioByName(which, requests, rate,
                                       seed)};
    for (auto &scenario : set) {
        scenario.prompt = {192, 64, 0.05, 3.0};
        scenario.generate = {24, 8, 0.0, 1.0};
    }
    return set;
}

fleet::FleetConfig
fleetConfig(const Sweep &sweep, const SystemConfig &platform,
            std::uint32_t replicas, sched::RouterPolicy policy)
{
    std::string control = sched::routerPolicyName(policy);
    if (!sweep.stealer.empty())
        control += "+" + sweep.stealer;
    return fleet::uniformFleet(replicas, platform,
                               replicaServing(sweep),
                               sched::controlPolicyByName(control),
                               sweep.ttftDeadline);
}

std::string
fleetRow(const fleet::FleetReport &report)
{
    // Fixed-precision rendering: equal physics => equal bytes.
    char buffer[192];
    std::snprintf(buffer, sizeof(buffer),
                  "done=%llu rej=%llu shed=%llu steals=%llu "
                  "tok/s=%.4f p99TTFT=%.4fms slo=%.4f",
                  static_cast<unsigned long long>(report.completed),
                  static_cast<unsigned long long>(report.rejected),
                  static_cast<unsigned long long>(report.shed),
                  static_cast<unsigned long long>(
                      report.kernelStats.stolenRequests),
                  report.throughputTps, report.p99Ttft * 1e3,
                  report.sloAttainment);
    return buffer;
}

/** Kernel-loop throughput accumulated over a sweep. */
struct LoopMeter
{
    std::uint64_t events = 0;
    double seconds = 0.0;
    double calibrationSeconds = 0.0;
    std::uint64_t calibrationTapes = 0;

    void
    add(const fleet::FleetReport &report)
    {
        events += report.kernelStats.events.popped();
        seconds += report.kernelStats.loopSeconds;
        calibrationSeconds +=
            report.kernelStats.calibrationSeconds;
        calibrationTapes += report.kernelStats.calibrationTapes;
    }

    void
    print(const char *label) const
    {
        std::printf("%s: %llu kernel events in %.1f ms (%.0f "
                    "events/s) + %.1f ms calibration (%llu tapes)\n",
                    label, static_cast<unsigned long long>(events),
                    seconds * 1e3,
                    seconds > 0.0
                        ? static_cast<double>(events) / seconds
                        : 0.0,
                    calibrationSeconds * 1e3,
                    static_cast<unsigned long long>(calibrationTapes));
    }
};

/**
 * The machine-readable run summary every tier writes under --json
 * (tools/check_bench_regression.py compares it against the
 * committed BENCH_fleet.json in CI).  `extra` appends tier-specific
 * keys just before peak_rss_kib.  True when nothing was asked for
 * or the file was written.
 */
bool
writeRunJson(const std::string &path, const std::string &tier,
             std::uint64_t replicas, std::uint32_t requests,
             double rate, std::uint64_t seed,
             const std::string &scenario, const std::string &policy,
             const LoopMeter &meter,
             const std::function<void(JsonObject &)> &extra = {})
{
    if (path.empty())
        return true;
    JsonObject json;
    json.set("bench", "bench_fleet");
    json.set("tier", tier);
    json.set("model", "OPT-13B");
    json.setU64("replicas", replicas);
    json.setU64("requests", requests);
    json.setF64("rate_per_sec", rate);
    json.setU64("seed", seed);
    json.set("scenario", scenario);
    json.set("policy", policy);
    json.setU64("events", meter.events);
    json.setF64("loop_ms", meter.seconds * 1e3);
    json.setF64("calibration_ms", meter.calibrationSeconds * 1e3);
    json.setU64("calibration_tapes", meter.calibrationTapes);
    json.setF64("events_per_sec",
                meter.seconds > 0.0
                    ? static_cast<double>(meter.events) /
                          meter.seconds
                    : 0.0);
    if (extra)
        extra(json);
    json.setU64("peak_rss_kib", peakRssKib());
    return json.writeFile(path);
}

/**
 * The reproducibility check closing every tier: render one cell
 * twice from scratch (`trial` builds a fresh fleet each call) and
 * compare the rendered rows byte for byte.  Prints both rows and
 * the verdict; true when they match.
 */
bool
sameTwice(const std::function<std::string()> &trial)
{
    banner("Fleet", "determinism: same seed, fresh fleet");
    const std::string first = trial();
    std::printf("trial 0: %s\n", first.c_str());
    const std::string second = trial();
    std::printf("trial 1: %s\n", second.c_str());
    const bool identical = second == first;
    std::printf("byte-identical: %s\n", identical ? "yes" : "NO");
    return identical;
}

/**
 * The policy-comparison sections beside the sweep: SLO-aware vs
 * greedy stealing on a heterogeneous fleet, then the request
 * lifecycle verbs (priority preemption, drain-migrate).
 */
void
compareLifecycle(const Sweep &sweep, const SystemConfig &platform,
                 const model::LlmConfig &llm, std::uint32_t requests)
{
    // SLO-aware stealing vs the occupancy-greedy heuristic on
    // a heterogeneous fleet: a fast Hermes replica beside an
    // Accelerate tier whose prefill alone misses the deadline.
    // slo-steal declines steals whose estimated TTFT on the
    // thief is worse than waiting out the victim's backlog.
    banner("Fleet",
           "stealing: none vs greedy-steal vs slo-steal "
           "(fast Hermes + slow Accelerate, jsq)");
    serving::ScenarioConfig scenario;
    scenario.process = serving::ArrivalProcess::Bursty;
    scenario.requests = requests;
    scenario.ratePerSecond = 4.0;
    scenario.burstiness = 8.0;
    scenario.prompt = {96, 32, 0.0, 1.0};
    scenario.generate = {2, 1, 0.0, 1.0};
    scenario.seed = 5;
    const auto trace = serving::generateWorkload(scenario);

    fleet::FleetConfig config;
    config.ttftDeadline = 2.0;
    fleet::ReplicaConfig fast;
    fast.name = "fast";
    fast.system = platform;
    fast.serving.maxBatch = 2;
    fast.serving.calibrationTokens = 6;
    fleet::ReplicaConfig slow = fast;
    slow.name = "slow";
    slow.serving.engine = runtime::EngineKind::Accelerate;
    config.replicas = {fast, slow};

    TextTable steal_table({"control", "done", "steals",
                           "p99 TTFT (ms)", "SLO att."});
    for (const char *name :
         {"jsq", "jsq+greedy-steal", "jsq+slo-steal"}) {
        config.control = sched::controlPolicyByName(name);
        fleet::FleetSimulator simulator(config, llm);
        const auto report = simulator.run(trace);
        steal_table.addRow(
            {report.policy, std::to_string(report.completed),
             std::to_string(report.kernelStats.stolenRequests),
             TextTable::num(report.p99Ttft * 1e3, 1),
             TextTable::num(report.sloAttainment, 3)});
    }
    steal_table.print();

    // Request lifecycle: priority preemption on an overloaded
    // bursty fleet (a quarter of the traffic is high priority;
    // priority-preempt evicts low-priority running work when a
    // high-priority request would miss its TTFT deadline), and
    // drain-migrate rescuing a dead replica's queue by moving
    // requests — KV included — instead of abandoning them.
    banner("Fleet", "lifecycle: priority preemption (25% "
                    "high-priority, bursty overload, jsq)");
    serving::ScenarioConfig prio;
    prio.process = serving::ArrivalProcess::Bursty;
    prio.requests = requests;
    prio.ratePerSecond = 16.0;
    prio.burstiness = 8.0;
    prio.prompt = {96, 32, 0.0, 1.0};
    prio.generate = {48, 16, 0.0, 1.0};
    prio.highPriorityFraction = 0.25;
    prio.seed = 11;
    const auto prio_trace = serving::generateWorkload(prio);

    serving::ServingConfig tight = replicaServing(sweep);
    tight.maxBatch = 2;
    fleet::FleetConfig prio_config = fleet::uniformFleet(
        2, platform, tight, nullptr, 1.0);
    TextTable prio_table({"control", "done", "preempts",
                          "hi-pri p99 TTFT (ms)",
                          "p99 TTFT (ms)", "SLO att."});
    for (const char *name :
         {"jsq", "jsq+slo-steal", "jsq+priority-preempt"}) {
        prio_config.control = sched::controlPolicyByName(name);
        fleet::FleetSimulator simulator(prio_config, llm);
        const auto report = simulator.run(prio_trace);
        prio_table.addRow(
            {report.policy, std::to_string(report.completed),
             std::to_string(report.kernelStats.preemptions),
             TextTable::num(
                 fleet::ttftSamples(report, 1).percentile(99.0) *
                     1e3,
                 1),
             TextTable::num(report.p99Ttft * 1e3, 1),
             TextTable::num(report.sloAttainment, 3)});
    }
    prio_table.print();

    banner("Fleet", "lifecycle: drain-migrate off a dead "
                    "replica (round-robin keeps feeding it)");
    fleet::FleetConfig drain_config;
    drain_config.ttftDeadline = 30.0;
    fleet::ReplicaConfig healthy;
    healthy.name = "healthy";
    healthy.system = platform;
    healthy.serving = replicaServing(sweep);
    fleet::ReplicaConfig broken = healthy;
    broken.name = "broken";
    broken.system.numDimms = 0; // Cannot serve the model.
    drain_config.replicas = {healthy, broken};
    TextTable drain_table({"control", "done", "abandoned",
                           "migrations", "KV transfer (ms)"});
    for (const char *name :
         {"round-robin", "round-robin+drain-migrate"}) {
        drain_config.control =
            sched::controlPolicyByName(name);
        fleet::FleetSimulator simulator(drain_config, llm);
        const auto report = simulator.run(
            serving::generateWorkload(prio));
        drain_table.addRow(
            {report.policy, std::to_string(report.completed),
             std::to_string(report.rejected),
             std::to_string(report.kernelStats.migrations),
             TextTable::num(
                 report.kernelStats.kvTransferSeconds * 1e3,
                 3)});
    }
    drain_table.print();
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    const bool smoke =
        args.flag("smoke", "seconds-long CI subset");
    const bool scale = args.flag(
        "scale", "32-replica scale config (replicas=32, "
                 "requests=2000; 200 under --smoke)");
    const bool huge = args.flag(
        "huge", "million-request tier (replicas=1024, "
                "requests=1000000, jsq + steady only; 64 "
                "replicas / 20000 requests under --smoke)");
    const std::string policy_name = args.str(
        "policy", huge ? "jsq" : "all",
        "router policy name, or 'all'");
    const std::string scenario_name = args.str(
        "scenario", huge ? "steady" : "all",
        "arrival scenario name, or 'all'");
    const bool multiturn = scenario_name == "multiturn";
    const bool autoscale = scenario_name == "autoscale";
    const std::uint32_t replicas = args.u32(
        "replicas",
        huge    ? (smoke ? 64 : 1024)
        : scale ? (multiturn ? 64u : 32u)
                : 0,
        "fleet size; 0 sweeps {2, 4}");
    const std::uint32_t default_requests =
        huge      ? (smoke ? 20000 : 1000000)
        : scale   ? (multiturn ? (smoke ? 256u : 10000u)
                               : (smoke ? 200u : 2000u))
        : autoscale ? (smoke ? 128u : 512u)
        : (smoke ? 10 : 48);
    const std::uint32_t requests =
        args.u32("requests", default_requests, "trace length");
    // Same per-replica offered load as --scale (12 req/s over 32
    // replicas), so the huge tier exercises queueing, not idling.
    // Multiturn interprets the rate as session starts (a closed
    // loop: each session re-arrives by itself until it ends), so
    // its default is conversational, not open-loop — 0.3
    // sessions/s per replica, scaled with the fleet at --scale.
    const double rate = args.f64(
        "rate",
        multiturn   ? (scale ? 19.2 : 0.6)
        : huge      ? 384.0
        : autoscale ? 3.0
                    : 12.0,
        "mean arrival rate (req/s; sessions/s for multiturn)");
    const std::uint64_t seed =
        args.u64("seed", 17, "trace seed (full 64-bit range)");
    std::string stealer = args.str(
        "stealer", "none",
        "auxiliary policy composed with the router: "
        "none|greedy-steal|slo-steal|priority-preempt|"
        "drain-migrate");
    const std::string json_path = args.out(
        "json", "write a machine-readable run summary "
                "(events/sec, loop wall time, peak RSS, config) "
                "to this path");
    args.finish();

    if (stealer == "none")
        stealer.clear();
    if (!stealer.empty()) {
        // Validate against the registry itself so new stealing
        // policies work here the day they land; reject routing
        // atoms, which would double-route when composed.
        bool known = true;
        try {
            sched::controlPolicyByName(stealer);
        } catch (const std::invalid_argument &) {
            known = false;
        }
        bool routing = true;
        try {
            sched::routerPolicyByName(stealer);
        } catch (const std::invalid_argument &) {
            routing = false;
        }
        // "affinity" routes but is not a RouterPolicy enum value,
        // so the registry probe above cannot catch it.
        routing = routing || stealer == "affinity";
        if (!known || routing) {
            std::fprintf(stderr,
                         "stealer '%s' is not an auxiliary "
                         "policy (try greedy-steal|slo-steal|"
                         "priority-preempt|drain-migrate)\n",
                         stealer.c_str());
            return 2;
        }
    }

    if (scenario_name == "multiturn") {
        // Multi-turn conversations are a closed loop — a follow-up
        // turn arrives think-time after its predecessor completes —
        // so this scenario gets its own section instead of riding
        // the open-loop sweep: KV-affinity routing against jsq and
        // true-jsq on a uniform fleet, scored on the end-to-end
        // turn latency a conversation actually blocks on.
        const auto llm = model::modelByName("OPT-13B");
        const SystemConfig platform = benchPlatform();
        const auto trace = serving::generateSessionWorkload(
            serving::scenarioByName("multiturn", requests, rate,
                                    seed));
        std::uint64_t continues = 0;
        for (const serving::SessionTurn &turn : trace.turns)
            continues += turn.successor >= 0 ? 1 : 0;

        banner("Fleet", "multiturn: KV-affinity vs jsq on "
                        "conversational sessions, OPT-13B");
        std::printf("%u sessions (%zu turns, %llu follow-ups) at "
                    "%.2f sessions/s\n",
                    requests, trace.turns.size(),
                    static_cast<unsigned long long>(continues),
                    rate);

        std::vector<std::uint32_t> sizes =
            replicas > 0 ? std::vector<std::uint32_t>{replicas}
            : smoke      ? std::vector<std::uint32_t>{2}
                         : std::vector<std::uint32_t>{2, 4};
        serving::ServingConfig serving_config;
        serving_config.maxBatch = 8;
        serving_config.calibrationTokens = 6;
        // The scale tier measures the kernel against fleet-sized
        // conversational traffic; true-jsq adds a third full run
        // without changing the story, so it stays with the base
        // tier.
        const std::vector<const char *> controls =
            scale ? std::vector<const char *>{"jsq", "affinity"}
                  : std::vector<const char *>{"jsq", "true-jsq",
                                              "affinity"};

        const auto run_control =
            [&](std::uint32_t fleet_size, const char *control) {
                return fleet::FleetSimulator(
                           fleet::uniformFleet(
                               fleet_size, platform, serving_config,
                               sched::controlPolicyByName(control),
                               1.5),
                           llm)
                    .run(trace);
            };

        LoopMeter meter;
        TextTable table({"control", "replicas", "done",
                         "continues", "tok/s", "p99 TTFT (ms)",
                         "e2e p50 (s)", "e2e p99 (s)"});
        for (const std::uint32_t fleet_size : sizes) {
            for (const char *control : controls) {
                const auto report =
                    run_control(fleet_size, control);
                meter.add(report);
                const auto latency = fleet::latencySamples(report);
                table.addRow(
                    {report.policy, std::to_string(fleet_size),
                     std::to_string(report.completed),
                     std::to_string(
                         report.kernelStats.events
                             .sessionContinues),
                     TextTable::num(report.throughputTps, 2),
                     TextTable::num(report.p99Ttft * 1e3, 1),
                     TextTable::num(latency.percentile(50.0), 3),
                     TextTable::num(latency.percentile(99.0), 3)});
            }
        }
        table.print();
        meter.print("\nkernel loop");
        std::printf("note: affinity sticks a follow-up to the "
                    "replica still holding its session KV when "
                    "the cached history outweighs the backlog "
                    "gap\n");

        std::string tier = scale ? "multiturn-scale" : "multiturn";
        if (smoke)
            tier += "-smoke";
        const bool json_ok =
            writeRunJson(json_path, tier, sizes.front(), requests,
                         rate, seed, scenario_name, policy_name, meter);

        const bool identical = sameTwice([&] {
            const auto report = run_control(sizes.front(), "affinity");
            return fleetRow(report) + " e2eP99=" +
                   TextTable::num(
                       fleet::latencySamples(report).percentile(99.0),
                       4);
        });
        return identical && json_ok ? 0 : 1;
    }

    if (autoscale) {
        // The SLO-vs-cost frontier: a diurnal day served by fixed
        // fleet sizes bracketing the peak, against the
        // target-backlog scaler starting from one replica.  Fixed
        // sizes pay for their capacity all day; the scaler pays
        // for the peak only while it lasts.  Scored on total
        // replica-seconds and cost per completed request, the
        // autoscaling cost accounting the kernel now tracks.
        const auto llm = model::modelByName("OPT-13B");
        const SystemConfig platform = benchPlatform();
        serving::ScenarioConfig scenario =
            serving::scenarioByName("diurnal", requests, rate,
                                    seed);
        scenario.prompt = {192, 64, 0.05, 3.0};
        scenario.generate = {24, 8, 0.0, 1.0};
        scenario.diurnalPeriodSeconds = 120.0;
        scenario.diurnalDepth = 0.9;
        const auto trace = serving::generateWorkload(scenario);
        const Seconds deadline = 10.0;

        banner("Fleet", "autoscale: target-backlog scaler vs "
                        "fixed fleet sizes, diurnal day, OPT-13B");
        std::printf("%u requests at %.1f req/s mean (period %.0fs, "
                    "depth %.1f); deadline: TTFT <= %.1fs\n",
                    requests, rate,
                    scenario.diurnalPeriodSeconds,
                    scenario.diurnalDepth, deadline);

        serving::ServingConfig serving_config;
        serving_config.maxBatch = 8;
        serving_config.calibrationTokens = 6;
        const auto run_fixed = [&](std::uint32_t fleet_size) {
            return fleet::FleetSimulator(
                       fleet::uniformFleet(
                           fleet_size, platform, serving_config,
                           sched::controlPolicyByName("true-jsq"),
                           deadline),
                       llm)
                .run(trace);
        };
        const auto run_scaled = [&] {
            return fleet::FleetSimulator(
                       fleet::uniformFleet(
                           1, platform, serving_config,
                           sched::composeControlPolicies(
                               {sched::controlPolicyByName(
                                    "true-jsq"),
                                sched::makeTargetBacklogPolicy()}),
                           deadline),
                       llm)
                .run(trace);
        };

        LoopMeter meter;
        TextTable table({"config", "done", "spawned", "retired",
                         "replica-s", "cost/req (s)",
                         "p99 TTFT (ms)", "SLO att."});
        const auto add_row = [&](const std::string &label,
                                 const fleet::FleetReport &report) {
            meter.add(report);
            table.addRow(
                {label, std::to_string(report.completed),
                 std::to_string(
                     report.kernelStats.spawnedReplicas),
                 std::to_string(
                     report.kernelStats.retiredReplicas),
                 TextTable::num(report.replicaSeconds, 1),
                 TextTable::num(report.costPerRequest, 3),
                 TextTable::num(report.p99Ttft * 1e3, 1),
                 TextTable::num(report.sloAttainment, 3)});
        };
        const std::vector<std::uint32_t> sizes =
            smoke ? std::vector<std::uint32_t>{1, 2}
                  : std::vector<std::uint32_t>{1, 2, 3, 4};
        for (const std::uint32_t fleet_size : sizes)
            add_row("fixed-" + std::to_string(fleet_size),
                    run_fixed(fleet_size));
        const auto scaled = run_scaled();
        add_row("scaler", scaled);
        table.print();
        meter.print("\nkernel loop");
        std::printf("note: the scaler provisions replicas against "
                    "backlog/(sustained rate x deadline) with "
                    "hysteresis and a spawn cooldown; replica-s "
                    "bills each replica from activation to "
                    "retirement\n");

        const bool json_ok = writeRunJson(
            json_path, smoke ? "autoscale-smoke" : "autoscale", 1,
            requests, rate, seed, scenario_name,
            "true-jsq+target-backlog", meter, [&](JsonObject &json) {
                // The autoscaling cost accounting: what the scaler
                // run actually paid, so the frontier point is
                // machine-readable alongside the kernel throughput.
                json.setF64("replica_seconds", scaled.replicaSeconds);
                json.setF64("cost_per_request", scaled.costPerRequest);
                json.setU64("spawned_replicas",
                            scaled.kernelStats.spawnedReplicas);
                json.setU64("retired_replicas",
                            scaled.kernelStats.retiredReplicas);
            });

        const bool identical = sameTwice([&] {
            const auto report = run_scaled();
            return fleetRow(report) + " rs=" +
                   TextTable::num(report.replicaSeconds, 4) +
                   " cost=" + TextTable::num(report.costPerRequest, 6);
        });
        return identical && json_ok ? 0 : 1;
    }

    Sweep sweep;
    sweep.stealer = stealer;
    if (policy_name == "all") {
        sweep.policies = sched::allRouterPolicies();
        if (smoke)
            sweep.policies = {sched::RouterPolicy::RoundRobin,
                              sched::RouterPolicy::JoinShortestQueue,
                              sched::RouterPolicy::TrueJsq};
    } else {
        sweep.policies = {sched::routerPolicyByName(policy_name)};
    }
    sweep.fleetSizes = replicas > 0
                           ? std::vector<std::uint32_t>{replicas}
                           : std::vector<std::uint32_t>{2, 4};
    if (smoke && replicas == 0)
        sweep.fleetSizes = {2};
    if (scale && policy_name == "all" && !smoke) {
        // The scale config measures the kernel loop, not the whole
        // policy matrix: one estimate and one feedback policy.
        sweep.policies = {sched::RouterPolicy::JoinShortestQueue,
                          sched::RouterPolicy::TrueJsq};
    }
    sweep.scenarios = scenarios(
        smoke && scenario_name == "all" ? "bursty" : scenario_name,
        requests, rate, seed);

    const auto llm = model::modelByName("OPT-13B");
    const SystemConfig platform = benchPlatform();

    banner("Fleet", "policy x scenario x replicas, OPT-13B");
    std::printf("stealer: %s; deadline: TTFT <= %.2fs; "
                "%u requests at %.1f req/s\n",
                sweep.stealer.empty() ? "none"
                                      : sweep.stealer.c_str(),
                sweep.ttftDeadline, requests, rate);

    LoopMeter meter;
    TextTable table({"policy", "replicas", "scenario", "done", "rej",
                     "shed", "steals", "tok/s", "p99 TTFT (ms)",
                     "SLO att."});
    for (const sched::RouterPolicy policy : sweep.policies) {
        for (const std::uint32_t fleet_size : sweep.fleetSizes) {
            // One fleet per (policy, size): replica cost caches are
            // shared across the scenario sweep.
            fleet::FleetSimulator simulator(
                fleetConfig(sweep, platform, fleet_size, policy),
                llm);
            for (const auto &scenario : sweep.scenarios) {
                const auto report = simulator.run(
                    serving::generateWorkload(scenario));
                meter.add(report);
                table.addRow(
                    {report.policy, std::to_string(fleet_size),
                     scenario.name,
                     std::to_string(report.completed),
                     std::to_string(report.rejected),
                     std::to_string(report.shed),
                     std::to_string(
                         report.kernelStats.stolenRequests),
                     TextTable::num(report.throughputTps, 2),
                     TextTable::num(report.p99Ttft * 1e3, 1),
                     TextTable::num(report.sloAttainment, 3)});
            }
        }
    }
    table.print();
    // Loop wall time includes any cold cost-cache misses hit at
    // replica boundaries; re-runs over a warmed fleet approach the
    // pure control-plane + bookkeeping cost.
    meter.print("\nkernel loop");
    std::printf(
        "note: slo-aware sheds requests whose estimated TTFT "
        "misses the deadline;\ntrue-jsq/least-backlog route on "
        "observed replica state at the arrival event\n");

    std::string tier = huge ? "huge" : (scale ? "scale" : "default");
    if (smoke)
        tier += "-smoke";
    const bool json_ok =
        writeRunJson(json_path, tier, sweep.fleetSizes.front(),
                     requests, rate, seed, scenario_name, policy_name,
                     meter);
    if (huge) {
        // The huge tier exists to prove the kernel completes a
        // million-request fleet; the policy-comparison sections
        // and the double-run determinism check stay with --scale.
        return json_ok ? 0 : 1;
    }
    compareLifecycle(sweep, platform, llm, requests);

    const auto scenario = sweep.scenarios.back();
    const sched::RouterPolicy check_policy = sweep.policies.front();
    const bool identical = sameTwice([&] {
        fleet::FleetSimulator simulator(
            fleetConfig(sweep, platform, sweep.fleetSizes.front(),
                        check_policy),
            llm);
        return fleetRow(
            simulator.run(serving::generateWorkload(scenario)));
    });
    return identical && json_ok ? 0 : 1;
}
