/**
 * @file
 * Walkthrough of the fleet + workload + control-plane APIs (README
 * "Fleet serving" and "Writing a control policy").
 *
 * Builds a heterogeneous fleet — two default replicas running Hermes
 * plus one budget replica (half the DIMM pool) running Hermes-base —
 * generates a bursty scenario, and serves it on the event-driven
 * co-simulation kernel under several control policies: built-ins
 * from the registry (routing, composed with work stealing) and a
 * custom policy written right here, which is the point of the API.
 */

#include <cstdio>
#include <memory>

#include "common/table.hh"
#include "core/fleet.hh"
#include "core/hermes.hh"
#include "core/workload.hh"

using namespace hermes;

namespace {

/**
 * A custom control policy no enum ever offered: long generations go
 * to the replica with the fastest calibrated decode, short ones
 * round-robin across the rest.  Subscribes to nothing beyond
 * arrivals, so the kernel skips every optional hook and keeps no
 * change list; it reads the calibrated models through the view.
 */
class LongToFastestPolicy final : public sched::ControlPolicy
{
  public:
    std::string name() const override { return "long-to-fastest"; }

    void begin() override { next_ = 0; }

    void onArrival(const sched::ArrivalContext &context,
                   const sched::FleetView &view,
                   sched::FleetActions &actions) override
    {
        std::uint32_t fastest = 0;
        for (std::uint32_t r = 1; r < view.replicaCount(); ++r) {
            if (view.model(r).slotTokensPerSecond >
                view.model(fastest).slotTokensPerSecond)
                fastest = r;
        }
        if (context.generateTokens >= 24 ||
            view.replicaCount() <= 1) {
            actions.routeTo(fastest);
            return;
        }
        // Round-robin over the other replicas.
        std::uint32_t replica = next_++ % (view.replicaCount() - 1);
        if (replica >= fastest)
            ++replica;
        actions.routeTo(replica);
    }

  private:
    std::uint32_t next_ = 0;
};

} // namespace

int
main()
{
    const auto llm = model::modelByName("OPT-66B");

    // 1. Describe the traffic: a bursty trace, reproducible by seed.
    serving::ScenarioConfig scenario =
        serving::scenarioByName("bursty", /*requests=*/36,
                                /*rate_per_second=*/6.0,
                                /*seed=*/42);
    scenario.prompt = {128, 64, 0.0, 1.0};
    scenario.generate = {16, 8, 0.0, 1.0};
    // A quarter of the traffic is high priority: it jumps the
    // admission queue on every replica, and the priority-preempt
    // lifecycle policy additionally evicts low-priority running
    // work for it when its TTFT deadline is at risk.
    scenario.highPriorityFraction = 0.25;
    const auto workload = serving::generateWorkload(scenario);
    std::printf("scenario '%s': %zu requests, first at %.2fs, "
                "last at %.2fs\n",
                scenario.name.c_str(), workload.size(),
                workload.front().arrival,
                workload.back().arrival);

    // 2. Describe the fleet: heterogeneous tiers behind one router.
    fleet::FleetConfig config;
    config.ttftDeadline = 6.0;
    for (int i = 0; i < 2; ++i) {
        fleet::ReplicaConfig replica;
        replica.name = "hermes-" + std::to_string(i);
        replica.system = runtime::platformPreset("default", 6);
        replica.serving.engine = runtime::EngineKind::Hermes;
        replica.serving.maxBatch = 4;
        replica.serving.calibrationTokens = 6;
        config.replicas.push_back(replica);
    }
    {
        fleet::ReplicaConfig replica;
        replica.name = "budget";
        replica.system = runtime::platformPreset("budget", 6);
        replica.serving.engine = runtime::EngineKind::HermesBase;
        replica.serving.maxBatch = 4;
        replica.serving.calibrationTokens = 6;
        config.replicas.push_back(replica);
    }

    // 3. Pick a control plane per run.  Built-ins come from the
    //    registry by name — "a+b" composes a routing policy with a
    //    stealing policy — and a custom policy is just an object:
    //    the kernel owns physics, the policy owns decisions, and
    //    every decision happens at an event on the shared clock.
    TextTable table({"control", "done", "shed", "steals",
                     "preempts", "tok/s", "hi-pri p99 TTFT (ms)",
                     "p99 TTFT (ms)", "SLO att.", "per-replica"});
    std::vector<std::shared_ptr<sched::ControlPolicy>> controls = {
        sched::controlPolicyByName("round-robin"),
        sched::controlPolicyByName("round-robin+greedy-steal"),
        sched::controlPolicyByName("round-robin+slo-steal"),
        sched::controlPolicyByName("least-backlog"),
        sched::controlPolicyByName("least-backlog+priority-preempt"),
        std::make_shared<LongToFastestPolicy>(),
    };
    for (const auto &control : controls) {
        config.control = control;
        fleet::FleetSimulator simulator(config, llm);
        const auto report = simulator.run(workload);

        std::string spread;
        for (std::size_t r = 0;
             r < report.replicaReports.size(); ++r) {
            spread += report.replicaNames[r] + ":" +
                      std::to_string(
                          report.replicaReports[r].completed) +
                      " ";
        }
        table.addRow({report.policy,
                      std::to_string(report.completed),
                      std::to_string(report.shed),
                      std::to_string(
                          report.kernelStats.stolenRequests),
                      std::to_string(
                          report.kernelStats.preemptions),
                      TextTable::num(report.throughputTps, 2),
                      TextTable::num(
                          fleet::ttftSamples(report, 1).percentile(
                              99.0) *
                              1e3,
                          1),
                      TextTable::num(report.p99Ttft * 1e3, 1),
                      TextTable::num(report.sloAttainment, 3),
                      spread});
    }
    table.print();
    std::printf(
        "\nleast-backlog *observes* the budget replica's slower "
        "drain at each arrival event;\ngreedy-steal lets the "
        "Hermes tier drain whatever round-robin strands on the "
        "budget tier,\nslo-steal only when the move beats the "
        "victim's estimated wait; priority-preempt evicts\n"
        "low-priority running work when a high-priority request "
        "would miss its deadline\n(the victim resumes with its KV "
        "retained); long-to-fastest is a custom policy\nwritten "
        "in this example — see README \"Writing a control "
        "policy\"\n");

    // 4. Traces round-trip through CSV for replay.
    const std::string csv = serving::toCsvTrace(workload);
    serving::ScenarioConfig replay;
    replay.process = serving::ArrivalProcess::Replay;
    replay.replayCsv = csv;
    std::printf("replayed %zu requests from CSV\n",
                serving::generateWorkload(replay).size());
    return 0;
}
