/**
 * @file
 * Fleet serving tests: router policies, replica aggregation
 * invariants, heterogeneous fleets, and seed-for-seed determinism.
 */

#include <array>
#include <bit>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/fleet.hh"
#include "core/hermes.hh"
#include "core/workload.hh"

namespace hermes::fleet {
namespace {

serving::ServingConfig
fastServing(std::uint32_t max_batch = 4)
{
    serving::ServingConfig config;
    config.maxBatch = max_batch;
    config.calibrationTokens = 4;
    return config;
}

std::vector<serving::ServedRequest>
smallTrace(std::uint32_t requests = 12, double rate = 8.0,
           std::uint64_t seed = 9)
{
    serving::ScenarioConfig scenario;
    scenario.process = serving::ArrivalProcess::Poisson;
    scenario.requests = requests;
    scenario.ratePerSecond = rate;
    scenario.prompt = {64, 16, 0.0, 1.0};
    scenario.generate = {8, 4, 0.0, 1.0};
    scenario.seed = seed;
    return serving::generateWorkload(scenario);
}

FleetSimulator
uniformSimulator(std::uint32_t replicas, sched::RouterPolicy policy,
                 Seconds deadline = 30.0)
{
    return FleetSimulator(
        uniformFleet(replicas, fastConfig(4), fastServing(),
                     sched::makeRouterPolicy(policy), deadline),
        model::opt13b());
}

/** The per-request / aggregate invariants every run must satisfy. */
void
checkReportInvariants(const FleetReport &report,
                      std::size_t trace_size)
{
    EXPECT_EQ(report.requests.size(), trace_size);
    EXPECT_EQ(report.assignment.size(), trace_size);

    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    for (std::size_t i = 0; i < report.requests.size(); ++i) {
        const serving::RequestMetrics &request =
            report.requests[i];
        if (request.rejected) {
            ++rejected;
            // Rejected (or shed) => no lifecycle timestamps.
            EXPECT_DOUBLE_EQ(request.admitted, 0.0);
            EXPECT_DOUBLE_EQ(request.firstToken, 0.0);
            EXPECT_DOUBLE_EQ(request.completed, 0.0);
            EXPECT_EQ(request.tokens, 0u);
        } else {
            ++completed;
            EXPECT_LE(request.arrival, request.admitted);
            EXPECT_LE(request.admitted, request.firstToken);
            EXPECT_LE(request.firstToken, request.completed);
            EXPECT_GE(report.assignment[i], 0);
        }
        if (report.assignment[i] < 0) {
            EXPECT_TRUE(request.rejected);
        }
    }
    EXPECT_EQ(report.completed, completed);
    EXPECT_EQ(report.rejected, rejected);
    EXPECT_EQ(report.completed + report.rejected, trace_size);
    EXPECT_LE(report.shed, report.rejected);

    // Fleet aggregates are exactly the replica aggregates.
    double throughput = 0.0;
    Seconds makespan = 0.0;
    std::uint64_t replica_completed = 0;
    for (const serving::ServingReport &replica :
         report.replicaReports) {
        throughput += replica.throughputTps;
        makespan = std::max(makespan, replica.makespan);
        replica_completed += replica.completed;
    }
    EXPECT_DOUBLE_EQ(report.throughputTps, throughput);
    EXPECT_DOUBLE_EQ(report.makespan, makespan);
    EXPECT_EQ(report.completed, replica_completed);

    // Every row lives once, in report.requests: the replica
    // reports carry aggregates only.
    for (const serving::ServingReport &replica :
         report.replicaReports)
        EXPECT_TRUE(replica.requests.empty());
}

/** Replica `replica`'s rows: the fleet rows assigned to it. */
std::vector<serving::RequestMetrics>
rowsOf(const FleetReport &report, int replica)
{
    std::vector<serving::RequestMetrics> rows;
    for (std::size_t i = 0; i < report.requests.size(); ++i) {
        if (report.assignment[i] == replica)
            rows.push_back(report.requests[i]);
    }
    return rows;
}

TEST(Fleet, InvariantsHoldForEveryPolicy)
{
    const auto trace = smallTrace();
    for (const sched::RouterPolicy policy :
         sched::allRouterPolicies()) {
        auto simulator = uniformSimulator(2, policy);
        const auto report = simulator.run(trace);
        checkReportInvariants(report, trace.size());
        EXPECT_EQ(report.policy,
                  sched::routerPolicyName(policy));
        EXPECT_GT(report.throughputTps, 0.0);
    }
}

TEST(Fleet, SameSeedSameFleetIdenticalReport)
{
    const auto trace = smallTrace();
    auto a = uniformSimulator(
                 2, sched::RouterPolicy::JoinShortestQueue)
                 .run(trace);
    auto b = uniformSimulator(
                 2, sched::RouterPolicy::JoinShortestQueue)
                 .run(trace);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_DOUBLE_EQ(a.throughputTps, b.throughputTps);
    EXPECT_DOUBLE_EQ(a.p50Ttft, b.p50Ttft);
    EXPECT_DOUBLE_EQ(a.p99Ttft, b.p99Ttft);
    EXPECT_DOUBLE_EQ(a.sloAttainment, b.sloAttainment);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.requests[i].admitted,
                         b.requests[i].admitted);
        EXPECT_DOUBLE_EQ(a.requests[i].firstToken,
                         b.requests[i].firstToken);
        EXPECT_DOUBLE_EQ(a.requests[i].completed,
                         b.requests[i].completed);
    }
}

TEST(Fleet, RoundRobinInterleavesInArrivalOrder)
{
    const auto trace = smallTrace();
    auto simulator =
        uniformSimulator(3, sched::RouterPolicy::RoundRobin);
    const auto report = simulator.run(trace);
    for (std::size_t i = 0; i < report.assignment.size(); ++i)
        EXPECT_EQ(report.assignment[i],
                  static_cast<int>(i % 3));
}

TEST(Fleet, JsqSpreadsASimultaneousBurstEvenly)
{
    // All requests arrive at t = 0: queue depths tick up one by one,
    // so the burst must split evenly across identical replicas.
    auto trace = smallTrace(12, 8.0, 9);
    for (auto &request : trace)
        request.arrival = 0.0;
    auto simulator = uniformSimulator(
        2, sched::RouterPolicy::JoinShortestQueue);
    const auto report = simulator.run(trace);
    std::array<int, 2> counts{0, 0};
    for (const int replica : report.assignment)
        ++counts[static_cast<std::size_t>(replica)];
    EXPECT_EQ(counts[0], counts[1]);
}

TEST(Fleet, MoreReplicasNoWorseThroughput)
{
    const auto trace = smallTrace(16, 16.0, 5);
    auto one =
        uniformSimulator(1, sched::RouterPolicy::RoundRobin);
    auto four =
        uniformSimulator(4, sched::RouterPolicy::RoundRobin);
    const auto report1 = one.run(trace);
    const auto report4 = four.run(trace);
    EXPECT_GT(report4.throughputTps, report1.throughputTps);
    EXPECT_LE(report4.makespan, report1.makespan);
}

TEST(Fleet, StateAwarePoliciesStarveADeadReplica)
{
    // Replica 1 cannot serve the model at all (no NDP-DIMM pool).
    FleetConfig config;
    config.ttftDeadline = 60.0;
    ReplicaConfig healthy;
    healthy.system = fastConfig(4);
    healthy.serving = fastServing();
    ReplicaConfig dead = healthy;
    dead.system.numDimms = 0;
    config.replicas = {healthy, dead};

    const auto trace = smallTrace();

    // SLO-aware estimates the dead replica's TTFT as effectively
    // infinite and never picks it: everything is served.
    config.control = sched::controlPolicyByName("slo-aware");
    {
        FleetSimulator simulator(config, model::opt13b());
        const auto report = simulator.run(trace);
        EXPECT_EQ(report.replicaReports[1].completed, 0u);
        EXPECT_EQ(report.rejected, 0u);
        EXPECT_EQ(report.completed, trace.size());
    }

    // Least-outstanding-tokens is speed-blind by design, but the
    // dead replica's backlog never drains, so the router backs off
    // after a few requests instead of splitting the trace evenly.
    config.control = sched::controlPolicyByName("least-tokens");
    {
        FleetSimulator simulator(config, model::opt13b());
        const auto report = simulator.run(trace);
        const std::uint64_t routed_to_dead =
            rowsOf(report, 1).size();
        EXPECT_LT(routed_to_dead, trace.size() / 2);
        EXPECT_EQ(report.rejected, routed_to_dead);
        EXPECT_EQ(report.completed,
                  trace.size() - routed_to_dead);
    }
}

TEST(Fleet, SloAwareShedsWhenOverloadedAndProtectsTail)
{
    // One slot, long generations, simultaneous burst: most requests
    // cannot meet a tight deadline and must be shed at the router.
    serving::ServingConfig serving = fastServing(1);
    const auto trace = [] {
        auto t = smallTrace(10, 8.0, 9);
        for (auto &request : t) {
            request.arrival = 0.0;
            request.generateTokens = 16;
        }
        return t;
    }();
    FleetSimulator strict(
        uniformFleet(1, fastConfig(4), serving,
                     sched::controlPolicyByName("slo-aware"),
                     /*ttft_deadline=*/1.0),
        model::opt13b());
    const auto report = strict.run(trace);
    checkReportInvariants(report, trace.size());
    EXPECT_GT(report.shed, 0u);
    EXPECT_GT(report.completed, 0u);
    // Everything actually served met a TTFT no worse than a fleet
    // that admits everything.
    FleetSimulator lax(
        uniformFleet(1, fastConfig(4), serving,
                     sched::controlPolicyByName("round-robin"),
                     /*ttft_deadline=*/1.0),
        model::opt13b());
    const auto admit_all = lax.run(trace);
    EXPECT_LT(report.p99Ttft, admit_all.p99Ttft);
}

TEST(Fleet, NamesRoundTripThroughTheFactories)
{
    // The fleet layer is configured by name (CLI sweeps, CSV-driven
    // experiments): pin the name <-> enum round trips.
    for (const sched::RouterPolicy policy :
         sched::allRouterPolicies())
        EXPECT_EQ(sched::routerPolicyByName(
                      sched::routerPolicyName(policy)),
                  policy);
    EXPECT_THROW(sched::routerPolicyByName("fifo"),
                 std::invalid_argument);

    for (const runtime::EngineKind kind :
         runtime::allEngineKinds())
        EXPECT_EQ(runtime::engineKindByName(
                      runtime::engineKindName(kind)),
                  kind);
    EXPECT_THROW(runtime::engineKindByName("vLLM"),
                 std::invalid_argument);

    const auto presets = runtime::platformPresetNames();
    ASSERT_EQ(presets.size(), 3u);
    for (const std::string &name : presets) {
        const auto config = runtime::platformPreset(name, 4);
        EXPECT_GT(config.numDimms, 0u) << name;
        EXPECT_EQ(config.simulatedLayers, 4u);
    }
    EXPECT_LT(runtime::platformPreset("budget").numDimms,
              runtime::platformPreset("scaled").numDimms);
    EXPECT_THROW(runtime::platformPreset("mainframe"),
                 std::invalid_argument);
}

TEST(Fleet, EmptyWorkloadYieldsEmptyReport)
{
    auto simulator =
        uniformSimulator(2, sched::RouterPolicy::SloAware);
    const auto report =
        simulator.run(std::vector<serving::ServedRequest>{});
    EXPECT_EQ(report.completed, 0u);
    EXPECT_EQ(report.rejected, 0u);
    EXPECT_DOUBLE_EQ(report.sloAttainment, 1.0);
    EXPECT_DOUBLE_EQ(report.throughputTps, 0.0);
}

/** Compare two fleet reports field by field, exactly. */
void
expectIdenticalReports(const FleetReport &a, const FleetReport &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_DOUBLE_EQ(a.throughputTps, b.throughputTps);
    EXPECT_DOUBLE_EQ(a.p50Ttft, b.p50Ttft);
    EXPECT_DOUBLE_EQ(a.p99Ttft, b.p99Ttft);
    EXPECT_DOUBLE_EQ(a.sloAttainment, b.sloAttainment);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].id, b.requests[i].id);
        EXPECT_EQ(a.requests[i].rejected, b.requests[i].rejected);
        EXPECT_EQ(a.requests[i].tokens, b.requests[i].tokens);
        EXPECT_DOUBLE_EQ(a.requests[i].admitted,
                         b.requests[i].admitted);
        EXPECT_DOUBLE_EQ(a.requests[i].firstToken,
                         b.requests[i].firstToken);
        EXPECT_DOUBLE_EQ(a.requests[i].completed,
                         b.requests[i].completed);
    }
}

TEST(EventKernel, MatchesIsolatedReplayOnEveryEstimatePolicy)
{
    // The differential reference: an estimate-based policy never
    // reads replica state, so splitting the trace by the event
    // run's final assignment and replaying each replica's share on
    // a fresh, isolated ServingSimulator must reproduce every
    // per-request metric exactly — each replica's boundary
    // arithmetic is the same float sequence, merely interleaved on
    // the shared clock.
    for (const auto policy :
         {sched::RouterPolicy::RoundRobin,
          sched::RouterPolicy::JoinShortestQueue,
          sched::RouterPolicy::LeastOutstandingTokens,
          sched::RouterPolicy::SloAware}) {
        for (const double rate : {8.0, 64.0}) {
            const auto trace = smallTrace(14, rate, 9);
            const auto report =
                FleetSimulator(
                    uniformFleet(2, fastConfig(4), fastServing(),
                                 sched::makeRouterPolicy(policy),
                                 /*ttft_deadline=*/1.5),
                    model::opt13b())
                    .run(trace);
            checkReportInvariants(report, trace.size());

            // report.requests and assignment are in arrival order;
            // smallTrace is generated in arrival order too.
            std::vector<std::vector<serving::ServedRequest>> shares(2);
            for (std::size_t i = 0; i < trace.size(); ++i) {
                ASSERT_EQ(report.requests[i].id, trace[i].id);
                if (report.assignment[i] >= 0)
                    shares[static_cast<std::size_t>(
                               report.assignment[i])]
                        .push_back(trace[i]);
            }
            for (std::size_t r = 0; r < shares.size(); ++r) {
                const serving::ServingReport isolated =
                    serving::ServingSimulator(fastConfig(4),
                                              model::opt13b(),
                                              fastServing())
                        .run(shares[r]);
                ASSERT_EQ(isolated.requests.size(),
                          shares[r].size());
                for (const serving::RequestMetrics &expected :
                     isolated.requests) {
                    std::size_t i = 0;
                    while (i < trace.size() &&
                           report.requests[i].id != expected.id)
                        ++i;
                    ASSERT_LT(i, trace.size());
                    const serving::RequestMetrics &actual =
                        report.requests[i];
                    EXPECT_EQ(report.assignment[i],
                              static_cast<int>(r));
                    EXPECT_EQ(actual.rejected, expected.rejected);
                    EXPECT_EQ(actual.tokens, expected.tokens);
                    EXPECT_DOUBLE_EQ(actual.arrival,
                                     expected.arrival);
                    EXPECT_DOUBLE_EQ(actual.admitted,
                                     expected.admitted);
                    EXPECT_DOUBLE_EQ(actual.firstToken,
                                     expected.firstToken);
                    EXPECT_DOUBLE_EQ(actual.completed,
                                     expected.completed);
                }
            }
        }
    }
}

TEST(EventKernel, TiedTimestampsAreDeterministic)
{
    // Pile arrivals onto identical instants so every tie-break in
    // the event order is exercised; two fresh fleets must agree on
    // everything, including the kernel's own event counts.
    auto trace = smallTrace(16, 8.0, 9);
    for (std::size_t i = 0; i < trace.size(); ++i)
        trace[i].arrival =
            static_cast<double>(i / 4) * 0.05;
    FleetConfig config = uniformFleet(
        3, fastConfig(4), fastServing(),
        sched::controlPolicyByName("true-jsq+greedy-steal"), /*ttft_deadline=*/30.0);

    const auto a =
        FleetSimulator(config, model::opt13b()).run(trace);
    const auto b =
        FleetSimulator(config, model::opt13b()).run(trace);
    expectIdenticalReports(a, b);
    EXPECT_EQ(a.kernelStats.events.popped(),
              b.kernelStats.events.popped());
    EXPECT_EQ(a.kernelStats.steals, b.kernelStats.steals);
    EXPECT_EQ(a.kernelStats.stolenRequests,
              b.kernelStats.stolenRequests);
    EXPECT_EQ(a.kernelStats.events.arrivals, trace.size());
    EXPECT_EQ(a.kernelStats.events.requestsDone, a.completed);
    checkReportInvariants(a, trace.size());
}

TEST(EventKernel, FeedbackPoliciesBeatEstimateJsqOnBurstyTail)
{
    // Under a hard burst the estimate drifts from ground truth;
    // routing on observed state at the arrival event must win on
    // the TTFT tail.  Scenario chosen (and pinned by determinism)
    // so both feedback policies beat the estimate JSQ.
    serving::ScenarioConfig scenario;
    scenario.process = serving::ArrivalProcess::Bursty;
    scenario.requests = 40;
    scenario.ratePerSecond = 16.0;
    scenario.burstiness = 8.0;
    scenario.prompt = {96, 32, 0.0, 1.0};
    scenario.generate = {16, 8, 0.0, 1.0};
    scenario.seed = 5;
    const auto trace = serving::generateWorkload(scenario);

    const auto run = [&](sched::RouterPolicy policy) {
        return uniformSimulator(2, policy, 30.0).run(trace);
    };
    const auto estimate =
        run(sched::RouterPolicy::JoinShortestQueue);
    const auto true_jsq = run(sched::RouterPolicy::TrueJsq);
    const auto least_backlog =
        run(sched::RouterPolicy::LeastActualBacklog);
    EXPECT_EQ(estimate.completed, trace.size());
    EXPECT_EQ(true_jsq.completed, trace.size());
    EXPECT_EQ(least_backlog.completed, trace.size());
    EXPECT_LT(true_jsq.p99Ttft, estimate.p99Ttft);
    EXPECT_LT(least_backlog.p99Ttft, estimate.p99Ttft);
}

TEST(EventKernel, ReplicaAndFleetPercentilesArePinnedBitwise)
{
    // A bursty 2-replica fleet whose batches reach 6: each replica
    // decodes at two step costs (batch buckets 4 and 8).
    serving::ScenarioConfig scenario;
    scenario.process = serving::ArrivalProcess::Bursty;
    scenario.requests = 40;
    scenario.ratePerSecond = 4.0;
    scenario.burstiness = 8.0;
    scenario.prompt = {96, 32, 0.0, 1.0};
    scenario.generate = {16, 8, 0.0, 1.0};
    scenario.seed = 5;
    const auto trace = serving::generateWorkload(scenario);
    const auto report =
        FleetSimulator(uniformFleet(2, fastConfig(4), fastServing(8),
                                    sched::makeRouterPolicy(
                                        sched::RouterPolicy::TrueJsq),
                                    30.0),
                       model::opt13b())
            .run(trace);
    const auto bits = [](Seconds value) {
        return std::bit_cast<std::uint64_t>(value);
    };
    ASSERT_EQ(report.replicaReports.size(), 2u);
    const std::array<std::uint64_t, 2> p50_ttft{0x3fe1c04f28684838ull,
                                                0x3fe4b90cad8b04e2ull};
    const std::array<std::uint64_t, 2> p99_ttft{0x3feb66e4e0fa6e7bull,
                                                0x3feb5817900096fbull};
    for (std::size_t r = 0; r < 2; ++r) {
        const serving::ServingReport &replica =
            report.replicaReports[r];
        EXPECT_EQ(replica.peakBatch, 6u);
        EXPECT_EQ(bits(replica.p50TokenLatency), 0x3f8914aa695cb289ull);
        EXPECT_EQ(bits(replica.p90TokenLatency), 0x3f91b76d04e2ca0bull);
        EXPECT_EQ(bits(replica.p99TokenLatency), 0x3f91b76d04e2ca0bull);
        EXPECT_EQ(bits(replica.p50Ttft), p50_ttft[r]);
        EXPECT_EQ(bits(replica.p99Ttft), p99_ttft[r]);
    }
    EXPECT_EQ(bits(report.p50Ttft), 0x3fe2d42bdcbe1b92ull);
    EXPECT_EQ(bits(report.p99Ttft), 0x3feb6817e0a7a810ull);
    EXPECT_EQ(bits(ttftSamples(report).percentile(90.0)),
              0x3feb099560247840ull);
    const serving::SortedSamples latency = latencySamples(report);
    EXPECT_EQ(bits(latency.percentile(50.0)), 0x3feff4a51dabae18ull);
    EXPECT_EQ(bits(latency.percentile(99.0)), 0x3ff8934382388b3dull);
}

TEST(EventKernel, MissingControlPlaneThrows)
{
    FleetConfig config = uniformFleet(2, fastConfig(4), fastServing(),
                                      nullptr, 30.0);
    EXPECT_THROW(FleetSimulator(config, model::opt13b()),
                 std::invalid_argument);
}

TEST(EventKernel, DuplicateRequestIdsAreRejected)
{
    // The report merge joins replica rows by request id; a
    // duplicate would make the join ambiguous, so it is an error.
    auto trace = smallTrace();
    trace[3].id = trace[7].id;
    auto simulator =
        uniformSimulator(2, sched::RouterPolicy::RoundRobin);
    EXPECT_THROW(simulator.run(trace), std::invalid_argument);
}

TEST(EventKernel, BadArrivalTimesThrowInsteadOfAborting)
{
    // A negative or NaN arrival used to reach the event queue's
    // virtual-past panic, and an infinite one "completed" with an
    // infinite makespan; all three raise before any sort.
    auto simulator =
        uniformSimulator(2, sched::RouterPolicy::RoundRobin);
    for (const double bad :
         {-1.0, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        auto trace = smallTrace();
        trace[5].arrival = bad;
        try {
            simulator.run(trace);
            ADD_FAILURE() << "arrival " << bad << " was accepted";
        } catch (const std::invalid_argument &error) {
            const std::string named =
                "request " + std::to_string(trace[5].id) + ":";
            EXPECT_NE(std::string(error.what()).find(named),
                      std::string::npos)
                << error.what();
        }
    }
}

TEST(WorkStealing, RescuesRequestsStrandedOnADeadReplica)
{
    // Replica 1 cannot serve the model; round-robin keeps routing
    // to it anyway.  With the stealing hook, replica 0 drains the
    // stranded queue whenever it runs dry, so *everything* is
    // served.
    FleetConfig config;
    config.ttftDeadline = 60.0;
    ReplicaConfig healthy;
    healthy.system = fastConfig(4);
    healthy.serving = fastServing();
    ReplicaConfig dead = healthy;
    dead.system.numDimms = 0;
    config.replicas = {healthy, dead};

    const auto trace = smallTrace();

    config.control = sched::controlPolicyByName("round-robin");
    const auto stranded =
        FleetSimulator(config, model::opt13b()).run(trace);
    EXPECT_EQ(stranded.rejected, trace.size() / 2);

    config.control =
        sched::controlPolicyByName("round-robin+greedy-steal");
    const auto rescued =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(rescued, trace.size());
    EXPECT_EQ(rescued.completed, trace.size());
    EXPECT_EQ(rescued.rejected, 0u);
    EXPECT_EQ(rescued.replicaReports[1].completed, 0u);
    EXPECT_GE(rescued.kernelStats.stolenRequests,
              trace.size() / 2);
    // Every stolen request ends the run assigned to the thief.
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(rescued.assignment[i], 0);
}

TEST(WorkStealing, SimultaneousThievesResolveDeterministically)
{
    // Three single-slot replicas, nine simultaneous arrivals under
    // round-robin.  Replicas 0 and 2 get one-token requests and
    // drain at the exact same instant; replica 1's long request
    // leaves two queued behind it.  The tie resolves in replica
    // order: r0 steals first (taking the newest, id 7), then r2
    // (id 4) — pinned here, and stable across reruns.
    auto trace = smallTrace(9, 8.0, 9);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].arrival = 0.0;
        trace[i].promptTokens = 64;
        trace[i].generateTokens = i % 3 == 1 ? 200 : 1;
    }
    FleetConfig config = uniformFleet(
        3, fastConfig(4), fastServing(/*max_batch=*/1),
        sched::controlPolicyByName("round-robin+greedy-steal"), 60.0);

    const auto report =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(report, trace.size());
    EXPECT_EQ(report.completed, trace.size());
    EXPECT_EQ(report.kernelStats.steals, 2u);
    EXPECT_EQ(report.kernelStats.stolenRequests, 2u);
    EXPECT_EQ(report.assignment,
              (std::vector<int>{0, 1, 2, 0, 2, 2, 0, 0, 2}));

    const auto again =
        FleetSimulator(config, model::opt13b()).run(trace);
    expectIdenticalReports(report, again);
}

TEST(WorkStealing, KeepsInvariantsUnderOverload)
{
    // A hard burst against a small fleet: stealing must never
    // lose, duplicate, or double-serve a request.
    auto trace = smallTrace(24, 8.0, 9);
    for (auto &request : trace)
        request.arrival = 0.0;
    FleetConfig config = uniformFleet(
        3, fastConfig(4), fastServing(2),
        sched::controlPolicyByName("round-robin+greedy-steal"), 60.0);
    const auto report =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(report, trace.size());
    EXPECT_EQ(report.completed, trace.size());
}

// ---- The composable control plane (sched/control_policy.hh) ----

TEST(ControlPlane, RegistryRoundTripsAndComposes)
{
    const auto names = sched::controlPolicyNames();
    ASSERT_EQ(names.size(), 12u);
    for (const std::string &name : names)
        EXPECT_EQ(sched::controlPolicyByName(name)->name(), name);

    const auto composite =
        sched::controlPolicyByName("least-tokens+slo-steal");
    EXPECT_EQ(composite->name(), "least-tokens+slo-steal");
    EXPECT_TRUE(composite->wants() &
                sched::ControlPolicy::kIdle);
    // Every router keeps its routable set (and the feedback routers
    // their index) current from the kernel's change list; affinity
    // reads the view live and subscribes to nothing.
    for (const sched::RouterPolicy policy : sched::allRouterPolicies())
        EXPECT_TRUE(sched::makeRouterPolicy(policy)->wants() &
                    sched::ControlPolicy::kReplicaChanges)
            << sched::routerPolicyName(policy);
    EXPECT_EQ(sched::controlPolicyByName("affinity")->wants(),
              sched::ControlPolicy::kNone);
    EXPECT_TRUE(
        sched::controlPolicyByName("priority-preempt")->wants() &
        sched::ControlPolicy::kPreempt);
    EXPECT_TRUE(
        sched::controlPolicyByName("drain-migrate")->wants() &
        sched::ControlPolicy::kMigrate);

    EXPECT_THROW(sched::controlPolicyByName("fifo"),
                 std::invalid_argument);
    EXPECT_THROW(sched::controlPolicyByName("jsq+"),
                 std::invalid_argument);
    EXPECT_THROW(sched::controlPolicyByName(""),
                 std::invalid_argument);
    EXPECT_THROW(sched::composeControlPolicies({}),
                 std::invalid_argument);
}

/** Routes arrivals to a fixed replica (test scaffolding). */
class PinnedRoutePolicy : public sched::ControlPolicy
{
  public:
    explicit PinnedRoutePolicy(std::uint32_t target)
        : target_(target)
    {
    }

    std::string name() const override { return "pinned"; }

    void onArrival(const sched::ArrivalContext &,
                   const sched::FleetView &,
                   sched::FleetActions &actions) override
    {
        actions.routeTo(target_);
    }

  private:
    std::uint32_t target_;
};

TEST(ControlPlane, CustomPolicyPlacesByItsOwnRule)
{
    // The API point: a user-written policy, never seen by the
    // kernel before, places requests by its own rule.  Odd ids to
    // replica 1, even to replica 0.
    class ParityPolicy final : public sched::ControlPolicy
    {
      public:
        std::string name() const override { return "parity"; }

        void onArrival(const sched::ArrivalContext &context,
                       const sched::FleetView &,
                       sched::FleetActions &actions) override
        {
            actions.routeTo(
                static_cast<std::uint32_t>(context.requestId % 2));
        }
    };

    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(),
        nullptr, 30.0);
    config.control = std::make_shared<ParityPolicy>();
    const auto trace = smallTrace();
    const auto report =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(report, trace.size());
    EXPECT_EQ(report.completed, trace.size());
    EXPECT_EQ(report.policy, "parity");
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(report.assignment[i],
                  static_cast<int>(trace[i].id % 2));
}

TEST(ControlPlane, IllegalActionsThrowInsteadOfCorruptingState)
{
    const auto trace = smallTrace(4);
    const auto run_with =
        [&](std::shared_ptr<sched::ControlPolicy> control) {
            FleetConfig config = uniformFleet(
                2, fastConfig(4), fastServing(),
                nullptr, 30.0);
            config.control = std::move(control);
            return FleetSimulator(config, model::opt13b())
                .run(trace);
        };

    // No decision at all.
    class SilentPolicy final : public sched::ControlPolicy
    {
        std::string name() const override { return "silent"; }
    };
    EXPECT_THROW(run_with(std::make_shared<SilentPolicy>()),
                 std::logic_error);

    // Two decisions for one arrival.
    class DoubleRoutePolicy final : public sched::ControlPolicy
    {
        std::string name() const override { return "double"; }
        void onArrival(const sched::ArrivalContext &,
                       const sched::FleetView &,
                       sched::FleetActions &actions) override
        {
            actions.routeTo(0);
            actions.shed();
        }
    };
    EXPECT_THROW(run_with(std::make_shared<DoubleRoutePolicy>()),
                 std::logic_error);

    // Out-of-range replica.
    EXPECT_THROW(run_with(std::make_shared<PinnedRoutePolicy>(99)),
                 std::logic_error);

    // Routing to a replica the policy itself drained.
    class RouteDrainedPolicy final : public sched::ControlPolicy
    {
        std::string name() const override { return "drained"; }
        void onArrival(const sched::ArrivalContext &,
                       const sched::FleetView &,
                       sched::FleetActions &actions) override
        {
            actions.requestDrain(1);
            actions.routeTo(1);
        }
    };
    EXPECT_THROW(run_with(std::make_shared<RouteDrainedPolicy>()),
                 std::logic_error);

    // Stealing from itself.
    class SelfStealPolicy final : public sched::ControlPolicy
    {
        std::string name() const override { return "self-steal"; }
        std::uint32_t wants() const override { return kIdle; }
        void onArrival(const sched::ArrivalContext &,
                       const sched::FleetView &,
                       sched::FleetActions &actions) override
        {
            actions.routeTo(0);
        }
        void onReplicaIdle(std::uint32_t replica, Seconds,
                           const sched::FleetView &,
                           sched::FleetActions &actions) override
        {
            actions.steal(replica, replica, 1);
        }
    };
    EXPECT_THROW(run_with(std::make_shared<SelfStealPolicy>()),
                 std::logic_error);
}

TEST(ControlPlane, StealingARunningRequestThrows)
{
    // Request A (long) runs alone on replica 0 — nothing queued
    // behind it.  When replica 1 drains its own short request and
    // greedily tries to steal A anyway, the action surface throws:
    // running requests cannot be stolen.
    class StealRunningPolicy final : public sched::ControlPolicy
    {
      public:
        std::string name() const override
        {
            return "steal-running";
        }
        std::uint32_t wants() const override { return kIdle; }
        void onArrival(const sched::ArrivalContext &context,
                       const sched::FleetView &,
                       sched::FleetActions &actions) override
        {
            actions.routeTo(context.requestId == 0 ? 0 : 1);
        }
        void onReplicaIdle(std::uint32_t replica, Seconds,
                           const sched::FleetView &,
                           sched::FleetActions &actions) override
        {
            actions.steal(replica, replica == 0 ? 1 : 0, 1);
        }
    };

    std::vector<serving::ServedRequest> trace(2);
    trace[0].id = 0;
    trace[0].arrival = 0.0;
    trace[0].promptTokens = 64;
    trace[0].generateTokens = 64; // Long: still running later.
    trace[1].id = 1;
    trace[1].arrival = 0.0;
    trace[1].promptTokens = 64;
    trace[1].generateTokens = 1; // Short: replica 1 idles first.

    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(1),
        nullptr, 30.0);
    config.control = std::make_shared<StealRunningPolicy>();
    EXPECT_THROW(
        FleetSimulator(config, model::opt13b()).run(trace),
        std::logic_error);
}

TEST(ControlPlane, StealingIntoTheCompletingReplicaIsLegal)
{
    // The natural "grab more work the moment I finish a step"
    // pattern: a kReplicaEvents subscriber steals into the very
    // replica whose step just completed.  The kernel must resume
    // that replica through the steal (not double-start it) and
    // still serve everything.
    class StepStealPolicy final : public sched::ControlPolicy
    {
      public:
        std::string name() const override { return "step-steal"; }
        std::uint32_t wants() const override
        {
            return kReplicaEvents;
        }
        void onArrival(const sched::ArrivalContext &context,
                       const sched::FleetView &,
                       sched::FleetActions &actions) override
        {
            actions.routeTo(context.requestId == 0 ? 0 : 1);
        }
        void onStepComplete(std::uint32_t replica, Seconds,
                            const sched::FleetView &view,
                            sched::FleetActions &actions) override
        {
            if (replica == 0 && view.knownServable(0) &&
                !view.busy(0) && view.queuedCount(1) > 0)
                actions.steal(0, 1, 1);
        }
    };

    std::vector<serving::ServedRequest> trace(5);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].id = i;
        trace[i].arrival = 0.0;
        trace[i].promptTokens = 64;
        trace[i].generateTokens = i == 0 ? 6 : 2;
    }
    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(1),
        nullptr, 30.0);
    config.control = std::make_shared<StepStealPolicy>();
    const auto report =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(report, trace.size());
    EXPECT_EQ(report.completed, trace.size());
    EXPECT_GT(report.kernelStats.stolenRequests, 0u);
}

TEST(ControlPlane, AutoscalingIntentsAreRecorded)
{
    // requestDrain walks the lifecycle machine: the intent lands in
    // KernelStats and the drain is enforced on routing.  The spawn
    // verb, spawnReplica, is covered in test_autoscale.
    class DrainSecondReplicaPolicy final
        : public sched::ControlPolicy
    {
      public:
        std::string name() const override { return "drainer"; }
        void onArrival(const sched::ArrivalContext &,
                       const sched::FleetView &view,
                       sched::FleetActions &actions) override
        {
            if (!view.draining(1))
                actions.requestDrain(1);
            actions.routeTo(0);
        }
    };

    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(),
        nullptr, 30.0);
    config.control = std::make_shared<DrainSecondReplicaPolicy>();
    const auto trace = smallTrace();
    const auto report =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(report, trace.size());
    EXPECT_EQ(report.completed, trace.size());
    EXPECT_EQ(report.kernelStats.drainRequests, 1u);
    for (const int replica : report.assignment)
        EXPECT_EQ(replica, 0);
}

/**
 * What a policy sees of replica `replica` through the view: the
 * per-replica facts that live in the kernel's run-state record.
 */
struct RecordProbe
{
    sched::ReplicaModel model;
    std::uint32_t maxBatch = 0;
    sched::ReplicaLifecycle lifecycle =
        sched::ReplicaLifecycle::Active;
    sched::ReplicaSpec spec;
};

RecordProbe
probeRecord(const sched::FleetView &view, std::uint32_t replica)
{
    return RecordProbe{view.model(replica), view.maxBatch(replica),
                       view.lifecycle(replica),
                       view.replicaSpec(replica)};
}

/**
 * Routes every arrival to replica 0 or 1 by id parity, optionally
 * spawning `spawn` at the first arrival, and probes every replica's
 * record at every arrival.
 */
class ProbeRecordsPolicy final : public sched::ControlPolicy
{
  public:
    explicit ProbeRecordsPolicy(std::optional<sched::ReplicaSpec> spawn)
        : spawn_(std::move(spawn))
    {
    }

    std::string name() const override { return "probe-records"; }
    std::uint32_t wants() const override { return kSpawn; }
    void begin() override
    {
        spawned = -1;
        probes.clear();
    }
    void onArrival(const sched::ArrivalContext &context,
                   const sched::FleetView &view,
                   sched::FleetActions &actions) override
    {
        if (spawn_ && spawned < 0)
            spawned = static_cast<int>(actions.spawnReplica(*spawn_));
        std::vector<RecordProbe> sample;
        for (std::uint32_t r = 0; r < view.replicaCount(); ++r)
            sample.push_back(probeRecord(view, r));
        probes.push_back(std::move(sample));
        actions.routeTo(static_cast<std::uint32_t>(context.requestId % 2));
    }

    int spawned = -1;
    std::vector<std::vector<RecordProbe>> probes; ///< Per arrival.

  private:
    std::optional<sched::ReplicaSpec> spawn_;
};

TEST(ControlPlane, SpawnedReplicaReadsItsOwnRecord)
{
    // A spawned replica whose spec differs from the configured
    // fleet in maxBatch and engine: every per-replica fact a policy
    // reads of it must come from its own record, never from a
    // configured replica's slot.
    sched::ReplicaSpec spec;
    spec.system = fastConfig(4);
    spec.serving = fastServing(3);
    spec.serving.engine = runtime::EngineKind::HermesBase;
    spec.provisionSeconds = 0.05;

    FleetConfig config =
        uniformFleet(2, fastConfig(4), fastServing(4), nullptr, 30.0);
    auto spawner = std::make_shared<ProbeRecordsPolicy>(spec);
    config.control = spawner;
    const auto trace = smallTrace();
    const auto report =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(report, trace.size());
    ASSERT_EQ(spawner->spawned, 2);
    ASSERT_EQ(report.replicaNames.size(), 3u);
    EXPECT_EQ(report.replicaNames[2], "s0");
    EXPECT_EQ(report.replicaReports[2].engine, "Hermes-base");
    EXPECT_EQ(report.replicaReports[0].engine, "Hermes");

    // The model a configured replica built from the same spec gets:
    // calibration is a function of the replica and the workload
    // only, so the spawned replica's record must hold exactly this.
    FleetConfig reference_config = config;
    ReplicaConfig third;
    third.name = "third";
    third.system = spec.system;
    third.serving = spec.serving;
    reference_config.replicas.push_back(third);
    auto reference = std::make_shared<ProbeRecordsPolicy>(std::nullopt);
    reference_config.control = reference;
    FleetSimulator(reference_config, model::opt13b()).run(trace);
    ASSERT_FALSE(reference->probes.empty());
    const sched::ReplicaModel expected = reference->probes[0][2].model;
    // Sanity: the engines differ, so a slot mix-up is visible.
    ASSERT_NE(expected.slotTokensPerSecond,
              reference->probes[0][0].model.slotTokensPerSecond);

    ASSERT_EQ(spawner->probes.size(), trace.size());
    sched::ReplicaLifecycle last = sched::ReplicaLifecycle::Provisioning;
    for (const auto &sample : spawner->probes) {
        ASSERT_EQ(sample.size(), 3u);
        const RecordProbe &spawned = sample[2];
        EXPECT_EQ(spawned.model.maxBatch, 3u);
        EXPECT_EQ(spawned.maxBatch, 3u);
        EXPECT_EQ(spawned.model.prefillSeconds, expected.prefillSeconds);
        EXPECT_EQ(spawned.model.slotTokensPerSecond,
                  expected.slotTokensPerSecond);
        EXPECT_EQ(spawned.model.prefillTokensPerSecond,
                  expected.prefillTokensPerSecond);
        EXPECT_EQ(spawned.spec.serving.maxBatch, 3u);
        EXPECT_EQ(spawned.spec.serving.engine,
                  runtime::EngineKind::HermesBase);
        EXPECT_EQ(spawned.spec.provisionSeconds, 0.05);
        EXPECT_TRUE(spawned.spec.name.empty());
        // The lifecycle walks forward from Provisioning, never past
        // Active (nothing drains it).
        EXPECT_GE(spawned.lifecycle, last);
        EXPECT_LE(spawned.lifecycle, sched::ReplicaLifecycle::Active);
        last = spawned.lifecycle;
        for (std::uint32_t r = 0; r < 2; ++r) {
            EXPECT_EQ(sample[r].maxBatch, 4u);
            EXPECT_EQ(sample[r].model.maxBatch, 4u);
            EXPECT_EQ(sample[r].lifecycle,
                      sched::ReplicaLifecycle::Active);
            EXPECT_EQ(sample[r].spec.serving.engine,
                      runtime::EngineKind::Hermes);
        }
    }
    // The spawning arrival saw it Provisioning; by the end it went
    // Active on the clock.
    EXPECT_EQ(spawner->probes.front()[2].lifecycle,
              sched::ReplicaLifecycle::Provisioning);
    EXPECT_EQ(last, sched::ReplicaLifecycle::Active);
}

TEST(ControlPlane, TickHeartbeatFiresWithoutPerturbingPhysics)
{
    // A tick subscriber that only watches must leave every
    // physical outcome identical to the plain policy — the
    // heartbeat rides the same virtual clock but touches nothing.
    class WatchingTickPolicy final : public sched::ControlPolicy
    {
      public:
        std::string name() const override { return "watcher"; }
        std::uint32_t wants() const override { return kTick; }
        Seconds tickPeriod() const override { return 0.01; }
        void onArrival(const sched::ArrivalContext &,
                       const sched::FleetView &,
                       sched::FleetActions &actions) override
        {
            actions.routeTo(next_++ % 2);
        }
        void onTick(Seconds, const sched::FleetView &,
                    sched::FleetActions &) override
        {
            ++ticks_;
        }
        std::uint64_t ticks() const { return ticks_; }

      private:
        std::uint32_t next_ = 0;
        std::uint64_t ticks_ = 0;
    };

    const auto trace = smallTrace();
    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(),
        sched::controlPolicyByName("round-robin"), 30.0);
    const auto plain =
        FleetSimulator(config, model::opt13b()).run(trace);

    auto watcher = std::make_shared<WatchingTickPolicy>();
    config.control = watcher;
    const auto watched =
        FleetSimulator(config, model::opt13b()).run(trace);

    expectIdenticalReports(plain, watched);
    EXPECT_GT(watcher->ticks(), 0u);
    EXPECT_EQ(watcher->ticks(),
              watched.kernelStats.events.ticks);
    EXPECT_EQ(plain.kernelStats.events.ticks, 0u);
}

TEST(SloSteal, StillRescuesQueuesStrandedOnADeadReplica)
{
    // A dead victim's estimated wait is infinite, so SLO-aware
    // stealing always beats it: the fault-tolerance story of the
    // greedy hook is preserved.
    FleetConfig config;
    config.ttftDeadline = 60.0;
    ReplicaConfig healthy;
    healthy.system = fastConfig(4);
    healthy.serving = fastServing();
    ReplicaConfig dead = healthy;
    dead.system.numDimms = 0;
    config.replicas = {healthy, dead};
    config.control =
        sched::controlPolicyByName("round-robin+slo-steal");

    const auto trace = smallTrace();
    const auto report =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(report, trace.size());
    EXPECT_EQ(report.completed, trace.size());
    EXPECT_EQ(report.rejected, 0u);
    EXPECT_GT(report.kernelStats.stolenRequests, 0u);
}

TEST(SloSteal, BeatsGreedyStealingOnABurstyHeterogeneousFleet)
{
    // A fast Hermes replica next to an Accelerate tier whose
    // prefill alone (~4.3s) blows the 2s TTFT deadline.  JSQ
    // routing keeps the slow tier lightly loaded, so it idles
    // between bursts while the fast replica still has a short
    // queue; occupancy-greedy stealing happily moves that queue
    // onto the slow tier — every stolen request then pays the
    // slow prefill — while slo-steal declines any steal whose
    // estimated TTFT on the thief is worse than waiting out the
    // victim's backlog.  Scenario chosen (and pinned by the
    // determinism tests) so the divergence shows on both the TTFT
    // tail and SLO attainment; a sweep over seeds x rates x burst
    // factors showed every diverging cell winning on attainment.
    serving::ScenarioConfig scenario;
    scenario.process = serving::ArrivalProcess::Bursty;
    scenario.requests = 24;
    scenario.ratePerSecond = 4.0;
    scenario.burstiness = 8.0;
    scenario.prompt = {96, 32, 0.0, 1.0};
    scenario.generate = {2, 1, 0.0, 1.0};
    scenario.seed = 5;
    const auto trace = serving::generateWorkload(scenario);

    FleetConfig config;
    config.ttftDeadline = 2.0;
    ReplicaConfig fast;
    fast.name = "fast";
    fast.system = fastConfig(4);
    fast.serving = fastServing(2);
    ReplicaConfig slow = fast;
    slow.name = "slow";
    slow.serving.engine = runtime::EngineKind::Accelerate;
    config.replicas = {fast, slow};

    const auto run_with = [&](const std::string &control) {
        config.control = sched::controlPolicyByName(control);
        return FleetSimulator(config, model::opt13b()).run(trace);
    };
    const auto greedy = run_with("jsq+greedy-steal");
    const auto slo = run_with("jsq+slo-steal");
    checkReportInvariants(greedy, trace.size());
    checkReportInvariants(slo, trace.size());

    // Greedy actually stole onto the slow tier; slo-steal declined
    // the losing subset of those steals.
    EXPECT_GT(greedy.kernelStats.stolenRequests, 0u);
    EXPECT_LT(slo.kernelStats.stolenRequests,
              greedy.kernelStats.stolenRequests);
    EXPECT_GT(slo.kernelStats.stolenRequests, 0u);

    // The acceptance pin: strictly better tail AND attainment.
    EXPECT_LT(slo.p99Ttft, greedy.p99Ttft);
    EXPECT_GT(slo.sloAttainment, greedy.sloAttainment);
}

// ---- The request lifecycle (preempt / resume / migrate) ----

TEST(Lifecycle, MigrationCostsAKvTransferProportionalToContext)
{
    // kvMigrationSeconds is the DIMM-link price of moving a
    // request's accumulated KV: linear in context length above the
    // per-transfer hop latency, zero when nothing accumulated.
    const auto system = fastConfig(4);
    const auto llm = model::opt13b();
    EXPECT_DOUBLE_EQ(kvMigrationSeconds(system, llm, 0), 0.0);
    const Seconds hop = system.link.hopLatency;
    const Seconds t1 = kvMigrationSeconds(system, llm, 1000);
    const Seconds t2 = kvMigrationSeconds(system, llm, 2000);
    EXPECT_GT(t1, hop);
    EXPECT_GT(t2, t1);
    EXPECT_NEAR(t2 - hop, 2.0 * (t1 - hop), 1e-12 * (t2 - hop));

    // A policy that migrates the lone running request after a few
    // decode steps: the kernel must charge exactly that transfer
    // and the destination must finish the request.
    class MigrateOncePolicy final : public sched::ControlPolicy
    {
      public:
        std::string name() const override { return "migrate-once"; }
        std::uint32_t wants() const override
        {
            return kReplicaEvents | kMigrate;
        }
        void onArrival(const sched::ArrivalContext &,
                       const sched::FleetView &,
                       sched::FleetActions &actions) override
        {
            actions.routeTo(0);
        }
        void onStepComplete(std::uint32_t replica, Seconds,
                            const sched::FleetView &view,
                            sched::FleetActions &actions) override
        {
            if (migrated_ || replica != 0)
                return;
            const auto running = view.runningRequests(0);
            if (running.empty() ||
                running.front().tokensGenerated < 3)
                return;
            tokensAtMigration_ = running.front().tokensGenerated;
            actions.migrate(running.front().id, 1);
            migrated_ = true;
        }
        std::uint32_t tokensAtMigration() const
        {
            return tokensAtMigration_;
        }

      private:
        bool migrated_ = false;
        std::uint32_t tokensAtMigration_ = 0;
    };

    std::vector<serving::ServedRequest> trace(1);
    trace[0] = serving::ServedRequest{0, 0.0, 64, 12, 0};
    FleetConfig config = uniformFleet(
        2, system, fastServing(2),
        nullptr, 30.0);
    auto policy = std::make_shared<MigrateOncePolicy>();
    config.control = policy;
    const auto report =
        FleetSimulator(config, llm).run(trace);

    checkReportInvariants(report, trace.size());
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.kernelStats.migrations, 1u);
    EXPECT_EQ(report.kernelStats.preemptions, 0u);
    EXPECT_EQ(report.kernelStats.events.resumes, 1u);
    EXPECT_EQ(report.assignment, (std::vector<int>{1}));
    EXPECT_GE(policy->tokensAtMigration(), 3u);
    // The pinned cost: one transfer of (prompt + generated) tokens
    // of KV at the source's link parameters, nothing else.
    EXPECT_DOUBLE_EQ(
        report.kernelStats.kvTransferSeconds,
        kvMigrationSeconds(system, llm,
                           64 + policy->tokensAtMigration()));
    // The request finished on the destination with every token and
    // its migration recorded; the source reports nothing.
    EXPECT_TRUE(rowsOf(report, 0).empty());
    ASSERT_EQ(rowsOf(report, 1).size(), 1u);
    EXPECT_EQ(report.requests[0].tokens, 12u);
    EXPECT_EQ(report.requests[0].migrations, 1u);
}

TEST(Lifecycle, PriorityPreemptBeatsSloStealOnHighPriorityTail)
{
    // The acceptance pin: on an overloaded bursty fleet with a
    // high-priority slice, "jsq+priority-preempt" must strictly
    // improve the high-priority p99 TTFT over "jsq+slo-steal" —
    // stealing can only move queued work between replicas, while
    // preemption evicts low-priority running work the moment a
    // high-priority request would miss its deadline.
    serving::ScenarioConfig scenario;
    scenario.process = serving::ArrivalProcess::Bursty;
    scenario.requests = 24;
    scenario.ratePerSecond = 16.0;
    scenario.burstiness = 8.0;
    scenario.prompt = {96, 32, 0.0, 1.0};
    scenario.generate = {48, 16, 0.0, 1.0};
    scenario.highPriorityFraction = 0.25;
    scenario.seed = 11;
    const auto trace = serving::generateWorkload(scenario);
    std::size_t high_priority = 0;
    for (const auto &request : trace)
        high_priority += request.priority > 0 ? 1 : 0;
    ASSERT_GT(high_priority, 2u);
    ASSERT_LT(high_priority, trace.size() / 2);

    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(2),
        nullptr,
        /*ttft_deadline=*/1.0);
    const auto run_with = [&](const char *control) {
        config.control = sched::controlPolicyByName(control);
        return FleetSimulator(config, model::opt13b()).run(trace);
    };
    const auto steal = run_with("jsq+slo-steal");
    const auto preempt = run_with("jsq+priority-preempt");
    checkReportInvariants(steal, trace.size());
    checkReportInvariants(preempt, trace.size());
    EXPECT_EQ(steal.completed, trace.size());
    EXPECT_EQ(preempt.completed, trace.size());
    EXPECT_GT(preempt.kernelStats.preemptions, 0u);

    const Seconds steal_hi = ttftSamples(steal, 1).percentile(99.0);
    const Seconds preempt_hi =
        ttftSamples(preempt, 1).percentile(99.0);
    EXPECT_LT(preempt_hi, steal_hi);
    // The preempted low-priority work is resumed, not lost: every
    // request still completes with all its tokens.
    for (const auto &request : preempt.requests)
        EXPECT_GE(request.tokens, 1u);
}

TEST(Lifecycle, DrainMigrateCompletesWhatADeadReplicaAbandons)
{
    // Round-robin keeps feeding a dead replica.  Without lifecycle
    // verbs those requests are abandoned (no idle thief ever shows
    // up to steal on this loaded fleet); with "drain-migrate" every
    // one of them moves to the healthy replica and completes.
    FleetConfig config;
    config.ttftDeadline = 60.0;
    ReplicaConfig healthy;
    healthy.system = fastConfig(4);
    healthy.serving = fastServing();
    ReplicaConfig dead = healthy;
    dead.system.numDimms = 0;
    config.replicas = {healthy, dead};
    const auto trace = smallTrace();

    config.control = sched::controlPolicyByName("round-robin");
    const auto abandoned =
        FleetSimulator(config, model::opt13b()).run(trace);
    EXPECT_EQ(abandoned.rejected, trace.size() / 2);

    config.control =
        sched::controlPolicyByName("round-robin+drain-migrate");
    const auto rescued =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(rescued, trace.size());
    EXPECT_EQ(rescued.completed, trace.size());
    EXPECT_EQ(rescued.rejected, 0u);
    EXPECT_EQ(rescued.replicaReports[1].completed, 0u);
    EXPECT_GE(rescued.kernelStats.migrations, trace.size() / 2);
    // Nothing on the dead replica ever started, so the transfers
    // carried no KV: the moves are instant re-routes.
    EXPECT_DOUBLE_EQ(rescued.kernelStats.kvTransferSeconds, 0.0);
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(rescued.assignment[i], 0);
    // The per-request lifecycle counter survives a never-started
    // migration: exactly the moved rows carry migrations == 1.
    std::uint64_t migrated_rows = 0;
    for (const auto &request : rescued.requests)
        migrated_rows += request.migrations != 0 ? 1 : 0;
    EXPECT_EQ(migrated_rows, rescued.kernelStats.migrations);
}

TEST(Lifecycle, DrainMigrateEvacuatesRunningWorkWithItsKv)
{
    // A policy drains replica 1 mid-run; drain-migrate hands its
    // running requests (KV included, at a DIMM-link cost) to the
    // healthy replica at the next decode boundary, and everything
    // still completes exactly once.
    class DrainSecondMidRunPolicy final
        : public sched::ControlPolicy
    {
      public:
        std::string name() const override { return "drain-at-4"; }
        void onArrival(const sched::ArrivalContext &context,
                       const sched::FleetView &view,
                       sched::FleetActions &actions) override
        {
            if (context.requestId >= 4 && !view.draining(1))
                actions.requestDrain(1);
            actions.routeTo(view.draining(1)
                                ? 0
                                : static_cast<std::uint32_t>(
                                      context.requestId % 2));
        }
    };

    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(2),
        nullptr, 60.0);
    config.control = sched::composeControlPolicies(
        {std::make_shared<DrainSecondMidRunPolicy>(),
         sched::controlPolicyByName("drain-migrate")});
    const auto trace = smallTrace(12, 4.0, 9);
    const auto report =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(report, trace.size());
    EXPECT_EQ(report.completed, trace.size());
    EXPECT_GT(report.kernelStats.migrations, 0u);
    // At least one migrated request had started running, so its KV
    // transfer took real virtual time.
    EXPECT_GT(report.kernelStats.kvTransferSeconds, 0.0);
    // The drained replica kept nothing that arrived after the
    // drain: every request it reports was one of the early ones.
    for (const auto &request : rowsOf(report, 1))
        EXPECT_LT(request.id, 4u);
}

TEST(Lifecycle, IllegalLifecycleActionsThrow)
{
    const auto trace = smallTrace(6, 4.0, 9);
    const auto run_with =
        [&](std::shared_ptr<sched::ControlPolicy> control) {
            FleetConfig config = uniformFleet(
                2, fastConfig(4), fastServing(1),
                nullptr, 30.0);
            config.control = std::move(control);
            return FleetSimulator(config, model::opt13b())
                .run(trace);
        };

    // The verbs are capability-gated: acting without declaring
    // kPreempt / kMigrate throws even when the action itself would
    // be legal.
    class UndeclaredPreemptPolicy final
        : public sched::ControlPolicy
    {
        std::string name() const override { return "undeclared"; }
        std::uint32_t wants() const override
        {
            return kReplicaEvents;
        }
        void onArrival(const sched::ArrivalContext &,
                       const sched::FleetView &,
                       sched::FleetActions &actions) override
        {
            actions.routeTo(0);
        }
        void onStepComplete(std::uint32_t, Seconds,
                            const sched::FleetView &view,
                            sched::FleetActions &actions) override
        {
            const auto running = view.runningRequests(0);
            if (!running.empty())
                actions.preempt(0, running.front().id);
        }
    };
    EXPECT_THROW(
        run_with(std::make_shared<UndeclaredPreemptPolicy>()),
        std::logic_error);

    // Preempting a queued (not running) request throws.
    class PreemptQueuedPolicy final : public sched::ControlPolicy
    {
        std::string name() const override
        {
            return "preempt-queued";
        }
        std::uint32_t wants() const override
        {
            return kReplicaEvents | kPreempt;
        }
        void onArrival(const sched::ArrivalContext &,
                       const sched::FleetView &,
                       sched::FleetActions &actions) override
        {
            actions.routeTo(0);
        }
        void onStepComplete(std::uint32_t, Seconds,
                            const sched::FleetView &view,
                            sched::FleetActions &actions) override
        {
            const auto queued = view.queuedRequests(0);
            if (!queued.empty())
                actions.preempt(0, queued.front().id);
        }
    };
    EXPECT_THROW(
        run_with(std::make_shared<PreemptQueuedPolicy>()),
        std::logic_error);

    // Migrating to a replica the policy itself drained throws, as
    // does migrating a request that does not exist.
    class MigrateToDrainedPolicy final
        : public sched::ControlPolicy
    {
        std::string name() const override
        {
            return "migrate-to-drained";
        }
        std::uint32_t wants() const override
        {
            return kReplicaEvents | kMigrate;
        }
        void onArrival(const sched::ArrivalContext &context,
                       const sched::FleetView &view,
                       sched::FleetActions &actions) override
        {
            if (!view.draining(1))
                actions.requestDrain(1);
            (void)context;
            actions.routeTo(0);
        }
        void onStepComplete(std::uint32_t, Seconds,
                            const sched::FleetView &view,
                            sched::FleetActions &actions) override
        {
            const auto running = view.runningRequests(0);
            if (!running.empty())
                actions.migrate(running.front().id, 1);
        }
    };
    EXPECT_THROW(
        run_with(std::make_shared<MigrateToDrainedPolicy>()),
        std::logic_error);

    class MigrateUnknownPolicy final : public sched::ControlPolicy
    {
        std::string name() const override
        {
            return "migrate-unknown";
        }
        std::uint32_t wants() const override
        {
            return kReplicaEvents | kMigrate;
        }
        void onArrival(const sched::ArrivalContext &,
                       const sched::FleetView &,
                       sched::FleetActions &actions) override
        {
            actions.routeTo(0);
        }
        void onStepComplete(std::uint32_t, Seconds,
                            const sched::FleetView &,
                            sched::FleetActions &actions) override
        {
            actions.migrate(987654, 1);
        }
    };
    EXPECT_THROW(
        run_with(std::make_shared<MigrateUnknownPolicy>()),
        std::logic_error);
}

TEST(Lifecycle, RequestStateIsVisibleThroughTheFleetView)
{
    // The state machine is observable from a policy: a watched
    // request reads Queued before admission, Running at boundaries
    // afterwards, Done once retired, and names round-trip.
    EXPECT_EQ(serving::requestStateName(
                  serving::RequestState::Preempted),
              "preempted");
    class WatchStatesPolicy final : public sched::ControlPolicy
    {
      public:
        std::string name() const override { return "watcher"; }
        std::uint32_t wants() const override
        {
            return kReplicaEvents;
        }
        void onArrival(const sched::ArrivalContext &,
                       const sched::FleetView &view,
                       sched::FleetActions &actions) override
        {
            // Request 0 has been delivered yet? Before its own
            // arrival decision it is unknown.
            if (!sawQueued_)
                sawQueued_ = view.requestState(0, 0) ==
                             serving::RequestState::Queued;
            actions.routeTo(0);
        }
        void onStepComplete(std::uint32_t, Seconds,
                            const sched::FleetView &view,
                            sched::FleetActions &actions) override
        {
            (void)actions;
            const auto state = view.requestState(0, 0);
            sawRunning_ |= state == serving::RequestState::Running;
            sawDone_ |= state == serving::RequestState::Done;
        }
        bool sawQueued() const { return sawQueued_; }
        bool sawRunning() const { return sawRunning_; }
        bool sawDone() const { return sawDone_; }

      private:
        bool sawQueued_ = false;
        bool sawRunning_ = false;
        bool sawDone_ = false;
    };

    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(1),
        nullptr, 30.0);
    auto watcher = std::make_shared<WatchStatesPolicy>();
    config.control = watcher;
    const auto trace = smallTrace(4, 2.0, 9);
    const auto report =
        FleetSimulator(config, model::opt13b()).run(trace);
    EXPECT_EQ(report.completed, trace.size());
    EXPECT_TRUE(watcher->sawRunning());
    EXPECT_TRUE(watcher->sawDone());
}

// ---- Multi-turn sessions and KV-affinity routing ----

serving::SessionTrace
conversationalTrace(std::uint32_t sessions, double rate,
                    std::uint64_t seed)
{
    return serving::generateSessionWorkload(
        serving::scenarioByName("multiturn", sessions, rate, seed));
}

TEST(Sessions, BadArrivalTimesThrowInsteadOfAborting)
{
    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(2),
        sched::controlPolicyByName("jsq"), 30.0);
    FleetSimulator simulator(config, model::opt13b());
    for (const double bad :
         {-1.0, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        // The last first turn: NaN and +inf pass the
        // nondecreasing first-turn check, and used to reach the
        // event queue (NaN panicked in the virtual past).
        auto trace = conversationalTrace(3, 4.0, 9);
        std::size_t last_first = 0;
        for (std::size_t i = 0; i < trace.turns.size(); ++i) {
            if (trace.turns[i].turn == 0)
                last_first = i;
        }
        trace.turns[last_first].request.arrival = bad;
        EXPECT_THROW(simulator.run(trace), std::invalid_argument)
            << bad;
    }
}

TEST(Sessions, MalformedPlansThrowInsteadOfAborting)
{
    // Run entry refuses every plan the kernel cannot follow, each
    // with its own reason, before any turn is simulated: a successor
    // missing from the trace (the kernel's id lookup would abort
    // mid-run), one from another session or turn, one named twice,
    // and first turns out of arrival order.
    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(2),
        sched::controlPolicyByName("jsq"), 30.0);
    FleetSimulator simulator(config, model::opt13b());
    const auto rejects = [&](const serving::SessionTrace &trace,
                             const std::string &reason) {
        EXPECT_THROW(
            {
                try {
                    simulator.run(trace);
                } catch (const std::invalid_argument &error) {
                    EXPECT_NE(std::string(error.what()).find(reason),
                              std::string::npos)
                        << error.what();
                    throw;
                }
            },
            std::invalid_argument)
            << reason;
    };

    // Session 1 is turns 0, 1, ...; session 2 starts at
    // `second_first` (multiturn sessions have 2-6 turns).
    const auto base = conversationalTrace(3, 4.0, 9);
    ASSERT_EQ(base.turns[0].turn, 0u);
    ASSERT_EQ(base.turns[0].successor, 1);
    std::size_t second_first = 1;
    while (base.turns[second_first].turn != 0)
        ++second_first;
    ASSERT_LT(second_first + 1, base.turns.size());

    auto missing = base;
    missing.turns[0].successor =
        static_cast<std::int64_t>(base.turns.size()) + 100;
    rejects(missing, "is not in the trace");

    auto foreign = base;
    foreign.turns[0].successor =
        static_cast<std::int64_t>(second_first + 1);
    rejects(foreign, "is not its session's next turn");
    auto skipped = base;
    skipped.turns[1].turn = 2;
    rejects(skipped, "is not its session's next turn");

    // Turn 2 re-labelled as a second first turn of session 1 that
    // also continues with turn 1.
    auto shared = base;
    shared.turns[1].successor = -1;
    shared.turns[2].request.sessionId = base.turns[0].request.sessionId;
    shared.turns[2].turn = 0;
    shared.turns[2].successor = 1;
    rejects(shared, "is named by another turn too");

    auto unordered = base;
    unordered.turns[0].request.arrival =
        base.turns[second_first].request.arrival + 1.0;
    rejects(unordered, "first-turn arrivals must be nondecreasing");

    // The untouched plan still runs to completion.
    EXPECT_EQ(simulator.run(base).completed, base.turns.size());
}

TEST(Sessions, FollowupsArriveThinkTimeAfterThePreviousTurn)
{
    // The closed-loop contract: a follow-up turn is not an open
    // arrival — it fires exactly think-time after its predecessor
    // completes, and the whole chain replays deterministically.
    const auto trace = conversationalTrace(6, 4.0, 9);
    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(2),
        sched::controlPolicyByName("jsq"), 30.0);

    const auto report =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(report, trace.turns.size());
    EXPECT_EQ(report.completed, trace.turns.size());

    std::uint64_t followups = 0;
    for (std::size_t i = 0; i < trace.turns.size(); ++i) {
        if (trace.turns[i].turn == 0)
            continue;
        ++followups;
        const std::size_t prev = i - 1;
        ASSERT_FALSE(report.requests[prev].rejected);
        ASSERT_FALSE(report.requests[i].rejected);
        EXPECT_DOUBLE_EQ(report.requests[i].arrival,
                         report.requests[prev].completed +
                             trace.turns[prev].thinkAfter);
        EXPECT_GT(report.requests[i].arrival,
                  report.requests[prev].completed);
    }
    EXPECT_GT(followups, 0u);
    EXPECT_EQ(report.kernelStats.events.sessionContinues,
              followups);

    // Same trace, fresh simulator: byte-identical physics.
    const auto replay =
        FleetSimulator(config, model::opt13b()).run(trace);
    EXPECT_EQ(report.assignment, replay.assignment);
    EXPECT_DOUBLE_EQ(report.makespan, replay.makespan);
}

TEST(Sessions, AffinityBeatsJsqOnMultiTurnTailLatency)
{
    // The headline pin: on a conversational workload the affinity
    // policy keeps follow-up turns on the replica still holding
    // their session KV, so grown contexts skip re-prefill; jsq
    // scatters turns by queue depth and pays the full prompt every
    // time.  The win is end-to-end latency (a conversation blocks
    // on the whole turn), pinned on the p99 tail.
    const auto trace = conversationalTrace(12, 0.3, 7);
    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(2),
        nullptr, 120.0);

    const auto run_with = [&](const std::string &control) {
        config.control = sched::controlPolicyByName(control);
        return FleetSimulator(config, model::opt13b()).run(trace);
    };
    const auto affinity = run_with("affinity");
    const auto jsq = run_with("jsq");
    checkReportInvariants(affinity, trace.turns.size());
    checkReportInvariants(jsq, trace.turns.size());
    EXPECT_EQ(affinity.completed, trace.turns.size());
    EXPECT_EQ(jsq.completed, trace.turns.size());
    EXPECT_GT(affinity.kernelStats.events.sessionContinues, 0u);

    const auto affinity_latency = latencySamples(affinity);
    const auto jsq_latency = latencySamples(jsq);
    EXPECT_LT(affinity_latency.percentile(99.0),
              jsq_latency.percentile(99.0));
    EXPECT_LT(affinity_latency.percentile(50.0),
              jsq_latency.percentile(50.0));
}

TEST(Sessions, CalibrationTimeIsAccountedSeparatelyFromTheLoop)
{
    // Cost-cache engine simulations are real wall-clock but not
    // kernel work: a session run bills them to
    // kernelStats.calibrationSeconds and keeps loopSeconds clean
    // of mid-loop cold-bucket fills.
    const auto trace = conversationalTrace(6, 1.0, 11);
    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(2),
        sched::controlPolicyByName("jsq"), 120.0);
    const auto report =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(report, trace.turns.size());
    EXPECT_EQ(report.completed, trace.turns.size());
    EXPECT_GT(report.kernelStats.calibrationSeconds, 0.0);
    EXPECT_GE(report.kernelStats.loopSeconds, 0.0);
}

TEST(Sessions, CalibrationThreadsDoNotChangeThePhysics)
{
    // calibrationThreads controls only how fast shared cost caches
    // fill (router calibration and pre-loop cost warming); the
    // simulated physics of a session run is byte-identical at any
    // thread count.
    const auto trace = conversationalTrace(8, 0.5, 13);
    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(2),
        sched::controlPolicyByName("jsq"), 120.0);
    config.calibrationThreads = 1;
    const auto lazy =
        FleetSimulator(config, model::opt13b()).run(trace);
    config.calibrationThreads = 4;
    const auto warmed =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(lazy, trace.turns.size());
    EXPECT_EQ(lazy.assignment, warmed.assignment);
    EXPECT_DOUBLE_EQ(lazy.makespan, warmed.makespan);
    EXPECT_DOUBLE_EQ(latencySamples(lazy).percentile(99.0),
                     latencySamples(warmed).percentile(99.0));
}

TEST(Sessions, CalibrationThreadsAcrossCostGroupsMatchTheSerialRun)
{
    // Two cost groups calibrate side by side on the pool, and session
    // warming splits its rows, while each record runs inline on its
    // worker.  Reports and tape counts match the serial run, at the
    // hardware default and at an explicit 4.
    const auto trace = conversationalTrace(6, 1.0, 17);
    const auto run = [&](std::uint32_t threads) {
        FleetConfig config;
        config.control = sched::controlPolicyByName("jsq");
        config.ttftDeadline = 120.0;
        config.calibrationThreads = threads;
        for (const char *preset : {"default", "budget", "default"}) {
            ReplicaConfig replica;
            replica.system = runtime::platformPreset(preset, 4);
            replica.serving = fastServing(2);
            config.replicas.push_back(std::move(replica));
        }
        return FleetSimulator(config, model::opt13b()).run(trace);
    };
    const FleetReport serial = run(1);
    checkReportInvariants(serial, trace.turns.size());
    EXPECT_GT(serial.kernelStats.calibrationTapes, 0u);
    for (const std::uint32_t threads : {0u, 4u}) {
        SCOPED_TRACE(threads);
        const FleetReport parallel = run(threads);
        expectIdenticalReports(serial, parallel);
        EXPECT_EQ(parallel.kernelStats.calibrationTapes,
                  serial.kernelStats.calibrationTapes);
    }
}

TEST(Sessions, AffinityFallsBackWhenTheStickyReplicaDrains)
{
    // KV residency must not pin a conversation to a replica on its
    // way out: once the holder is draining, affinity re-routes the
    // follow-up like jsq instead of throwing on an illegal route.
    serving::SessionTrace two_turn;
    serving::ServedRequest first{0, 0.0, 64, 8, 0};
    first.sessionId = 1;
    serving::ServedRequest second{1, 0.0, 136, 8, 0};
    second.sessionId = 1;
    two_turn.turns = {{first, 0, 1, 0.5}, {second, 1, -1, 0.0}};

    class DrainHolderPolicy final : public sched::ControlPolicy
    {
      public:
        std::string name() const override { return "drain-holder"; }
        std::uint32_t wants() const override
        {
            return kReplicaEvents;
        }
        void onPrefillComplete(std::uint32_t replica, Seconds,
                               const sched::FleetView &,
                               sched::FleetActions &actions) override
        {
            if (replica == 0 && !drained_) {
                drained_ = true;
                actions.requestDrain(0);
            }
        }

      private:
        bool drained_ = false;
    };

    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(2),
        nullptr, 30.0);

    // Sticky baseline: both turns land on replica 0.
    config.control = sched::controlPolicyByName("affinity");
    const auto sticky =
        FleetSimulator(config, model::opt13b()).run(two_turn);
    EXPECT_EQ(sticky.assignment, (std::vector<int>{0, 0}));
    EXPECT_EQ(sticky.completed, 2u);

    // Drain the holder mid-conversation: the follow-up re-routes.
    config.control = sched::composeControlPolicies(
        {sched::controlPolicyByName("affinity"),
         std::make_shared<DrainHolderPolicy>()});
    const auto drained =
        FleetSimulator(config, model::opt13b()).run(two_turn);
    EXPECT_EQ(drained.assignment, (std::vector<int>{0, 1}));
    EXPECT_EQ(drained.completed, 2u);
    checkReportInvariants(drained, 2u);
}

TEST(Fleet, CacheReuseAcrossRunsKeepsPhysicsIdentical)
{
    // Same simulator, same trace twice: the second run answers from
    // the calibrated cost cache and must reproduce the first.
    auto simulator = uniformSimulator(
        2, sched::RouterPolicy::LeastOutstandingTokens);
    const auto trace = smallTrace();
    const auto first = simulator.run(trace);
    const auto second = simulator.run(trace);
    EXPECT_DOUBLE_EQ(first.makespan, second.makespan);
    EXPECT_DOUBLE_EQ(first.throughputTps,
                     second.throughputTps);
    EXPECT_EQ(first.assignment, second.assignment);
}

} // namespace
} // namespace hermes::fleet
