/**
 * @file
 * Autoscaling subsystem tests: replica lifecycle physics (spawn →
 * provision → warm → active, drain → retire), capability gating,
 * replica-seconds cost accounting, scaler-policy unit behavior over
 * a fake fleet, and the headline diurnal comparison — the
 * target-backlog scaler beats every fixed fleet size on
 * replica-seconds at equal-or-better SLO attainment.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

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
        } else {
            ++completed;
            EXPECT_LE(request.arrival, request.admitted);
            EXPECT_LE(request.admitted, request.firstToken);
            EXPECT_LE(request.firstToken, request.completed);
            EXPECT_GE(report.assignment[i], 0);
        }
    }
    EXPECT_EQ(report.completed, completed);
    EXPECT_EQ(report.rejected, rejected);
    EXPECT_EQ(report.completed + report.rejected, trace_size);

    // The cost accounting must cohere: one active-seconds entry per
    // replica report, the fleet total is exactly their sum, and
    // cost-per-request is that total over the completions.
    ASSERT_EQ(report.replicaActiveSeconds.size(),
              report.replicaReports.size());
    double replica_seconds = 0.0;
    for (const Seconds active : report.replicaActiveSeconds) {
        EXPECT_GE(active, 0.0);
        replica_seconds += active;
    }
    EXPECT_DOUBLE_EQ(report.replicaSeconds, replica_seconds);
    if (report.completed > 0) {
        EXPECT_DOUBLE_EQ(report.costPerRequest,
                         report.replicaSeconds /
                             static_cast<double>(report.completed));
    }

    // Every row lives once, in report.requests: the replica
    // reports carry aggregates only.
    for (const serving::ServingReport &replica :
         report.replicaReports)
        EXPECT_TRUE(replica.requests.empty());
}

/**
 * Spawns one clone of replica 0 on the first arrival, routes to the
 * configured replica until the spawn goes Active, then prefers the
 * spawned replica.  Records what it saw of the lifecycle walk.
 */
class SpawnOncePolicy : public sched::ControlPolicy
{
  public:
    explicit SpawnOncePolicy(Seconds provision = 0.3)
        : provision_(provision)
    {
    }

    std::string name() const override { return "spawn-once"; }

    std::uint32_t wants() const override { return kSpawn; }

    void begin() override
    {
        spawned_ = -1;
        spawnTime_ = -1.0;
        activeAt_ = -1.0;
        sawProvisioning_ = false;
    }

    void onArrival(const sched::ArrivalContext &context,
                   const sched::FleetView &view,
                   sched::FleetActions &actions) override
    {
        // The first trace arrival lands at t = 0; spawning there
        // would start the new replica's clock with the configured
        // fleet's.  Spawn on the first strictly-positive arrival so
        // the cost accounting has a real spawn instant to bill from.
        if (spawned_ < 0 && context.arrival > 0.0) {
            sched::ReplicaSpec spec = view.replicaSpec(0);
            spec.provisionSeconds = provision_;
            spawned_ = static_cast<int>(actions.spawnReplica(spec));
            spawnTime_ = context.arrival;
            // The new replica is visible immediately, still
            // provisioning.
            sawProvisioning_ =
                view.lifecycle(static_cast<std::uint32_t>(
                    spawned_)) ==
                sched::ReplicaLifecycle::Provisioning;
        }
        if (spawned_ < 0) {
            actions.routeTo(0);
            return;
        }
        const auto index = static_cast<std::uint32_t>(spawned_);
        if (view.lifecycle(index) ==
            sched::ReplicaLifecycle::Active) {
            if (activeAt_ < 0.0)
                activeAt_ = context.arrival;
            actions.routeTo(index);
        } else {
            actions.routeTo(0);
        }
    }

    Seconds provision_ = 0.3;
    int spawned_ = -1;
    Seconds spawnTime_ = -1.0;
    Seconds activeAt_ = -1.0; ///< First arrival that saw Active.
    bool sawProvisioning_ = false;
};

TEST(Autoscale, SpawnedReplicaAdmitsOnlyAfterWarmup)
{
    FleetConfig config = uniformFleet(
        1, fastConfig(4), fastServing(),
        nullptr, 30.0);
    auto policy = std::make_shared<SpawnOncePolicy>(0.3);
    config.control = policy;
    const auto trace = smallTrace(24, 4.0, 9);
    const auto report =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(report, trace.size());
    EXPECT_EQ(report.completed, trace.size());

    // One replica spawned, appended after the configured fleet with
    // the default spawn-order name.
    EXPECT_EQ(report.kernelStats.spawnedReplicas, 1u);
    ASSERT_EQ(report.replicaReports.size(), 2u);
    ASSERT_EQ(report.replicaNames.size(), 2u);
    EXPECT_EQ(report.replicaNames[1], "s0");
    EXPECT_TRUE(policy->sawProvisioning_);

    // The spawn went Active only after provisioning AND the warm-up
    // replay: strictly later than spawn + provisionSeconds.
    ASSERT_GE(policy->activeAt_, 0.0);
    EXPECT_GT(policy->activeAt_,
              policy->spawnTime_ + policy->provision_);

    // It actually served traffic, and admitted nothing before its
    // warm-up could possibly have completed.
    EXPECT_GT(report.replicaReports[1].completed, 0u);
    for (std::size_t i = 0; i < report.requests.size(); ++i) {
        if (report.assignment[i] == 1) {
            EXPECT_GE(report.requests[i].admitted,
                      policy->spawnTime_ + policy->provision_);
        }
    }

    // Cost accounting: the spawned replica's clock started at the
    // spawn instant, so it is billable for strictly less than the
    // configured replica (alive since t = 0).
    EXPECT_GT(report.replicaActiveSeconds[1], 0.0);
    EXPECT_LT(report.replicaActiveSeconds[1],
              report.replicaActiveSeconds[0]);
    EXPECT_GT(report.costPerRequest, 0.0);
}

TEST(Autoscale, SpawnIsCapabilityGatedAndWarmupBlocksRouting)
{
    const auto trace = smallTrace(4);
    const auto run_with =
        [&](std::shared_ptr<sched::ControlPolicy> control) {
            FleetConfig config = uniformFleet(
                1, fastConfig(4), fastServing(),
                nullptr, 30.0);
            config.control = std::move(control);
            return FleetSimulator(config, model::opt13b())
                .run(trace);
        };

    // spawnReplica without declaring kSpawn throws.
    class UndeclaredSpawnPolicy final : public sched::ControlPolicy
    {
        std::string name() const override { return "undeclared"; }
        void onArrival(const sched::ArrivalContext &,
                       const sched::FleetView &view,
                       sched::FleetActions &actions) override
        {
            actions.spawnReplica(view.replicaSpec(0));
            actions.routeTo(0);
        }
    };
    EXPECT_THROW(run_with(std::make_shared<UndeclaredSpawnPolicy>()),
                 std::logic_error);

    // Routing to a replica that is still provisioning throws — only
    // Active replicas are routable.
    class RouteUnwarmPolicy final : public sched::ControlPolicy
    {
        std::string name() const override { return "route-unwarm"; }
        std::uint32_t wants() const override { return kSpawn; }
        void onArrival(const sched::ArrivalContext &,
                       const sched::FleetView &view,
                       sched::FleetActions &actions) override
        {
            actions.routeTo(
                actions.spawnReplica(view.replicaSpec(0)));
        }
    };
    EXPECT_THROW(run_with(std::make_shared<RouteUnwarmPolicy>()),
                 std::logic_error);
}

/**
 * SpawnOncePolicy that additionally drains its spawn after it has
 * routed `serveBeforeDrain_` requests onto it.
 */
class SpawnThenDrainPolicy final : public SpawnOncePolicy
{
  public:
    explicit SpawnThenDrainPolicy(std::uint32_t serve_before_drain)
        : SpawnOncePolicy(0.2),
          serveBeforeDrain_(serve_before_drain)
    {
    }

    std::string name() const override { return "spawn-drain"; }

    void begin() override
    {
        SpawnOncePolicy::begin();
        served_ = 0;
        drained_ = false;
    }

    void onArrival(const sched::ArrivalContext &context,
                   const sched::FleetView &view,
                   sched::FleetActions &actions) override
    {
        if (spawned_ >= 0 && served_ >= serveBeforeDrain_ &&
            !drained_) {
            actions.requestDrain(
                static_cast<std::uint32_t>(spawned_));
            drained_ = true;
        }
        if (drained_) {
            actions.routeTo(0);
            return;
        }
        SpawnOncePolicy::onArrival(context, view, actions);
        if (spawned_ >= 0 &&
            view.lifecycle(static_cast<std::uint32_t>(spawned_)) ==
                sched::ReplicaLifecycle::Active)
            ++served_;
    }

    std::uint32_t serveBeforeDrain_ = 2;
    std::uint32_t served_ = 0;
    bool drained_ = false;
};

TEST(Autoscale, SpawnThenDrainRoundTripIsDeterministic)
{
    const auto trace = smallTrace(24, 4.0, 9);
    const auto run_once = [&] {
        FleetConfig config = uniformFleet(
            1, fastConfig(4), fastServing(),
            nullptr, 30.0);
        config.control =
            std::make_shared<SpawnThenDrainPolicy>(3);
        return FleetSimulator(config, model::opt13b()).run(trace);
    };
    const auto report = run_once();
    checkReportInvariants(report, trace.size());

    // Round trip: spawned, served, drained, retired — and nothing
    // was dropped along the way (the draining replica finishes its
    // own queue before retiring).
    EXPECT_EQ(report.completed, trace.size());
    EXPECT_EQ(report.kernelStats.spawnedReplicas, 1u);
    EXPECT_EQ(report.kernelStats.drainRequests, 1u);
    EXPECT_EQ(report.kernelStats.retiredReplicas, 1u);
    ASSERT_EQ(report.replicaReports.size(), 2u);
    EXPECT_GE(report.replicaReports[1].completed, 3u);

    // Retiring froze the spawned replica's clock before the end of
    // the run: it is billable for less than the configured replica.
    EXPECT_GT(report.replicaActiveSeconds[1], 0.0);
    EXPECT_LT(report.replicaActiveSeconds[1],
              report.replicaActiveSeconds[0]);

    // The whole walk is deterministic: a fresh simulator reproduces
    // the report byte for byte, cost accounting included.
    const auto again = run_once();
    EXPECT_EQ(report.assignment, again.assignment);
    EXPECT_EQ(report.completed, again.completed);
    EXPECT_DOUBLE_EQ(report.makespan, again.makespan);
    EXPECT_DOUBLE_EQ(report.replicaSeconds, again.replicaSeconds);
    EXPECT_DOUBLE_EQ(report.costPerRequest, again.costPerRequest);
    ASSERT_EQ(report.replicaActiveSeconds.size(),
              again.replicaActiveSeconds.size());
    for (std::size_t i = 0;
         i < report.replicaActiveSeconds.size(); ++i)
        EXPECT_DOUBLE_EQ(report.replicaActiveSeconds[i],
                         again.replicaActiveSeconds[i]);
    ASSERT_EQ(report.requests.size(), again.requests.size());
    for (std::size_t i = 0; i < report.requests.size(); ++i) {
        EXPECT_DOUBLE_EQ(report.requests[i].admitted,
                         again.requests[i].admitted);
        EXPECT_DOUBLE_EQ(report.requests[i].completed,
                         again.requests[i].completed);
    }
}

TEST(Autoscale, DrainingSpawnedReplicaEvacuatesWorkWithItsKv)
{
    // Drain the spawned replica while it still holds running and
    // queued work; composed drain-migrate must hand everything (KV
    // included, at a DIMM-link cost) to the configured replica —
    // no request is silently dropped.
    class DrainLoadedSpawnPolicy final : public SpawnOncePolicy
    {
      public:
        DrainLoadedSpawnPolicy() : SpawnOncePolicy(0.2) {}

        std::string name() const override { return "drain-loaded"; }

        void onArrival(const sched::ArrivalContext &context,
                       const sched::FleetView &view,
                       sched::FleetActions &actions) override
        {
            const bool loaded =
                spawned_ >= 0 &&
                view.observedOutstanding(static_cast<std::uint32_t>(
                    spawned_)) >= 3;
            if (loaded &&
                !view.draining(
                    static_cast<std::uint32_t>(spawned_))) {
                actions.requestDrain(
                    static_cast<std::uint32_t>(spawned_));
            }
            if (spawned_ >= 0 &&
                view.draining(
                    static_cast<std::uint32_t>(spawned_))) {
                actions.routeTo(0);
                return;
            }
            SpawnOncePolicy::onArrival(context, view, actions);
        }
    };

    FleetConfig config = uniformFleet(
        1, fastConfig(4), fastServing(2),
        nullptr, 60.0);
    config.control = sched::composeControlPolicies(
        {std::make_shared<DrainLoadedSpawnPolicy>(),
         sched::controlPolicyByName("drain-migrate")});
    auto trace = smallTrace(20, 6.0, 9);
    for (auto &request : trace)
        request.generateTokens = 16;
    const auto report =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(report, trace.size());
    EXPECT_EQ(report.completed, trace.size());
    EXPECT_EQ(report.kernelStats.spawnedReplicas, 1u);
    EXPECT_EQ(report.kernelStats.retiredReplicas, 1u);
    EXPECT_GT(report.kernelStats.migrations, 0u);
    // At least one evacuated request had started running, so its KV
    // transfer took real virtual time.
    EXPECT_GT(report.kernelStats.kvTransferSeconds, 0.0);
}

// ---- Scaler-policy unit behavior over a fake fleet ----------------

/** A scriptable FleetView: per-replica state set by the test. */
class FakeFleetView final : public sched::FleetView
{
  public:
    struct Replica
    {
        sched::ReplicaModel model;
        sched::ReplicaLifecycle lifecycle =
            sched::ReplicaLifecycle::Active;
        bool dead = false;
        std::uint32_t outstanding = 0;
        double backlogTokens = 0.0;
        std::uint64_t cachedTokens = 0; ///< For session 1.
    };

    std::vector<Replica> replicas;

    std::uint32_t replicaCount() const override
    {
        return static_cast<std::uint32_t>(replicas.size());
    }
    const sched::ReplicaModel &
    model(std::uint32_t replica) const override
    {
        return replicas[replica].model;
    }
    bool busy(std::uint32_t) const override { return false; }
    bool knownServable(std::uint32_t replica) const override
    {
        return !replicas[replica].dead;
    }
    bool knownDead(std::uint32_t replica) const override
    {
        return replicas[replica].dead;
    }
    sched::ReplicaLifecycle
    lifecycle(std::uint32_t replica) const override
    {
        return replicas[replica].lifecycle;
    }
    sched::ReplicaSpec
    replicaSpec(std::uint32_t) const override
    {
        return sched::ReplicaSpec{};
    }
    std::uint32_t queuedCount(std::uint32_t replica) const override
    {
        return replicas[replica].outstanding;
    }
    std::uint32_t
    observedOutstanding(std::uint32_t replica) const override
    {
        return replicas[replica].outstanding;
    }
    double
    observedBacklogTokens(std::uint32_t replica) const override
    {
        return replicas[replica].backlogTokens;
    }
    std::vector<serving::RequestInfo>
    runningRequests(std::uint32_t) const override
    {
        return {};
    }
    std::vector<serving::RequestInfo>
    queuedRequests(std::uint32_t) const override
    {
        return {};
    }
    serving::RequestState
    requestState(std::uint32_t, std::uint64_t) const override
    {
        return serving::RequestState::Unknown;
    }
    std::uint64_t
    cachedSessionTokens(std::uint32_t replica,
                        std::uint64_t session) const override
    {
        return session == 1 ? replicas[replica].cachedTokens : 0;
    }
    Seconds ttftDeadline() const override { return 2.0; }
};

/** Records every action; spawn/drain/route are assertion targets. */
class RecordingActions final : public sched::FleetActions
{
  public:
    std::vector<std::uint32_t> routes;
    std::vector<sched::ReplicaSpec> spawns;
    std::vector<std::uint32_t> drains;
    std::uint32_t sheds = 0;

    void routeTo(std::uint32_t replica) override
    {
        routes.push_back(replica);
    }
    void shed() override { ++sheds; }
    std::uint32_t steal(std::uint32_t, std::uint32_t,
                        std::uint32_t) override
    {
        return 0;
    }
    void preempt(std::uint32_t, std::uint64_t) override {}
    void migrate(std::uint64_t, std::uint32_t) override {}
    std::uint32_t
    spawnReplica(const sched::ReplicaSpec &spec) override
    {
        spawns.push_back(spec);
        return 0;
    }
    void requestDrain(std::uint32_t replica) override
    {
        drains.push_back(replica);
    }
};

sched::ReplicaModel
unitModel()
{
    sched::ReplicaModel model;
    model.maxBatch = 4;
    model.slotTokensPerSecond = 10.0; // Drain rate 40 tokens/s.
    model.prefillTokensPerSecond = 2560.0;
    return model;
}

TEST(Autoscale, ScalerSpawnsWithHysteresisAndCooldown)
{
    auto scaler = sched::makeTargetBacklogPolicy();
    EXPECT_EQ(scaler->name(), "target-backlog");
    EXPECT_TRUE(scaler->wants() & sched::ControlPolicy::kSpawn);
    EXPECT_TRUE(scaler->wants() & sched::ControlPolicy::kTick);
    EXPECT_GT(scaler->tickPeriod(), 0.0);

    scaler->begin();

    FakeFleetView view;
    view.replicas.push_back({unitModel(),
                             sched::ReplicaLifecycle::Active,
                             false, 4, 400.0, 0});

    // Backlog 400 over drain rate 40 * deadline 2 wants 5 replicas,
    // but hysteresis requires two agreeing ticks before acting.
    RecordingActions actions;
    scaler->onTick(1.0, view, actions);
    EXPECT_TRUE(actions.spawns.empty());
    scaler->onTick(2.0, view, actions);
    ASSERT_EQ(actions.spawns.size(), 1u);

    // The post-action cooldown damps the next spawn even though the
    // backlog still argues for it.
    scaler->onTick(3.0, view, actions);
    scaler->onTick(4.0, view, actions);
    EXPECT_EQ(actions.spawns.size(), 1u);
}

TEST(Autoscale, ScalerDrainsLeastLoadedButNeverTheLastActive)
{
    auto scaler = sched::makeTargetBacklogPolicy();
    scaler->begin();

    // Two Active replicas, no backlog: scale down after hysteresis,
    // draining the least-outstanding replica (ties break to the
    // highest index, so spawned replicas retire before the seed).
    FakeFleetView view;
    view.replicas.push_back({unitModel(),
                             sched::ReplicaLifecycle::Active,
                             false, 2, 0.0, 0});
    view.replicas.push_back({unitModel(),
                             sched::ReplicaLifecycle::Active,
                             false, 2, 0.0, 0});
    RecordingActions actions;
    scaler->onTick(1.0, view, actions);
    EXPECT_TRUE(actions.drains.empty());
    scaler->onTick(2.0, view, actions);
    ASSERT_EQ(actions.drains.size(), 1u);
    EXPECT_EQ(actions.drains[0], 1u);

    // One Active + one Warming over-provisioned fleet: warming
    // capacity cannot take traffic yet, so the scaler must not
    // drain the last routable replica.
    scaler->begin();
    view.replicas[0].lifecycle = sched::ReplicaLifecycle::Warming;
    RecordingActions guarded;
    scaler->onTick(1.0, view, guarded);
    scaler->onTick(2.0, view, guarded);
    scaler->onTick(3.0, view, guarded);
    EXPECT_TRUE(guarded.drains.empty());
}

TEST(Autoscale, AffinityConvertsCachedTokensThroughThePrefillRate)
{
    // The stick rule compares seconds, not tokens: 512 cached
    // tokens at 2560 prefill-tokens/s save 0.2 s, and the holder's
    // full-batch drain rate is 40 tokens/s, so sticking is worth at
    // most an 8-token backlog gap.  A raw 1:1 token comparison
    // (cached >= gap) would stick far more eagerly.
    auto affinity = sched::makeAffinityPolicy();
    affinity->begin();

    FakeFleetView view;
    view.replicas.push_back({unitModel(),
                             sched::ReplicaLifecycle::Active,
                             false, 3, 100.0, 512});
    view.replicas.push_back({unitModel(),
                             sched::ReplicaLifecycle::Active,
                             false, 0, 0.0, 0});

    sched::ArrivalContext arrival;
    arrival.requestId = 7;
    arrival.sessionId = 1;

    // Gap 100 tokens = 2.5 s of extra queueing against 0.2 s of
    // saved prefill: leave the holder (the old 1:1 rule, 512 >= 100,
    // would have stuck).
    RecordingActions balance;
    affinity->onArrival(arrival, view, balance);
    ASSERT_EQ(balance.routes.size(), 1u);
    EXPECT_EQ(balance.routes[0], 1u);

    // Gap 6 tokens = 0.15 s: the resident prefix now pays for the
    // deeper queue — stick.
    view.replicas[0].backlogTokens = 6.0;
    RecordingActions stick;
    affinity->onArrival(arrival, view, stick);
    ASSERT_EQ(stick.routes.size(), 1u);
    EXPECT_EQ(stick.routes[0], 0u);
}

// ---- Stealing and preemption over spawned replicas ----------------

/** The diurnal day the headline comparison below runs on. */
std::vector<serving::ServedRequest>
diurnalTrace()
{
    serving::ScenarioConfig scenario = serving::scenarioByName(
        "diurnal", 384, 3.2, 11);
    scenario.prompt = {64, 16, 0.0, 1.0};
    scenario.generate = {24, 8, 0.0, 1.0};
    scenario.diurnalPeriodSeconds = 120.0;
    scenario.diurnalDepth = 0.9;
    return serving::generateWorkload(scenario);
}

TEST(Autoscale, SloStealReadsSpawnedReplicaModels)
{
    // Regression: slo-steal used to copy the start-of-run models in
    // begin() and index that copy by replica, so a thief spawned
    // mid-run read past its end.  It reads view.model(r), which
    // covers spawned replicas.
    const auto trace = diurnalTrace();
    FleetConfig config = uniformFleet(1, fastConfig(4), fastServing(),
                                      nullptr, 10.0);
    config.control = sched::controlPolicyByName(
        "true-jsq+slo-steal+target-backlog");
    const auto report =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(report, trace.size());
    EXPECT_EQ(report.completed, trace.size());
    EXPECT_GT(report.kernelStats.spawnedReplicas, 1u);
    EXPECT_GT(report.kernelStats.steals, 0u);
}

TEST(Autoscale, PriorityPreemptReadsSpawnedReplicaModels)
{
    // The same regression for priority-preempt: over mixed
    // priorities, a full spawned replica with a higher-priority
    // request queued consults its model at every boundary.
    auto trace = diurnalTrace();
    for (std::size_t i = 0; i < trace.size(); i += 3)
        trace[i].priority = 1;
    FleetConfig config = uniformFleet(1, fastConfig(4), fastServing(),
                                      nullptr, 10.0);
    config.control = sched::controlPolicyByName(
        "true-jsq+priority-preempt+target-backlog");
    const auto report =
        FleetSimulator(config, model::opt13b()).run(trace);
    checkReportInvariants(report, trace.size());
    EXPECT_EQ(report.completed, trace.size());
    EXPECT_GT(report.kernelStats.spawnedReplicas, 1u);
}

// ---- The headline: scaler vs every fixed fleet size ---------------

TEST(Autoscale, ScalerBeatsEveryFixedFleetOnDiurnal)
{
    // A diurnal day: load swings between a deep valley and a peak
    // no small fixed fleet can absorb.  A fixed size must choose
    // between paying for peak capacity all day or missing the SLO
    // at rush hour; the target-backlog scaler provisions the peak
    // only while it lasts and drains back down in the valley —
    // lower total replica-seconds than every fixed size in the
    // bracketing sweep that matches its SLO attainment, and no
    // fixed size Pareto-dominates it.
    const auto trace = diurnalTrace();
    const Seconds deadline = 10.0;

    const auto run_fixed = [&](std::uint32_t replicas) {
        FleetConfig config = uniformFleet(
            replicas, fastConfig(4), fastServing(),
            nullptr, deadline);
        config.control = sched::controlPolicyByName("true-jsq");
        return FleetSimulator(config, model::opt13b()).run(trace);
    };
    const auto run_scaled = [&] {
        FleetConfig config = uniformFleet(
            1, fastConfig(4), fastServing(),
            nullptr, deadline);
        config.control = sched::composeControlPolicies(
            {sched::controlPolicyByName("true-jsq"),
             sched::makeTargetBacklogPolicy()});
        return FleetSimulator(config, model::opt13b()).run(trace);
    };

    const auto scaled = run_scaled();
    checkReportInvariants(scaled, trace.size());
    EXPECT_EQ(scaled.completed, trace.size());
    // The scaler actually scaled: replicas were spawned at the peak
    // and drained in the valley, repeatedly (two diurnal peaks).
    EXPECT_GT(scaled.kernelStats.spawnedReplicas, 1u);
    EXPECT_GT(scaled.kernelStats.retiredReplicas, 1u);
    // High absolute attainment — the scaler is not winning on cost
    // by shedding latency.
    EXPECT_GE(scaled.sloAttainment, 0.97);

    // A fixed-size fleet that never idles is a replica-seconds
    // floor (work conservation): nothing can serve the same token
    // volume in fewer busy seconds.  The scaler's claim is the
    // frontier one — no fixed size matches its SLO attainment
    // without paying more replica-seconds, and no fixed size
    // Pareto-dominates it.
    for (const std::uint32_t fixed_size : {1u, 2u, 3u, 4u, 5u}) {
        const auto fixed = run_fixed(fixed_size);
        EXPECT_EQ(fixed.completed, trace.size());
        if (fixed.sloAttainment >= scaled.sloAttainment) {
            // Equal-or-better SLO must cost strictly more.
            EXPECT_LT(scaled.replicaSeconds, fixed.replicaSeconds)
                << "fixed fleet of " << fixed_size << " ("
                << fixed.sloAttainment << " SLO, "
                << fixed.replicaSeconds
                << " rs) matches the scaler ("
                << scaled.sloAttainment << " SLO) for less than "
                << scaled.replicaSeconds << " rs";
        } else {
            // Cheaper fixed sizes must pay for it in attainment:
            // nobody dominates the scaler on both axes.
            EXPECT_TRUE(scaled.replicaSeconds <
                            fixed.replicaSeconds ||
                        scaled.sloAttainment > fixed.sloAttainment)
                << "fixed fleet of " << fixed_size << " ("
                << fixed.sloAttainment << " SLO, "
                << fixed.replicaSeconds
                << " rs) Pareto-dominates the scaler ("
                << scaled.sloAttainment << " SLO, "
                << scaled.replicaSeconds << " rs)";
        }
    }
}

} // namespace
} // namespace hermes::fleet
