/**
 * @file
 * Differential tests of the indexed control plane.  Every index —
 * sched::ReplicaIndex, the Router's shortest-queue index, and the
 * routing and stealing policies' indices fed by the kernel's change
 * list — is checked against the linear scan it replaces, query for
 * query and decision for decision, over seeded random fleets of
 * 1-1024 replicas with dead, draining, spawned and retired replicas.
 * Whole fleet runs then pin the built-in policies report-for-report
 * to linear reference policies on the real event kernel.
 */

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/fleet.hh"
#include "core/hermes.hh"
#include "core/workload.hh"
#include "sched/control_policy.hh"
#include "sched/replica_index.hh"
#include "sched/router.hh"

namespace hermes::sched {
namespace {

constexpr double kAbsent = ReplicaIndex::kAbsent;

/** Fleet sizes every differential test sweeps. */
std::vector<std::uint32_t>
fleetSizes(Rng &rng)
{
    std::vector<std::uint32_t> sizes = {1, 2, 3, 1024};
    for (int i = 0; i < 6; ++i)
        sizes.push_back(1 + static_cast<std::uint32_t>(rng.below(300)));
    return sizes;
}

/** The scan ReplicaIndex replaces: first minimum, kAbsent excluded. */
std::uint32_t
linearArgmin(const std::vector<double> &keys, std::uint32_t skip)
{
    auto pick = static_cast<std::uint32_t>(keys.size());
    double best = kAbsent;
    for (std::uint32_t i = 0; i < keys.size(); ++i) {
        if (i != skip && keys[i] < best) {
            best = keys[i];
            pick = i;
        }
    }
    return pick;
}

/** A small key range, so ties are everywhere. */
double
randomKey(Rng &rng)
{
    if (rng.chance(0.2))
        return kAbsent;
    if (rng.chance(0.02))
        return -std::numeric_limits<double>::infinity();
    return static_cast<double>(rng.below(7)) - 3.0;
}

TEST(ReplicaIndex, MatchesTheLinearFirstMinimumScan)
{
    Rng rng(41);
    for (const std::uint32_t n : fleetSizes(rng)) {
        ReplicaIndex index;
        std::vector<double> keys;
        EXPECT_EQ(index.argmin(), 0u); // Empty: argmin() == size().
        for (std::uint32_t r = 0; r < n; ++r) {
            keys.push_back(randomKey(rng));
            index.set(r, keys.back());
        }
        for (int op = 0; op < 1500; ++op) {
            if (rng.chance(0.01)) {
                // Autoscaled fleet: grow, new replicas start absent.
                const auto grown = static_cast<std::uint32_t>(
                    keys.size() + 1 + rng.below(40));
                index.resize(grown);
                keys.resize(grown, kAbsent);
            } else {
                const auto r = static_cast<std::uint32_t>(
                    rng.below(keys.size()));
                keys[r] = randomKey(rng);
                index.set(r, keys[r]);
            }
            ASSERT_EQ(index.size(), keys.size());
            const std::uint32_t none =
                std::numeric_limits<std::uint32_t>::max();
            ASSERT_EQ(index.argmin(), linearArgmin(keys, none))
                << n << " replicas, op " << op;
            const auto skip =
                static_cast<std::uint32_t>(rng.below(keys.size()));
            ASSERT_EQ(index.argminExcept(skip),
                      linearArgmin(keys, skip));
            ASSERT_EQ(index.key(skip), keys[skip]);
        }
    }
}

/**
 * A handful of shared calibrations, so estimated waits tie.  Every
 * duration is a dyadic rational: estimated finish times land
 * exactly on later arrival instants, the expiry edge case.
 */
ReplicaModel
randomModel(Rng &rng)
{
    ReplicaModel model;
    model.maxBatch = 1 + static_cast<std::uint32_t>(rng.below(4));
    model.prefillSeconds =
        static_cast<double>(rng.below(3)) / 16.0; // 0 included.
    model.slotTokensPerSecond =
        static_cast<double>(8u << rng.below(3));
    return model;
}

TEST(RouterIndex, ShortestQueueIndexMatchesTheLinearJsqScan)
{
    Rng rng(43);
    for (const std::uint32_t n : fleetSizes(rng)) {
        std::vector<ReplicaModel> models;
        for (std::uint32_t r = 0; r < n; ++r)
            models.push_back(randomModel(rng));
        Router indexed(RouterPolicy::JoinShortestQueue, models, 2.0);
        Router linear(RouterPolicy::JoinShortestQueue, models, 2.0);
        const double unroutable = rng.chance(0.5) ? 0.0 : 0.3;
        Seconds now = 0.0;
        const std::uint32_t arrivals = std::min(4 * n + 64, 3000u);
        for (std::uint32_t a = 0; a < arrivals; ++a) {
            // Ties on the clock are common (bursts), a replica with
            // zero prefill finishes a zero-token request at its
            // arrival instant, and on the 1/64 s grid estimated
            // finishes coincide with later arrivals.
            now += static_cast<double>(rng.below(4)) / 64.0;
            if (rng.chance(0.01)) {
                const ReplicaModel model = randomModel(rng);
                indexed.addReplica(model);
                linear.addReplica(model);
            }
            if (rng.chance(0.2)) {
                const auto r = static_cast<std::uint32_t>(
                    rng.below(indexed.replicaCount()));
                const bool routable = !rng.chance(unroutable);
                indexed.setRoutable(r, routable);
                linear.setRoutable(r, routable);
            }
            const auto tokens =
                static_cast<std::uint32_t>(rng.below(40));
            const RouteDecision got =
                indexed.routeShortestQueue(now, tokens);
            const RouteDecision want =
                linear.route(now, tokens);
            ASSERT_EQ(got.replica, want.replica)
                << n << " replicas, arrival " << a;
            ASSERT_EQ(got.estimatedTtft, want.estimatedTtft);
        }
    }
    // Only a JoinShortestQueue router keeps the index.
    Router tokens(RouterPolicy::LeastOutstandingTokens,
                  {ReplicaModel{}}, 2.0);
    EXPECT_THROW(tokens.routeShortestQueue(0.0, 1), std::logic_error);
}

/**
 * A scriptable FleetView over random replica state, with the
 * kernel's change list: every mutation lists the replica once.
 */
class RandomFleet final : public FleetView
{
  public:
    struct Replica
    {
        ReplicaModel model;
        ReplicaLifecycle lifecycle = ReplicaLifecycle::Active;
        bool busy = false;
        bool probed = true;
        bool dead = false;
        std::uint32_t running = 0;
        std::uint32_t queued = 0;
        double backlogTokens = 0.0;
    };

    explicit RandomFleet(std::uint64_t seed) : rng(seed) {}

    Rng rng;
    std::vector<Replica> replicas;
    std::vector<std::uint32_t> changed;

    void
    mark(std::uint32_t r)
    {
        if (std::find(changed.begin(), changed.end(), r) ==
            changed.end())
            changed.push_back(r);
    }

    /** Re-draw one replica's state (lifecycle walks legally). */
    void
    mutate(std::uint32_t r)
    {
        Replica &replica = replicas[r];
        replica.busy = rng.chance(0.5);
        replica.queued = static_cast<std::uint32_t>(rng.below(5));
        replica.running = static_cast<std::uint32_t>(rng.below(3));
        replica.backlogTokens =
            static_cast<double>(rng.below(6)) * 8.0;
        if (!replica.probed && rng.chance(0.3)) {
            replica.probed = true;
            replica.dead = rng.chance(0.2);
        }
        if (rng.chance(0.05)) {
            switch (replica.lifecycle) {
            case ReplicaLifecycle::Provisioning:
                replica.lifecycle = ReplicaLifecycle::Warming;
                break;
            case ReplicaLifecycle::Warming:
                replica.lifecycle = ReplicaLifecycle::Active;
                break;
            case ReplicaLifecycle::Active:
                replica.lifecycle = ReplicaLifecycle::Draining;
                break;
            case ReplicaLifecycle::Draining:
                replica.lifecycle = ReplicaLifecycle::Retired;
                break;
            case ReplicaLifecycle::Retired:
                break;
            }
        }
        mark(r);
    }

    /** An autoscaler spawn: a Provisioning, unprobed replica. */
    void
    spawn(const ReplicaModel &model)
    {
        Replica replica;
        replica.model = model;
        replica.lifecycle = ReplicaLifecycle::Provisioning;
        replica.probed = false;
        replicas.push_back(replica);
        mark(static_cast<std::uint32_t>(replicas.size() - 1));
    }

    std::uint32_t replicaCount() const override
    {
        return static_cast<std::uint32_t>(replicas.size());
    }
    const ReplicaModel &model(std::uint32_t r) const override
    {
        return replicas.at(r).model;
    }
    bool busy(std::uint32_t r) const override
    {
        return replicas.at(r).busy;
    }
    bool knownServable(std::uint32_t r) const override
    {
        return replicas.at(r).probed && !replicas.at(r).dead;
    }
    bool knownDead(std::uint32_t r) const override
    {
        return replicas.at(r).probed && replicas.at(r).dead;
    }
    ReplicaLifecycle lifecycle(std::uint32_t r) const override
    {
        return replicas.at(r).lifecycle;
    }
    ReplicaSpec replicaSpec(std::uint32_t) const override
    {
        return ReplicaSpec{};
    }
    std::uint32_t queuedCount(std::uint32_t r) const override
    {
        return replicas.at(r).queued;
    }
    std::uint32_t
    observedOutstanding(std::uint32_t r) const override
    {
        return replicas.at(r).queued + replicas.at(r).running;
    }
    double observedBacklogTokens(std::uint32_t r) const override
    {
        return replicas.at(r).backlogTokens;
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
    std::uint64_t cachedSessionTokens(std::uint32_t,
                                      std::uint64_t) const override
    {
        return 0;
    }
    Seconds ttftDeadline() const override { return 2.0; }
};

/** Records the one decision a hook made. */
class DecisionRecorder final : public FleetActions
{
  public:
    /** routeTo target, -1 for shed, -2 for no decision. */
    int routed = -2;
    std::uint32_t thief = 0;
    std::uint32_t victim = 0;
    std::uint32_t count = 0; ///< 0: no steal.

    void routeTo(std::uint32_t replica) override
    {
        routed = static_cast<int>(replica);
    }
    void shed() override { routed = -1; }
    std::uint32_t steal(std::uint32_t t, std::uint32_t v,
                        std::uint32_t c) override
    {
        thief = t;
        victim = v;
        count = c;
        return c;
    }
    void preempt(std::uint32_t, std::uint64_t) override {}
    void migrate(std::uint64_t, std::uint32_t) override {}
    std::uint32_t spawnReplica(const ReplicaSpec &) override
    {
        return 0;
    }
    void requestDrain(std::uint32_t) override {}
};

/**
 * The linear victim scans the indexed stealing policies must match
 * (greedy: deepest queue; slo: worst estimated wait, stealing only
 * when the thief's prefill beats it).  Returns the steal as a
 * recorder.
 */
DecisionRecorder
linearSteal(bool slo, std::uint32_t replica, const FleetView &view)
{
    DecisionRecorder out;
    if (!view.knownServable(replica) || view.draining(replica))
        return out;
    const std::uint32_t n = view.replicaCount();
    std::uint32_t victim = n;
    std::uint32_t victim_queued = 0;
    double worst = 0.0;
    for (std::uint32_t v = 0; v < n; ++v) {
        if (v == replica || (!view.busy(v) && !view.knownDead(v)))
            continue;
        const std::uint32_t queued = view.queuedCount(v);
        if (queued == 0)
            continue;
        double score = static_cast<double>(queued);
        if (slo && view.knownDead(v)) {
            score = std::numeric_limits<double>::infinity();
        } else if (slo) {
            const ReplicaModel &model = view.model(v);
            const double drain_rate =
                std::max(model.slotTokensPerSecond, 1.0e-9) *
                std::max(model.maxBatch, 1u);
            score = view.observedBacklogTokens(v) / drain_rate +
                    model.prefillSeconds;
        }
        if (victim == n || score > worst) {
            worst = score;
            victim = v;
            victim_queued = queued;
        }
    }
    if (victim == n)
        return out;
    if (slo && view.model(replica).prefillSeconds >= worst)
        return out;
    out.thief = replica;
    out.victim = victim;
    out.count = std::min((victim_queued + 1) / 2,
                         std::max<std::uint32_t>(
                             view.maxBatch(replica), 1));
    return out;
}

TEST(PolicyIndex, RoutingAndStealingMatchTheLinearScans)
{
    Rng sizes(47);
    std::uint64_t seed = 100;
    for (const std::uint32_t n : fleetSizes(sizes)) {
        RandomFleet fleet(seed++);
        for (std::uint32_t r = 0; r < n; ++r) {
            fleet.replicas.push_back({});
            fleet.replicas.back().model = randomModel(fleet.rng);
            fleet.replicas.back().probed = !fleet.rng.chance(0.1);
            fleet.replicas.back().dead =
                fleet.replicas.back().probed && fleet.rng.chance(0.1);
            fleet.mutate(r);
        }
        std::vector<ReplicaModel> models;
        for (const auto &replica : fleet.replicas)
            models.push_back(replica.model);

        const auto true_jsq = controlPolicyByName("true-jsq");
        const auto backlog = controlPolicyByName("least-backlog");
        const auto greedy = controlPolicyByName("greedy-steal");
        const auto slo = controlPolicyByName("slo-steal");
        const std::vector<ControlPolicy *> indexed = {
            true_jsq.get(), backlog.get(), greedy.get(), slo.get()};
        for (ControlPolicy *policy : indexed) {
            ASSERT_TRUE(policy->wants() &
                        ControlPolicy::kReplicaChanges);
            policy->begin();
        }
        Router ref_jsq(RouterPolicy::TrueJsq, models, 2.0);
        Router ref_backlog(RouterPolicy::LeastActualBacklog, models,
                           2.0);

        const std::uint32_t rounds = std::min(3 * n + 40, 1200u);
        for (std::uint32_t round = 0; round < rounds; ++round) {
            const auto mutations = 1 + fleet.rng.below(4);
            for (std::uint64_t m = 0; m < mutations; ++m)
                fleet.mutate(static_cast<std::uint32_t>(
                    fleet.rng.below(fleet.replicas.size())));
            if (fleet.rng.chance(0.02)) {
                fleet.spawn(randomModel(fleet.rng));
                ref_jsq.addReplica(fleet.replicas.back().model);
                ref_backlog.addReplica(fleet.replicas.back().model);
            }
            // The kernel's flush: every subscriber sees the list.
            for (ControlPolicy *policy : indexed)
                policy->onReplicasChanged(fleet.changed, fleet);
            fleet.changed.clear();

            std::vector<ReplicaObservation> observed;
            for (std::uint32_t r = 0; r < fleet.replicaCount(); ++r) {
                observed.push_back(
                    {fleet.observedOutstanding(r),
                     fleet.observedBacklogTokens(r)});
                const bool active =
                    fleet.lifecycle(r) == ReplicaLifecycle::Active;
                ref_jsq.setRoutable(r, active);
                ref_backlog.setRoutable(r, active);
            }
            const ArrivalContext arrival{};
            for (const auto &[policy, reference] :
                 {std::pair{true_jsq.get(), &ref_jsq},
                  std::pair{backlog.get(), &ref_backlog}}) {
                DecisionRecorder got;
                policy->onArrival(arrival, fleet, got);
                const int want =
                    reference->route(0.0, 1, &observed).replica;
                ASSERT_EQ(got.routed, want)
                    << policy->name() << ", " << n
                    << " replicas, round " << round;
            }

            const auto thief = static_cast<std::uint32_t>(
                fleet.rng.below(fleet.replicas.size()));
            for (const bool use_slo : {false, true}) {
                DecisionRecorder got;
                (use_slo ? slo : greedy)
                    ->onReplicaIdle(thief, 0.0, fleet, got);
                const DecisionRecorder want =
                    linearSteal(use_slo, thief, fleet);
                ASSERT_EQ(got.count, want.count)
                    << (use_slo ? "slo" : "greedy") << ", " << n
                    << " replicas, round " << round;
                if (want.count > 0) {
                    ASSERT_EQ(got.thief, want.thief);
                    ASSERT_EQ(got.victim, want.victim);
                }
            }
        }
    }
}

// ---- Whole fleet runs against linear reference policies -----------

/**
 * The pre-index routing adapter: a Router that rebuilds its routable
 * flags and, for the feedback policies, its observations from the
 * view on every arrival — no change list.
 */
class LinearRouterPolicy final : public ControlPolicy
{
  public:
    explicit LinearRouterPolicy(RouterPolicy policy) : policy_(policy)
    {
    }

    std::string name() const override
    {
        return routerPolicyName(policy_);
    }
    void begin() override { router_.reset(); }
    void onArrival(const ArrivalContext &context,
                   const FleetView &view,
                   FleetActions &actions) override
    {
        const std::uint32_t n = view.replicaCount();
        if (!router_)
            router_ = std::make_unique<Router>(
                policy_, std::vector<ReplicaModel>{view.model(0)},
                view.ttftDeadline());
        while (router_->replicaCount() < n)
            router_->addReplica(view.model(router_->replicaCount()));
        std::vector<ReplicaObservation> observed(n);
        for (std::uint32_t r = 0; r < n; ++r) {
            router_->setRoutable(
                r, view.lifecycle(r) == ReplicaLifecycle::Active);
            observed[r] = {view.observedOutstanding(r),
                           view.observedBacklogTokens(r)};
        }
        const int chosen =
            router_
                ->route(context.arrival, context.generateTokens,
                        &observed)
                .replica;
        if (chosen < 0)
            actions.shed();
        else
            actions.routeTo(static_cast<std::uint32_t>(chosen));
    }

  private:
    RouterPolicy policy_;
    std::unique_ptr<Router> router_;
};

/** The pre-index stealing policies: a linear victim scan per idle. */
class LinearStealPolicy final : public ControlPolicy
{
  public:
    explicit LinearStealPolicy(bool slo) : slo_(slo) {}

    std::string name() const override
    {
        return slo_ ? "slo-steal" : "greedy-steal";
    }
    std::uint32_t wants() const override { return kIdle; }
    void onReplicaIdle(std::uint32_t replica, Seconds,
                       const FleetView &view,
                       FleetActions &actions) override
    {
        const DecisionRecorder steal =
            linearSteal(slo_, replica, view);
        if (steal.count > 0)
            actions.steal(steal.thief, steal.victim, steal.count);
    }

  private:
    bool slo_;
};

/** Run one fleet under `control`; everything a decision touches. */
fleet::FleetReport
runFleet(const fleet::FleetConfig &base,
         std::shared_ptr<ControlPolicy> control,
         const std::vector<serving::ServedRequest> &trace)
{
    fleet::FleetConfig config = base;
    config.control = std::move(control);
    return fleet::FleetSimulator(config, model::opt13b()).run(trace);
}

void
expectSameRun(const fleet::FleetReport &got,
              const fleet::FleetReport &want)
{
    ASSERT_EQ(got.assignment, want.assignment);
    ASSERT_EQ(got.requests.size(), want.requests.size());
    for (std::size_t i = 0; i < got.requests.size(); ++i) {
        const serving::RequestMetrics &a = got.requests[i];
        const serving::RequestMetrics &b = want.requests[i];
        ASSERT_EQ(a.id, b.id);
        ASSERT_EQ(a.rejected, b.rejected);
        ASSERT_EQ(a.admitted, b.admitted);
        ASSERT_EQ(a.firstToken, b.firstToken);
        ASSERT_EQ(a.completed, b.completed);
        ASSERT_EQ(a.tokens, b.tokens);
    }
    EXPECT_EQ(got.shed, want.shed);
    EXPECT_EQ(got.kernelStats.events.popped(),
              want.kernelStats.events.popped());
    EXPECT_EQ(got.kernelStats.steals, want.kernelStats.steals);
    EXPECT_EQ(got.kernelStats.stolenRequests,
              want.kernelStats.stolenRequests);
    EXPECT_EQ(got.kernelStats.migrations,
              want.kernelStats.migrations);
    EXPECT_EQ(got.kernelStats.spawnedReplicas,
              want.kernelStats.spawnedReplicas);
    EXPECT_EQ(got.kernelStats.retiredReplicas,
              want.kernelStats.retiredReplicas);
    EXPECT_EQ(got.replicaSeconds, want.replicaSeconds);
}

/**
 * Run `name` under the target-backlog autoscaling stack, check it
 * spawned and matches the same stack over the linear references,
 * and return the run.
 */
fleet::FleetReport
runAutoscaled(const fleet::FleetConfig &config, const std::string &name,
              RouterPolicy router,
              const std::vector<serving::ServedRequest> &trace)
{
    const auto got = runFleet(
        config,
        controlPolicyByName(name +
                            "+slo-steal+target-backlog+drain-migrate"),
        trace);
    EXPECT_GT(got.kernelStats.spawnedReplicas, 0u);
    expectSameRun(
        got, runFleet(config,
                      composeControlPolicies(
                          {std::make_shared<LinearRouterPolicy>(router),
                           std::make_shared<LinearStealPolicy>(true),
                           makeTargetBacklogPolicy(),
                           makeDrainMigratePolicy()}),
                      trace));
    return got;
}

TEST(PolicyIndex, FleetRunsMatchLinearReferencePolicies)
{
    // A bursty trace over a heterogeneous fleet with a dead replica
    // (routed to by the feedback policies until its queue shows)
    // keeps queues, steals and ties busy.
    serving::ScenarioConfig scenario;
    scenario.process = serving::ArrivalProcess::Bursty;
    scenario.requests = 96;
    scenario.ratePerSecond = 24.0;
    scenario.burstiness = 6.0;
    scenario.prompt = {64, 16, 0.0, 1.0};
    scenario.generate = {8, 4, 0.0, 1.0};
    scenario.seed = 13;
    const auto trace = serving::generateWorkload(scenario);

    fleet::FleetConfig fixed;
    fixed.ttftDeadline = 4.0;
    fleet::ReplicaConfig fast;
    fast.system = fastConfig(4);
    fast.serving.maxBatch = 2;
    fast.serving.calibrationTokens = 4;
    fleet::ReplicaConfig wide = fast;
    wide.serving.maxBatch = 4;
    fleet::ReplicaConfig dead = fast;
    dead.system.numDimms = 0;
    fixed.replicas = {fast, wide, dead, fast, wide};

    const auto linear = [](RouterPolicy router,
                           std::vector<bool> slo_steals) {
        std::vector<std::shared_ptr<ControlPolicy>> children = {
            std::make_shared<LinearRouterPolicy>(router)};
        for (const bool slo : slo_steals)
            children.push_back(
                std::make_shared<LinearStealPolicy>(slo));
        return composeControlPolicies(children);
    };
    // Two stealers in one composite: the second ranks victims only
    // after the kernel flushed the first one's steal into its index.
    for (const auto &[name, reference] :
         {std::pair{"true-jsq+slo-steal",
                    linear(RouterPolicy::TrueJsq, {true})},
          std::pair{"least-backlog+greedy-steal+slo-steal",
                    linear(RouterPolicy::LeastActualBacklog,
                           {false, true})},
          std::pair{"jsq+greedy-steal",
                    linear(RouterPolicy::JoinShortestQueue,
                           {false})},
          std::pair{"round-robin+greedy-steal",
                    linear(RouterPolicy::RoundRobin, {false})},
          std::pair{"least-tokens+slo-steal",
                    linear(RouterPolicy::LeastOutstandingTokens,
                           {true})},
          std::pair{"slo-aware+greedy-steal",
                    linear(RouterPolicy::SloAware, {false})}}) {
        SCOPED_TRACE(name);
        const auto got =
            runFleet(fixed, controlPolicyByName(name), trace);
        EXPECT_GT(got.kernelStats.steals, 0u);
        expectSameRun(got, runFleet(fixed, reference, trace));
    }

    // Autoscaled: the target-backlog scaler spawns replicas that
    // walk Provisioning → Warming → Active — every lifecycle
    // transition rides the change list.  On the burst above the
    // backlog outruns the spawns, so they drain back (drain-migrate
    // evacuates, the kernel retires) — except under slo-aware, which
    // sheds most of the burst at the door instead.  Arrivals end
    // before any spawn goes Active, so a slower stream, still
    // arriving once they are, checks that the routers pick them up.
    fleet::FleetConfig scaled = fixed;
    scaled.replicas = {fast};
    serving::ScenarioConfig slower = scenario;
    slower.ratePerSecond = 6.0;
    const auto stream = serving::generateWorkload(slower);
    for (const auto &[name, router, sheds] :
         {std::tuple{"true-jsq", RouterPolicy::TrueJsq, false},
          std::tuple{"jsq", RouterPolicy::JoinShortestQueue, false},
          std::tuple{"round-robin", RouterPolicy::RoundRobin, false},
          std::tuple{"least-tokens",
                     RouterPolicy::LeastOutstandingTokens, false},
          std::tuple{"slo-aware", RouterPolicy::SloAware, true}}) {
        SCOPED_TRACE(name);
        const auto burst = runAutoscaled(scaled, name, router, trace);
        if (sheds)
            EXPECT_GT(burst.shed, 0u);
        else
            EXPECT_GT(burst.kernelStats.drainRequests, 0u);
        const auto steady = runAutoscaled(scaled, name, router, stream);
        EXPECT_GT(std::count_if(steady.assignment.begin(),
                                steady.assignment.end(),
                                [](int replica) { return replica > 0; }),
                  0);
    }
}

/**
 * Audits the change-list contract on the real kernel: a shadow copy
 * of every replica's observable state, refreshed only from
 * onReplicasChanged, must equal the live view at every hook.
 * Composed first and last, it checks both the flush at hook entry
 * and the flush after another policy's verb.
 */
class ChangeListAuditor final : public ControlPolicy
{
  public:
    struct State
    {
        ReplicaLifecycle lifecycle = ReplicaLifecycle::Active;
        bool busy = false;
        bool servable = false;
        bool dead = false;
        bool draining = false;
        std::uint32_t queued = 0;
        std::uint32_t outstanding = 0;
        double backlogTokens = 0.0;

        bool operator==(const State &) const = default;
    };

    std::uint64_t audits = 0;
    std::uint64_t mismatches = 0;

    std::string name() const override { return "audit"; }
    std::uint32_t wants() const override
    {
        return kReplicaEvents | kIdle | kDead | kTick |
               kReplicaChanges;
    }
    void begin() override { shadow_.clear(); }
    void onReplicasChanged(const std::vector<std::uint32_t> &replicas,
                           const FleetView &view) override
    {
        for (const std::uint32_t r : replicas) {
            if (shadow_.size() <= r)
                shadow_.resize(r + 1);
            shadow_[r] = sample(view, r);
        }
    }
    void onArrival(const ArrivalContext &, const FleetView &view,
                   FleetActions &) override
    {
        audit(view);
    }
    void onPrefillComplete(std::uint32_t, Seconds,
                           const FleetView &view,
                           FleetActions &) override
    {
        audit(view);
    }
    void onStepComplete(std::uint32_t, Seconds, const FleetView &view,
                        FleetActions &) override
    {
        audit(view);
    }
    void onReplicaIdle(std::uint32_t, Seconds, const FleetView &view,
                       FleetActions &) override
    {
        audit(view);
    }
    void onReplicaDead(std::uint32_t, Seconds, const FleetView &view,
                       FleetActions &) override
    {
        audit(view);
    }
    void onTick(Seconds, const FleetView &view, FleetActions &) override
    {
        audit(view);
    }

  private:
    static State
    sample(const FleetView &view, std::uint32_t r)
    {
        return State{view.lifecycle(r),         view.busy(r),
                     view.knownServable(r),     view.knownDead(r),
                     view.draining(r),          view.queuedCount(r),
                     view.observedOutstanding(r),
                     view.observedBacklogTokens(r)};
    }

    void
    audit(const FleetView &view)
    {
        ++audits;
        if (shadow_.size() != view.replicaCount()) {
            ++mismatches;
            return;
        }
        for (std::uint32_t r = 0; r < view.replicaCount(); ++r)
            mismatches += shadow_[r] == sample(view, r) ? 0 : 1;
    }

    std::vector<State> shadow_;
};

/**
 * Drains one spawned replica that still holds work, once, at its
 * decode boundary: a drain whose retire comes later, at an idle
 * boundary, after drain-migrate evacuated the replica.
 */
class DrainHoldingReplicaOnce final : public ControlPolicy
{
  public:
    std::string name() const override { return "drain-holding"; }
    std::uint32_t wants() const override { return kReplicaEvents; }
    void begin() override { done_ = false; }
    void onStepComplete(std::uint32_t replica, Seconds,
                        const FleetView &view,
                        FleetActions &actions) override
    {
        if (done_ || replica < 2 ||
            view.lifecycle(replica) != ReplicaLifecycle::Active ||
            view.observedOutstanding(replica) == 0)
            return;
        done_ = true;
        actions.requestDrain(replica);
    }

  private:
    bool done_ = false;
};

TEST(ChangeList, EveryStateChangeReachesTheSubscriber)
{
    // Every verb and transition in one run: two stealers,
    // preemption over mixed priorities, spawns walking Provisioning
    // → Warming → Active, drains that migrate work out and retire.
    serving::ScenarioConfig scenario;
    scenario.process = serving::ArrivalProcess::Bursty;
    scenario.requests = 160;
    scenario.ratePerSecond = 4.0;
    scenario.burstiness = 6.0;
    scenario.prompt = {64, 16, 0.0, 1.0};
    scenario.generate = {12, 4, 0.0, 1.0};
    scenario.seed = 23;
    auto trace = serving::generateWorkload(scenario);
    for (std::size_t i = 0; i < trace.size(); i += 3)
        trace[i].priority = 1;

    fleet::FleetConfig config;
    config.ttftDeadline = 1.0;
    fleet::ReplicaConfig fast;
    fast.system = fastConfig(4);
    fast.serving.maxBatch = 2;
    fast.serving.calibrationTokens = 4;
    config.replicas = {fast, fast};

    const auto auditor = std::make_shared<ChangeListAuditor>();
    config.control = composeControlPolicies(
        {auditor, std::make_shared<DrainHoldingReplicaOnce>(), auditor,
         controlPolicyByName("true-jsq+greedy-steal+slo-steal+"
                             "priority-preempt+target-backlog+"
                             "drain-migrate"),
         auditor});
    const auto report =
        fleet::FleetSimulator(config, model::opt13b()).run(trace);
    const fleet::KernelStats &stats = report.kernelStats;
    EXPECT_GT(stats.stolenRequests, 0u);
    EXPECT_GT(stats.preemptions, 0u);
    EXPECT_GT(stats.migrations, 0u);
    EXPECT_GT(stats.spawnedReplicas, 0u);
    EXPECT_GT(stats.drainRequests, 1u);
    EXPECT_GT(stats.retiredReplicas, 1u);
    EXPECT_GT(auditor->audits, 1000u);
    EXPECT_EQ(auditor->mismatches, 0u);
}

} // namespace
} // namespace hermes::sched
