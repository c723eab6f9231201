/**
 * @file
 * Multi-step decode spans, differentially: the fleet kernel runs a
 * replica's quiet decode boundaries as one queued span unless its
 * policy wants kReplicaEvents or kStepState.  Wrapping a policy so
 * that it also wants kStepState forces one event per boundary; the
 * report must not change by a single bit — every request row, every
 * aggregate, the logical event counts, the billing clock and the
 * calibration tapes.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fleet.hh"
#include "core/hermes.hh"
#include "core/workload.hh"

namespace hermes::fleet {
namespace {

using sched::ControlPolicy;

/**
 * `inner` with kStepState added to its wants(): the kernel then
 * takes every decode boundary as its own event.  Same name, same
 * hooks, same decisions.
 */
class StepStatePolicy final : public ControlPolicy
{
  public:
    explicit StepStatePolicy(std::shared_ptr<ControlPolicy> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }
    std::uint32_t wants() const override
    {
        return inner_->wants() | kStepState;
    }
    Seconds tickPeriod() const override { return inner_->tickPeriod(); }
    void begin() override { inner_->begin(); }
    void onArrival(const sched::ArrivalContext &context,
                   const sched::FleetView &view,
                   sched::FleetActions &actions) override
    {
        inner_->onArrival(context, view, actions);
    }
    void onPrefillComplete(std::uint32_t replica, Seconds now,
                           const sched::FleetView &view,
                           sched::FleetActions &actions) override
    {
        inner_->onPrefillComplete(replica, now, view, actions);
    }
    void onStepComplete(std::uint32_t replica, Seconds now,
                        const sched::FleetView &view,
                        sched::FleetActions &actions) override
    {
        inner_->onStepComplete(replica, now, view, actions);
    }
    void onReplicaIdle(std::uint32_t replica, Seconds now,
                       const sched::FleetView &view,
                       sched::FleetActions &actions) override
    {
        inner_->onReplicaIdle(replica, now, view, actions);
    }
    void onReplicaDead(std::uint32_t replica, Seconds now,
                       const sched::FleetView &view,
                       sched::FleetActions &actions) override
    {
        inner_->onReplicaDead(replica, now, view, actions);
    }
    void onTick(Seconds now, const sched::FleetView &view,
                sched::FleetActions &actions) override
    {
        inner_->onTick(now, view, actions);
    }
    void onReplicasChanged(const std::vector<std::uint32_t> &replicas,
                           const sched::FleetView &view) override
    {
        inner_->onReplicasChanged(replicas, view);
    }

  private:
    std::shared_ptr<ControlPolicy> inner_;
};

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

void
expectSameEvents(const sim::EventStats &a, const sim::EventStats &b)
{
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.requestsDone, b.requestsDone);
    EXPECT_EQ(a.prefills, b.prefills);
    EXPECT_EQ(a.decodeSteps, b.decodeSteps);
    EXPECT_EQ(a.wakes, b.wakes);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.resumes, b.resumes);
    EXPECT_EQ(a.sessionContinues, b.sessionContinues);
    EXPECT_EQ(a.replicaReadies, b.replicaReadies);
    EXPECT_EQ(a.popped(), b.popped());
}

/** Every deterministic field of two reports, bit for bit. */
void
expectBitIdentical(const FleetReport &a, const FleetReport &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(bits(a.ttftDeadline), bits(b.ttftDeadline));
    ASSERT_EQ(a.replicaReports.size(), b.replicaReports.size());
    for (std::size_t r = 0; r < a.replicaReports.size(); ++r) {
        SCOPED_TRACE("replica " + std::to_string(r));
        const serving::ServingReport &x = a.replicaReports[r];
        const serving::ServingReport &y = b.replicaReports[r];
        EXPECT_EQ(x.engine, y.engine);
        EXPECT_EQ(x.requests.size(), y.requests.size());
        EXPECT_EQ(x.completed, y.completed);
        EXPECT_EQ(x.rejected, y.rejected);
        EXPECT_EQ(x.peakBatch, y.peakBatch);
        EXPECT_EQ(x.costModelSaturated, y.costModelSaturated);
        for (const auto &[u, v] :
             {std::pair{x.makespan, y.makespan},
              std::pair{x.throughputTps, y.throughputTps},
              std::pair{x.meanBatchOccupancy, y.meanBatchOccupancy},
              std::pair{x.p50TokenLatency, y.p50TokenLatency},
              std::pair{x.p90TokenLatency, y.p90TokenLatency},
              std::pair{x.p99TokenLatency, y.p99TokenLatency},
              std::pair{x.p50Ttft, y.p50Ttft},
              std::pair{x.p99Ttft, y.p99Ttft}})
            EXPECT_EQ(bits(u), bits(v));
    }
    EXPECT_EQ(a.replicaNames, b.replicaNames);
    ASSERT_EQ(a.replicaActiveSeconds.size(),
              b.replicaActiveSeconds.size());
    for (std::size_t r = 0; r < a.replicaActiveSeconds.size(); ++r)
        EXPECT_EQ(bits(a.replicaActiveSeconds[r]),
                  bits(b.replicaActiveSeconds[r]))
            << "replica " << r;
    EXPECT_EQ(a.assignment, b.assignment);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        const serving::RequestMetrics &x = a.requests[i];
        const serving::RequestMetrics &y = b.requests[i];
        ASSERT_EQ(x.id, y.id);
        EXPECT_EQ(x.rejected, y.rejected) << "request " << x.id;
        EXPECT_EQ(bits(x.arrival), bits(y.arrival)) << x.id;
        EXPECT_EQ(bits(x.admitted), bits(y.admitted)) << x.id;
        EXPECT_EQ(bits(x.firstToken), bits(y.firstToken)) << x.id;
        EXPECT_EQ(bits(x.completed), bits(y.completed)) << x.id;
        EXPECT_EQ(x.tokens, y.tokens) << x.id;
        EXPECT_EQ(x.priority, y.priority) << x.id;
        EXPECT_EQ(x.preemptions, y.preemptions) << x.id;
        EXPECT_EQ(x.migrations, y.migrations) << x.id;
    }
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.costModelSaturated, b.costModelSaturated);
    for (const auto &[u, v] :
         {std::pair{a.replicaSeconds, b.replicaSeconds},
          std::pair{a.costPerRequest, b.costPerRequest},
          std::pair{a.makespan, b.makespan},
          std::pair{a.throughputTps, b.throughputTps},
          std::pair{a.p50Ttft, b.p50Ttft},
          std::pair{a.p99Ttft, b.p99Ttft},
          std::pair{a.sloAttainment, b.sloAttainment}})
        EXPECT_EQ(bits(u), bits(v));

    const KernelStats &x = a.kernelStats;
    const KernelStats &y = b.kernelStats;
    expectSameEvents(x.events, y.events);
    EXPECT_EQ(x.steals, y.steals);
    EXPECT_EQ(x.stolenRequests, y.stolenRequests);
    EXPECT_EQ(x.preemptions, y.preemptions);
    EXPECT_EQ(x.migrations, y.migrations);
    EXPECT_EQ(bits(x.kvTransferSeconds), bits(y.kvTransferSeconds));
    EXPECT_EQ(x.drainRequests, y.drainRequests);
    EXPECT_EQ(x.spawnedReplicas, y.spawnedReplicas);
    EXPECT_EQ(x.retiredReplicas, y.retiredReplicas);
    EXPECT_EQ(x.calibrationTapes, y.calibrationTapes);
}

/**
 * Run `input` (a request trace or a session trace) under `control`
 * and under its kStepState wrapper, each on a fresh fleet; expect
 * bit-identical reports and return the unwrapped run.  `spans`: the
 * policy itself runs decode spans, so its queue pops fall below its
 * logical events (beyond the plain trace's uncounted completions);
 * the wrapped run always pops every other event it counts.
 */
template <typename Input>
FleetReport
expectSpansInvisible(FleetConfig config,
                     std::shared_ptr<ControlPolicy> control,
                     const Input &input, bool spans,
                     const model::LlmConfig &llm = model::opt13b())
{
    SCOPED_TRACE(control->name());
    config.control = std::make_shared<StepStatePolicy>(control);
    const FleetReport forced = FleetSimulator(config, llm).run(input);
    config.control = std::move(control);
    const FleetReport spanned = FleetSimulator(config, llm).run(input);
    expectBitIdentical(spanned, forced);

    // Session completions stay queued (they schedule follow-ups);
    // a plain trace's are counted without a queue round trip.
    constexpr bool kSessions =
        std::is_same_v<Input, serving::SessionTrace>;
    const auto queued = [&](const KernelStats &stats) {
        return stats.queuePops +
               (kSessions ? 0 : stats.events.requestsDone);
    };
    EXPECT_EQ(queued(forced.kernelStats),
              forced.kernelStats.events.popped());
    if (spans)
        EXPECT_LT(queued(spanned.kernelStats),
                  spanned.kernelStats.events.popped());
    else
        EXPECT_EQ(queued(spanned.kernelStats),
                  spanned.kernelStats.events.popped());
    return spanned;
}

ReplicaConfig
replica(std::uint32_t max_batch, bool dead = false)
{
    ReplicaConfig config;
    config.system = fastConfig(4);
    if (dead)
        config.system.numDimms = 0; // Hermes needs its DIMM pool.
    config.serving.maxBatch = max_batch;
    config.serving.calibrationTokens = 4;
    // Narrow context buckets: decode crosses several mid-run, so
    // span plans meet cost-surface misses inside the loop.
    config.serving.seqBucket = 32;
    return config;
}

std::vector<serving::ServedRequest>
burstyTrace(std::uint32_t requests, double rate, std::uint64_t seed)
{
    serving::ScenarioConfig scenario;
    scenario.process = serving::ArrivalProcess::Bursty;
    scenario.requests = requests;
    scenario.ratePerSecond = rate;
    scenario.burstiness = 6.0;
    scenario.prompt = {64, 16, 0.0, 1.0};
    scenario.generate = {40, 24, 0.0, 1.0};
    scenario.seed = seed;
    return serving::generateWorkload(scenario);
}

TEST(DecodeSpans, DeadReplicaFleetUnderEveryBuiltInPolicy)
{
    FleetConfig config;
    config.ttftDeadline = 4.0;
    config.replicas = {replica(2), replica(4), replica(2, true),
                       replica(2)};
    const auto trace = burstyTrace(64, 6.0, 13);
    for (const auto &[name, spans] :
         {std::pair{"round-robin", true},
          std::pair{"jsq", true},
          std::pair{"least-tokens", true},
          std::pair{"slo-aware", true},
          std::pair{"true-jsq", true},
          std::pair{"least-backlog", false},
          std::pair{"affinity", false},
          std::pair{"jsq+greedy-steal", true},
          std::pair{"round-robin+greedy-steal+slo-steal", true},
          std::pair{"jsq+priority-preempt", false},
          std::pair{"round-robin+drain-migrate", false},
          std::pair{"true-jsq+target-backlog", false}}) {
        expectSpansInvisible(config, sched::controlPolicyByName(name),
                             trace, spans);
    }
}

TEST(DecodeSpans, TrueJsqWithSloStealOnABurstyFleet)
{
    // The perfbench fleet-scale stack, on a heterogeneous fleet
    // whose narrow replicas queue up and get stolen from.
    FleetConfig config;
    config.ttftDeadline = 2.0;
    for (std::uint32_t r = 0; r < 8; ++r)
        config.replicas.push_back(replica(r % 2 == 0 ? 2 : 8));
    const auto report = expectSpansInvisible(
        config, sched::controlPolicyByName("true-jsq+slo-steal"),
        burstyTrace(160, 24.0, 5), true);
    EXPECT_GT(report.kernelStats.steals, 0u);
}

TEST(DecodeSpans, JsqAtScale)
{
    const FleetConfig config = uniformFleet(
        24, fastConfig(4), replica(4).serving,
        sched::controlPolicyByName("jsq"), 2.0);
    serving::ScenarioConfig scenario;
    scenario.process = serving::ArrivalProcess::Poisson;
    scenario.requests = 600;
    scenario.ratePerSecond = 40.0;
    scenario.prompt = {96, 32, 0.0, 1.0};
    scenario.generate = {48, 32, 0.0, 1.0};
    scenario.seed = 29;
    const auto report = expectSpansInvisible(
        config, sched::controlPolicyByName("jsq"),
        serving::generateWorkload(scenario), true);
    // Most decode boundaries are quiet: the queue saw far fewer.
    EXPECT_LT(2 * report.kernelStats.queuePops,
              report.kernelStats.events.popped());
}

TEST(DecodeSpans, AutoscaleWithDrainMigrate)
{
    FleetConfig config;
    config.ttftDeadline = 1.0;
    config.replicas = {replica(2)};
    const auto trace = burstyTrace(96, 8.0, 23);
    for (const char *name :
         {"true-jsq+target-backlog+drain-migrate",
          "jsq+slo-steal+target-backlog+drain-migrate"}) {
        const auto report = expectSpansInvisible(
            config, sched::controlPolicyByName(name), trace, false);
        EXPECT_GT(report.kernelStats.spawnedReplicas, 0u);
    }
}

TEST(DecodeSpans, PriorityPreemptionAndMigration)
{
    FleetConfig config;
    config.ttftDeadline = 1.0;
    config.replicas = {replica(2), replica(2), replica(2, true)};
    auto trace = burstyTrace(72, 10.0, 31);
    for (std::size_t i = 0; i < trace.size(); i += 3)
        trace[i].priority = 1;
    const auto preempted = expectSpansInvisible(
        config, sched::controlPolicyByName("jsq+priority-preempt"),
        trace, false);
    EXPECT_GT(preempted.kernelStats.preemptions, 0u);
    const auto migrated = expectSpansInvisible(
        config, sched::controlPolicyByName("round-robin+drain-migrate"),
        trace, false);
    EXPECT_GT(migrated.kernelStats.migrations, 0u);
    // Priority admission under spans: a stealer keeps them on.
    expectSpansInvisible(config,
                         sched::controlPolicyByName("jsq+slo-steal"),
                         trace, true);
}

TEST(DecodeSpans, SessionTrace)
{
    serving::ScenarioConfig scenario =
        serving::scenarioByName("multiturn", 10, 2.0, 9);
    scenario.generate = {32, 16, 0.0, 1.0};
    const serving::SessionTrace sessions =
        serving::generateSessionWorkload(scenario);
    const FleetConfig config = uniformFleet(
        3, fastConfig(4), replica(4).serving,
        sched::controlPolicyByName("jsq"), 4.0);
    for (const auto &[name, spans] :
         {std::pair{"jsq", true}, std::pair{"true-jsq+slo-steal", true},
          std::pair{"affinity", false}}) {
        const auto report = expectSpansInvisible(
            config, sched::controlPolicyByName(name), sessions, spans);
        EXPECT_GT(report.kernelStats.events.sessionContinues, 0u);
    }
}

/**
 * Whenever a replica goes idle, move one request from a dead
 * replica's queue into every *busy* healthy peer — deliveries into
 * replicas mid-span, at the very instant another replica's boundary
 * fires.  By steal, or by migrate: a never-started request moves
 * with no KV, so its ResumeReady lands at that same instant, a
 * fleet-level event that sorts before the boundary it follows.
 * Reads nothing per-step, so it keeps spans on.
 */
class FeedBusyPeersPolicy final : public ControlPolicy
{
  public:
    explicit FeedBusyPeersPolicy(bool migrate) : migrate_(migrate) {}

    std::string name() const override { return "feed-busy-peers"; }
    std::uint32_t wants() const override
    {
        return migrate_ ? kIdle | kMigrate : kIdle;
    }
    void onReplicaIdle(std::uint32_t replica, Seconds,
                       const sched::FleetView &view,
                       sched::FleetActions &actions) override
    {
        if (!view.knownServable(replica))
            return;
        const std::uint32_t n = view.replicaCount();
        for (std::uint32_t peer = 0; peer < n; ++peer) {
            if (peer == replica || !view.busy(peer) ||
                !view.knownServable(peer))
                continue;
            for (std::uint32_t victim = 0; victim < n; ++victim) {
                if (view.knownDead(victim) &&
                    view.queuedCount(victim) > 0) {
                    if (migrate_)
                        actions.migrate(
                            view.queuedRequests(victim).front().id,
                            peer);
                    else
                        actions.steal(peer, victim, 1);
                    break;
                }
            }
        }
    }

  private:
    bool migrate_;
};

TEST(DecodeSpans, SplitsFollowTheQueueOrderAtEqualInstants)
{
    // Two identical healthy replicas get identical prompts at the
    // same instants, so their decode boundaries fall on bitwise
    // equal times; the dead third holds a queue to steal from.
    // When the shorter generation retires, its idle hook delivers
    // into the other replica mid-span at that very instant: into
    // the lower-index replica (whose equal-time boundary sorts
    // first and must run before the delivery) and, on alternate
    // rounds, into the higher one (whose boundary must not).
    FleetConfig config;
    config.ttftDeadline = 30.0;
    config.replicas = {replica(4), replica(4), replica(4, true)};
    std::vector<serving::ServedRequest> trace;
    for (std::uint64_t round = 0; round < 6; ++round) {
        const Seconds at = 3.0 * static_cast<double>(round);
        const bool lower_longer = round % 2 == 0;
        for (const std::uint32_t generate :
             {lower_longer ? 24u : 12u, lower_longer ? 12u : 24u, 8u})
            trace.push_back(serving::ServedRequest{
                trace.size(), at, 64, generate, 0});
    }
    for (const bool migrate : {false, true}) {
        const auto report = expectSpansInvisible(
            config,
            sched::composeControlPolicies(
                {sched::controlPolicyByName("round-robin"),
                 std::make_shared<FeedBusyPeersPolicy>(migrate)}),
            trace, true);
        EXPECT_GT(migrate ? report.kernelStats.migrations
                          : report.kernelStats.stolenRequests,
                  5u);
    }
}

TEST(DecodeSpans, SupersededSpanEndsNeitherCountNorMoveTheClock)
{
    // A DIMM pool that holds the KV of ~100 context tokens: longer
    // contexts are unservable buckets whose steps cost 0 s.  A long
    // prompt delivered mid-span to a short request's replica drops
    // the whole batch into free steps, so everything finishes at
    // the split's in-flight boundary and the superseded span end is
    // the queue's last event — it must not move the billing clock.
    const model::LlmConfig llm = model::opt13b();
    ReplicaConfig clipped = replica(2);
    clipped.system.dimm.dimm.capacity =
        (llm.totalBytes() + 100 * llm.kvBytesPerToken()) /
        clipped.system.numDimms;
    FleetConfig config;
    config.ttftDeadline = 30.0;
    config.replicas = {clipped};

    serving::ServingSimulator probe(clipped.system, llm,
                                    clipped.serving);
    const Seconds prefill = probe.prefillSeconds(1, 20);
    const Seconds step = probe.tokenSeconds(1, 21);
    ASSERT_GT(step, 0.0);
    const std::vector<serving::ServedRequest> trace = {
        {0, 0.0, 20, 60, 0}, {1, prefill + 3.5 * step, 120, 80, 0}};
    const auto report = expectSpansInvisible(
        config, sched::controlPolicyByName("jsq"), trace, true, llm);
    EXPECT_EQ(report.completed, 2u);
    // Both finish at the fourth decode boundary, where the long
    // prompt joined; the run ends there too.
    const Seconds joined = report.requests[1].admitted;
    EXPECT_EQ(bits(report.requests[0].completed), bits(joined));
    EXPECT_EQ(bits(report.requests[1].completed), bits(joined));
    EXPECT_EQ(bits(report.replicaActiveSeconds.at(0)), bits(joined));
    EXPECT_LT(joined, prefill + 5.0 * step);
}

/** Routes everything to replica 0 after reading a per-step probe. */
class PeekingPolicy final : public ControlPolicy
{
  public:
    PeekingPolicy(bool declared, bool backlog)
        : declared_(declared), backlog_(backlog)
    {
    }

    std::string name() const override { return "peeking"; }
    std::uint32_t wants() const override
    {
        return declared_ ? kStepState : kNone;
    }
    void onArrival(const sched::ArrivalContext &,
                   const sched::FleetView &view,
                   sched::FleetActions &actions) override
    {
        if (backlog_)
            (void)view.observedBacklogTokens(0);
        else
            (void)view.runningRequests(0);
        actions.routeTo(0);
    }

  private:
    bool declared_;
    bool backlog_;
};

TEST(DecodeSpans, UndeclaredPerStepReadsThrow)
{
    // The second request arrives while the first decodes alone: a
    // span is in flight on replica 0.
    FleetConfig config;
    config.replicas = {replica(4)};
    const std::vector<serving::ServedRequest> trace = {
        {0, 0.0, 64, 48, 0}, {1, 0.5, 64, 8, 0}};
    for (const bool backlog : {true, false}) {
        config.control = std::make_shared<PeekingPolicy>(false, backlog);
        try {
            FleetSimulator(config, model::opt13b()).run(trace);
            ADD_FAILURE() << "an undeclared per-step read must throw";
        } catch (const std::logic_error &error) {
            const std::string message = error.what();
            EXPECT_NE(message.find("'peeking'"), std::string::npos)
                << message;
            EXPECT_NE(message.find("kStepState"), std::string::npos)
                << message;
            EXPECT_NE(message.find(backlog ? "observedBacklogTokens"
                                           : "runningRequests"),
                      std::string::npos)
                << message;
        }
        config.control = std::make_shared<PeekingPolicy>(true, backlog);
        EXPECT_EQ(FleetSimulator(config, model::opt13b())
                      .run(trace)
                      .completed,
                  2u);
    }
}

} // namespace
} // namespace hermes::fleet
