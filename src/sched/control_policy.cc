#include "sched/control_policy.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sched/replica_index.hh"

namespace hermes::sched {

std::string
replicaLifecycleName(ReplicaLifecycle lifecycle)
{
    switch (lifecycle) {
    case ReplicaLifecycle::Provisioning:
        return "provisioning";
    case ReplicaLifecycle::Warming:
        return "warming";
    case ReplicaLifecycle::Active:
        return "active";
    case ReplicaLifecycle::Draining:
        return "draining";
    case ReplicaLifecycle::Retired:
        return "retired";
    }
    return "?";
}

namespace {

/**
 * The four estimate-based routing behaviors (round-robin, jsq,
 * least-tokens, slo-aware) as one adapter: every arrival is
 * answered by the calibrated Router, so decisions are bit-identical
 * to the pre-API kernel (same inputs, same float sequence).  The
 * change list keeps the Router's replica set and routable flags
 * current: only Active replicas are routable.  Dead replicas stay
 * routable on purpose — estimate policies have historically kept
 * routing to them (only the feedback policies starve them), and
 * that contract is pinned.  jsq ranks through the Router's
 * shortest-queue index; the other three scan the fleet (their keys
 * drift continuously with the arrival clock, or tie-break within
 * an epsilon, so no exact tree order exists).
 */
class RouterControlPolicy final : public ControlPolicy
{
  public:
    explicit RouterControlPolicy(RouterPolicy policy)
        : policy_(policy)
    {
    }

    std::string name() const override
    {
        return routerPolicyName(policy_);
    }

    std::uint32_t wants() const override { return kReplicaChanges; }

    void begin() override { router_.reset(); }

    void onReplicasChanged(const std::vector<std::uint32_t> &replicas,
                           const FleetView &view) override
    {
        // The run's first flush lists the whole fleet: build the
        // Router over it.  Later flushes list spawned replicas.
        const std::uint32_t n = view.replicaCount();
        if (!router_) {
            std::vector<ReplicaModel> models;
            models.reserve(n);
            for (std::uint32_t r = 0; r < n; ++r)
                models.push_back(view.model(r));
            router_ = std::make_unique<Router>(policy_,
                                               std::move(models),
                                               view.ttftDeadline());
        }
        while (router_->replicaCount() < n)
            router_->addReplica(view.model(router_->replicaCount()));
        for (const std::uint32_t r : replicas)
            router_->setRoutable(
                r, view.lifecycle(r) == ReplicaLifecycle::Active);
    }

    void onArrival(const ArrivalContext &context,
                   const FleetView &view,
                   FleetActions &actions) override
    {
        (void)view;
        if (!router_)
            throw std::logic_error(
                "RouterControlPolicy: onArrival before the first "
                "onReplicasChanged");
        const RouteDecision decision =
            policy_ == RouterPolicy::JoinShortestQueue
                ? router_->routeShortestQueue(context.arrival,
                                              context.generateTokens)
                : router_->route(context.arrival,
                                 context.generateTokens);
        if (decision.replica < 0)
            actions.shed();
        else
            actions.routeTo(
                static_cast<std::uint32_t>(decision.replica));
    }

  private:
    RouterPolicy policy_;
    std::unique_ptr<Router> router_;
};

/**
 * The two feedback routers ("true-jsq", "least-backlog"): the
 * Active replica with the fewest observed outstanding requests, or
 * the smallest observed token backlog, lowest index on ties —
 * exactly Router::route's TrueJsq / LeastActualBacklog scan with
 * the non-Active mask, answered from an index the change list keeps
 * current.  Dead replicas stay ranked, as in the scan.
 */
class ObservedArgminPolicy final : public ControlPolicy
{
  public:
    explicit ObservedArgminPolicy(RouterPolicy policy)
        : policy_(policy)
    {
    }

    std::string name() const override
    {
        return routerPolicyName(policy_);
    }

    std::uint32_t wants() const override { return kReplicaChanges; }

    void begin() override { index_ = ReplicaIndex{}; }

    void onReplicasChanged(const std::vector<std::uint32_t> &replicas,
                           const FleetView &view) override
    {
        for (const std::uint32_t r : replicas) {
            double key = ReplicaIndex::kAbsent;
            if (view.lifecycle(r) == ReplicaLifecycle::Active)
                key = policy_ == RouterPolicy::TrueJsq
                          ? static_cast<double>(
                                view.observedOutstanding(r))
                          : view.observedBacklogTokens(r);
            index_.set(r, key);
        }
    }

    void onArrival(const ArrivalContext &context,
                   const FleetView &view,
                   FleetActions &actions) override
    {
        (void)context;
        (void)view;
        const std::uint32_t best = index_.argmin();
        if (best == index_.size())
            actions.shed(); // Nothing routable.
        else
            actions.routeTo(best);
    }

  private:
    RouterPolicy policy_;
    ReplicaIndex index_;
};

/**
 * The two stealing policies over one victim index (see the factory
 * docs in control_policy.hh): an idle servable replica steals
 * ceil(half) of the top-ranked victim's queue, capped at its own
 * batch.  A victim must be genuinely stuck — mid-step with a queue
 * behind it, or known dead; an idle replica with fresh deliveries
 * has a same-instant Wake coming and will serve them itself, so an
 * idle thief is never its own victim.  greedy-steal ranks victims
 * by queue depth; slo-steal by estimated wait, and steals only when
 * the thief's own estimated TTFT strictly beats it.  Ties go to the
 * lowest index.
 */
class StealPolicy final : public ControlPolicy
{
  public:
    explicit StealPolicy(bool slo) : slo_(slo) {}

    std::string name() const override
    {
        return slo_ ? "slo-steal" : "greedy-steal";
    }

    std::uint32_t wants() const override
    {
        return kIdle | kReplicaChanges;
    }

    void begin() override { victims_ = ReplicaIndex{}; }

    void onReplicasChanged(const std::vector<std::uint32_t> &replicas,
                           const FleetView &view) override
    {
        // A max-ranking: negated scores.
        for (const std::uint32_t v : replicas) {
            const bool stuck = view.busy(v) || view.knownDead(v);
            victims_.set(v, stuck && view.queuedCount(v) > 0
                                ? -score(v, view)
                                : ReplicaIndex::kAbsent);
        }
    }

    void onReplicaIdle(std::uint32_t replica, Seconds now,
                       const FleetView &view,
                       FleetActions &actions) override
    {
        (void)now;
        // Only a replica proven able to serve may steal; a dead (or
        // never-probed, or draining) replica would strand the work.
        if (!view.knownServable(replica) || view.draining(replica))
            return;
        // A sibling policy's steal may already have restarted the
        // thief, so it is left out of the ranking explicitly.
        const std::uint32_t victim = victims_.argminExcept(replica);
        if (victim == victims_.size())
            return;
        // The thief is idle: its estimated TTFT for stolen work is
        // just its calibrated group prefill (view.model() covers
        // spawned replicas too).  A slow thief declines steals that
        // would trade one queue's depth for a worse tail.
        if (slo_ && view.model(replica).prefillSeconds >=
                        -victims_.key(victim))
            return;
        const std::uint32_t cap =
            std::max<std::uint32_t>(view.maxBatch(replica), 1);
        actions.steal(replica, victim,
                      std::min((view.queuedCount(victim) + 1) / 2,
                               cap));
    }

  private:
    /**
     * How badly `victim`'s queue needs help.  greedy: its depth.
     * slo: the estimated TTFT a queued request faces there —
     * observed token backlog over the calibrated full-batch drain
     * rate, plus one prefill; infinite for a dead replica (its
     * queue never drains).
     */
    double
    score(std::uint32_t victim, const FleetView &view) const
    {
        if (!slo_)
            return static_cast<double>(view.queuedCount(victim));
        if (view.knownDead(victim))
            return std::numeric_limits<double>::infinity();
        const ReplicaModel &model = view.model(victim);
        const double drain_rate =
            std::max(model.slotTokensPerSecond, 1.0e-9) *
            static_cast<double>(
                std::max<std::uint32_t>(model.maxBatch, 1));
        return view.observedBacklogTokens(victim) / drain_rate +
               model.prefillSeconds;
    }

    bool slo_;
    ReplicaIndex victims_;
};

/**
 * Priority preemption (see the factory doc in control_policy.hh):
 * at each replica boundary, evict the lowest-priority running
 * request when a strictly-higher-priority queued request would miss
 * its TTFT deadline waiting for a slot to free naturally and
 * admitting it now would still meet (or at least approach) it.
 */
class PriorityPreemptPolicy final : public ControlPolicy
{
  public:
    std::string name() const override { return "priority-preempt"; }

    std::uint32_t wants() const override
    {
        return kReplicaEvents | kPreempt;
    }

    void onPrefillComplete(std::uint32_t replica, Seconds now,
                           const FleetView &view,
                           FleetActions &actions) override
    {
        maybePreempt(replica, now, view, actions);
    }

    void onStepComplete(std::uint32_t replica, Seconds now,
                        const FleetView &view,
                        FleetActions &actions) override
    {
        maybePreempt(replica, now, view, actions);
    }

  private:
    void
    maybePreempt(std::uint32_t replica, Seconds now,
                 const FleetView &view, FleetActions &actions)
    {
        if (view.busy(replica) || !view.knownServable(replica))
            return;
        const std::vector<serving::RequestInfo> running =
            view.runningRequests(replica);
        // A free slot means the queue head is admitted at this very
        // boundary anyway — nothing to evict for.
        if (running.empty() ||
            running.size() < view.maxBatch(replica))
            return;
        const std::vector<serving::RequestInfo> queued =
            view.queuedRequests(replica);
        if (queued.empty())
            return;

        // The endangered request: highest priority queued, oldest
        // among equals (matches what admission would pick).
        const serving::RequestInfo *protect = &queued.front();
        for (const serving::RequestInfo &info : queued) {
            if (info.priority > protect->priority)
                protect = &info;
        }

        // The victim: lowest priority strictly below the protected
        // request's, most remaining work among equals (frees the
        // slot for the longest), then highest id for determinism.
        const serving::RequestInfo *victim = nullptr;
        for (const serving::RequestInfo &info : running) {
            if (info.priority >= protect->priority)
                continue;
            if (victim == nullptr ||
                info.priority < victim->priority ||
                (info.priority == victim->priority &&
                 (info.remainingTokens > victim->remainingTokens ||
                  (info.remainingTokens ==
                       victim->remainingTokens &&
                   info.id > victim->id))))
                victim = &info;
        }
        if (victim == nullptr)
            return;

        // Would the protected request miss its deadline waiting
        // for a slot to free naturally?  The soonest natural slot
        // is the least-remaining running request finishing at the
        // calibrated full-batch step rate; after that the request
        // still pays its admission prefill.
        const ReplicaModel &model = view.model(replica);
        const Seconds deadline = view.ttftDeadline();
        const Seconds step =
            model.slotTokensPerSecond > 0.0
                ? 1.0 / model.slotTokensPerSecond
                : deadline;
        std::uint32_t soonest = running.front().remainingTokens;
        for (const serving::RequestInfo &info : running)
            soonest = std::min(soonest, info.remainingTokens);
        const Seconds age = now - protect->arrival;
        const Seconds natural =
            age + static_cast<double>(soonest) * step +
            model.prefillSeconds;
        if (natural <= deadline)
            return;
        actions.preempt(replica, victim->id);
    }
};

/**
 * Drain/dead-replica migration (see the factory doc in
 * control_policy.hh): evacuate queued work from dead and draining
 * replicas, and running work from draining replicas at their decode
 * boundaries, onto the least-loaded healthy replica.
 */
class DrainMigratePolicy final : public ControlPolicy
{
  public:
    std::string name() const override { return "drain-migrate"; }

    std::uint32_t wants() const override
    {
        return kReplicaEvents | kIdle | kDead | kMigrate;
    }

    void onReplicaDead(std::uint32_t replica, Seconds now,
                       const FleetView &view,
                       FleetActions &actions) override
    {
        (void)now;
        evacuateQueued(replica, view, actions);
    }

    void onReplicaIdle(std::uint32_t replica, Seconds now,
                       const FleetView &view,
                       FleetActions &actions) override
    {
        // A dead replica takes an idle boundary whenever fresh
        // deliveries reach it (it never starts work), so routing
        // policies that keep feeding it are drained continually.
        (void)now;
        if (view.knownDead(replica) || view.draining(replica))
            evacuateQueued(replica, view, actions);
    }

    void onPrefillComplete(std::uint32_t replica, Seconds now,
                           const FleetView &view,
                           FleetActions &actions) override
    {
        onStepComplete(replica, now, view, actions);
    }

    void onStepComplete(std::uint32_t replica, Seconds now,
                        const FleetView &view,
                        FleetActions &actions) override
    {
        (void)now;
        if (!view.draining(replica) || view.busy(replica))
            return;
        // The draining replica is at a decode boundary: hand its
        // running requests (KV included) to healthy replicas, then
        // whatever is still queued behind them.
        for (const serving::RequestInfo &info :
             view.runningRequests(replica)) {
            const std::uint32_t to = destination(replica, view);
            if (to >= view.replicaCount())
                return;
            actions.migrate(info.id, to);
        }
        evacuateQueued(replica, view, actions);
    }

  private:
    /** Least-loaded healthy replica, or replicaCount() when none. */
    std::uint32_t
    destination(std::uint32_t from, const FleetView &view) const
    {
        const std::uint32_t n = view.replicaCount();
        std::uint32_t best = n;
        for (std::uint32_t r = 0; r < n; ++r) {
            // Only Active replicas may receive migrations: a
            // provisioning or warming spawn is not routable yet, a
            // draining or retired one is on its way out.
            if (r == from || view.knownDead(r) ||
                view.lifecycle(r) != ReplicaLifecycle::Active)
                continue;
            if (best == n || view.observedOutstanding(r) <
                                 view.observedOutstanding(best))
                best = r;
        }
        return best;
    }

    void
    evacuateQueued(std::uint32_t replica, const FleetView &view,
                   FleetActions &actions)
    {
        for (const serving::RequestInfo &info :
             view.queuedRequests(replica)) {
            const std::uint32_t to = destination(replica, view);
            if (to >= view.replicaCount())
                return;
            actions.migrate(info.id, to);
        }
    }
};

/**
 * KV-affinity session routing (see the factory doc in
 * control_policy.hh): sticky-route follow-up turns to the replica
 * holding their conversation's KV, unless the load gap outweighs
 * the resident prefix; everything else joins the shortest queue.
 */
class AffinityPolicy final : public ControlPolicy
{
  public:
    std::string name() const override { return "affinity"; }

    void onArrival(const ArrivalContext &context,
                   const FleetView &view,
                   FleetActions &actions) override
    {
        const std::uint32_t n = view.replicaCount();
        // Ground-truth JSQ over the routable replicas (first
        // minimum wins, matching true-jsq's determinism).  Only
        // Active replicas are routable — spawned replicas still
        // provisioning or warming, and draining or retired ones,
        // are skipped exactly like the kernel's routeTo would
        // reject them.
        std::uint32_t least = n;
        for (std::uint32_t r = 0; r < n; ++r) {
            if (view.knownDead(r) ||
                view.lifecycle(r) != ReplicaLifecycle::Active)
                continue;
            if (least == n || view.observedOutstanding(r) <
                                  view.observedOutstanding(least))
                least = r;
        }
        if (least == n) {
            // Every replica is draining or dead; routing anywhere
            // would throw.
            actions.shed();
            return;
        }
        if (context.sessionId == 0) {
            actions.routeTo(least);
            return;
        }
        // Sticky candidate: the replica holding the session's KV.
        // At most one holds it (residency moves with the serving
        // replica and is consumed on re-admission).
        std::uint32_t holder = n;
        std::uint64_t cached = 0;
        for (std::uint32_t r = 0; r < n; ++r) {
            cached = view.cachedSessionTokens(r, context.sessionId);
            if (cached > 0) {
                holder = r;
                break;
            }
        }
        if (holder == n || view.knownDead(holder) ||
            view.lifecycle(holder) != ReplicaLifecycle::Active) {
            // First turn, KV evicted, or the sticky replica cannot
            // take new work: plain JSQ.
            actions.routeTo(least);
            return;
        }
        // Stick when the prefill seconds the resident prefix saves
        // at least cover the extra queueing seconds the sticky
        // replica's deeper backlog costs.  The two token counts are
        // not comparable 1:1: a cached token saves prefill work
        // while a backlog token costs decode work, and calibrated
        // prefill is typically an order of magnitude cheaper per
        // token than decode — so both sides convert to seconds
        // through the holder's calibrated model
        // (prefillTokensPerSecond vs the full-batch drain rate).
        // Under load this sticks less eagerly than a raw token
        // comparison would: a modest resident prefix no longer
        // outweighs a deep backlog.
        const ReplicaModel &holder_model = view.model(holder);
        const double saved_seconds =
            static_cast<double>(cached) /
            std::max(holder_model.prefillTokensPerSecond, 1.0e-9);
        const double gap = view.observedBacklogTokens(holder) -
                           view.observedBacklogTokens(least);
        const double drain_rate =
            std::max(holder_model.slotTokensPerSecond, 1.0e-9) *
            static_cast<double>(std::max<std::uint32_t>(
                holder_model.maxBatch, 1));
        actions.routeTo(saved_seconds >= gap / drain_rate
                            ? holder
                            : least);
    }
};

/**
 * Target-backlog autoscaler (see the factory doc in
 * control_policy.hh): every tick, scale the provisioned replica
 * count toward what the observed fleet-wide token backlog needs to
 * drain within one TTFT deadline, damped by hysteresis and a
 * post-action cooldown.
 */
class TargetBacklogScalerPolicy final : public ControlPolicy
{
  public:
    std::string name() const override { return "target-backlog"; }

    std::uint32_t wants() const override { return kTick | kSpawn; }

    Seconds tickPeriod() const override { return 1.0; }

    void begin() override
    {
        upTicks_ = 0;
        downTicks_ = 0;
        cooldownUntil_ = 0.0;
    }

    void onTick(Seconds now, const FleetView &view,
                FleetActions &actions) override
    {
        const std::uint32_t n = view.replicaCount();
        // Provisioned capacity counts Provisioning + Warming +
        // Active: warming capacity is already bought, and spawning
        // again for the same backlog spike would oscillate.
        // Draining replicas contribute their remaining backlog
        // (someone still has to serve it) but no capacity.
        std::uint32_t provisioned = 0;
        std::uint32_t active = 0;
        std::uint32_t reference = n;
        double backlog = 0.0;
        for (std::uint32_t r = 0; r < n; ++r) {
            if (view.knownDead(r))
                continue;
            const ReplicaLifecycle lc = view.lifecycle(r);
            if (lc == ReplicaLifecycle::Retired)
                continue;
            backlog += view.observedBacklogTokens(r);
            if (lc == ReplicaLifecycle::Draining)
                continue;
            ++provisioned;
            if (lc == ReplicaLifecycle::Active) {
                ++active;
                if (reference == n)
                    reference = r;
            }
        }
        // No Active replica to measure by or clone: a freshly
        // spawned fleet is still warming — wait.
        if (reference == n)
            return;
        const ReplicaModel &model = view.model(reference);
        const double slot =
            std::max(model.slotTokensPerSecond, 1.0e-9);
        const double batch = static_cast<double>(
            std::max<std::uint32_t>(model.maxBatch, 1));
        // Sustained drain rate of one replica, in backlog (decode)
        // tokens per second.  Each admission group of maxBatch
        // requests pays one joint prefill before its G decode
        // steps, so the sustained rate is mb*G/(prefill + G*step),
        // which on prefill-heavy workloads is several times below
        // the raw full-batch step rate slot*mb.  Fall back to the
        // raw rate when the model carries no calibrated generate
        // length (hand-built models predate the field).
        double rate = slot * batch;
        if (model.typicalGenerateTokens > 0.0) {
            const double g = model.typicalGenerateTokens;
            rate = batch * g /
                   (std::max(model.prefillSeconds, 0.0) + g / slot);
        }
        // Replicas needed to drain the backlog within one deadline
        // window at the reference replica's sustained rate.
        const Seconds deadline =
            view.ttftDeadline() > 0.0 ? view.ttftDeadline() : 2.0;
        const std::uint32_t desired = std::clamp<std::uint32_t>(
            static_cast<std::uint32_t>(
                std::ceil(backlog / (rate * deadline))),
            kMinReplicas, kMaxReplicas);

        if (desired > provisioned) {
            downTicks_ = 0;
            ++upTicks_;
            if (upTicks_ < kHysteresisTicks ||
                now < cooldownUntil_)
                return;
            actions.spawnReplica(view.replicaSpec(reference));
            upTicks_ = 0;
            cooldownUntil_ = now + kCooldownSeconds;
        } else if (desired < provisioned) {
            upTicks_ = 0;
            ++downTicks_;
            if (downTicks_ < kHysteresisTicks ||
                now < cooldownUntil_)
                return;
            // Never drain the last routable replica: replicas still
            // warming are counted as provisioned but cannot take
            // traffic yet, and an all-masked fleet sheds arrivals.
            if (active <= 1)
                return;
            // Drain the least-loaded Active replica; ties break to
            // the highest index so spawned replicas retire before
            // the seed fleet.
            std::uint32_t victim = n;
            for (std::uint32_t r = 0; r < n; ++r) {
                if (view.knownDead(r) ||
                    view.lifecycle(r) != ReplicaLifecycle::Active)
                    continue;
                if (victim == n ||
                    view.observedOutstanding(r) <=
                        view.observedOutstanding(victim))
                    victim = r;
            }
            if (victim == n)
                return;
            actions.requestDrain(victim);
            downTicks_ = 0;
            cooldownUntil_ = now + kCooldownSeconds;
        } else {
            upTicks_ = 0;
            downTicks_ = 0;
        }
    }

  private:
    /** Fleet bounds: never below the seed's floor, capped growth. */
    static constexpr std::uint32_t kMinReplicas = 1;
    static constexpr std::uint32_t kMaxReplicas = 16;

    /** Consecutive agreeing ticks required before acting. */
    static constexpr std::uint32_t kHysteresisTicks = 2;

    /** Quiet period after any scale action. */
    static constexpr Seconds kCooldownSeconds = 5.0;

    std::uint32_t upTicks_ = 0;
    std::uint32_t downTicks_ = 0;
    Seconds cooldownUntil_ = 0.0;
};

} // namespace

CompositeControlPolicy::CompositeControlPolicy(
    std::vector<std::shared_ptr<ControlPolicy>> children)
    : children_(std::move(children))
{
    if (children_.empty())
        throw std::invalid_argument(
            "CompositeControlPolicy: no children");
    for (const auto &child : children_) {
        if (!child)
            throw std::invalid_argument(
                "CompositeControlPolicy: null child");
    }
}

std::string
CompositeControlPolicy::name() const
{
    std::string joined;
    for (const auto &child : children_) {
        if (!joined.empty())
            joined += '+';
        joined += child->name();
    }
    return joined;
}

std::uint32_t
CompositeControlPolicy::wants() const
{
    std::uint32_t bits = kNone;
    for (const auto &child : children_)
        bits |= child->wants();
    return bits;
}

Seconds
CompositeControlPolicy::tickPeriod() const
{
    // The composite heartbeat is the fastest child's.
    Seconds period = 0.0;
    for (const auto &child : children_) {
        const Seconds p = child->tickPeriod();
        if (p > 0.0 && (period <= 0.0 || p < period))
            period = p;
    }
    return period;
}

void
CompositeControlPolicy::begin()
{
    for (const auto &child : children_)
        child->begin();
}

void
CompositeControlPolicy::onArrival(const ArrivalContext &context,
                                  const FleetView &view,
                                  FleetActions &actions)
{
    for (const auto &child : children_)
        child->onArrival(context, view, actions);
}

void
CompositeControlPolicy::onPrefillComplete(std::uint32_t replica,
                                          Seconds now,
                                          const FleetView &view,
                                          FleetActions &actions)
{
    for (const auto &child : children_) {
        if (child->wants() & kReplicaEvents)
            child->onPrefillComplete(replica, now, view, actions);
    }
}

void
CompositeControlPolicy::onStepComplete(std::uint32_t replica,
                                       Seconds now,
                                       const FleetView &view,
                                       FleetActions &actions)
{
    for (const auto &child : children_) {
        if (child->wants() & kReplicaEvents)
            child->onStepComplete(replica, now, view, actions);
    }
}

void
CompositeControlPolicy::onReplicaIdle(std::uint32_t replica,
                                      Seconds now,
                                      const FleetView &view,
                                      FleetActions &actions)
{
    for (const auto &child : children_) {
        if (child->wants() & kIdle)
            child->onReplicaIdle(replica, now, view, actions);
    }
}

void
CompositeControlPolicy::onReplicaDead(std::uint32_t replica,
                                      Seconds now,
                                      const FleetView &view,
                                      FleetActions &actions)
{
    for (const auto &child : children_) {
        if (child->wants() & kDead)
            child->onReplicaDead(replica, now, view, actions);
    }
}

void
CompositeControlPolicy::onReplicasChanged(
    const std::vector<std::uint32_t> &replicas, const FleetView &view)
{
    for (const auto &child : children_) {
        if (child->wants() & kReplicaChanges)
            child->onReplicasChanged(replicas, view);
    }
}

void
CompositeControlPolicy::onTick(Seconds now, const FleetView &view,
                               FleetActions &actions)
{
    for (const auto &child : children_) {
        if (child->wants() & kTick)
            child->onTick(now, view, actions);
    }
}

std::shared_ptr<ControlPolicy>
makeRouterPolicy(RouterPolicy policy)
{
    if (routerPolicyNeedsObservations(policy))
        return std::make_shared<ObservedArgminPolicy>(policy);
    return std::make_shared<RouterControlPolicy>(policy);
}

std::shared_ptr<ControlPolicy>
makeGreedyStealPolicy()
{
    return std::make_shared<StealPolicy>(false);
}

std::shared_ptr<ControlPolicy>
makeSloStealPolicy()
{
    return std::make_shared<StealPolicy>(true);
}

std::shared_ptr<ControlPolicy>
makePriorityPreemptPolicy()
{
    return std::make_shared<PriorityPreemptPolicy>();
}

std::shared_ptr<ControlPolicy>
makeDrainMigratePolicy()
{
    return std::make_shared<DrainMigratePolicy>();
}

std::shared_ptr<ControlPolicy>
makeAffinityPolicy()
{
    return std::make_shared<AffinityPolicy>();
}

std::shared_ptr<ControlPolicy>
makeTargetBacklogPolicy()
{
    return std::make_shared<TargetBacklogScalerPolicy>();
}

std::shared_ptr<ControlPolicy>
composeControlPolicies(
    std::vector<std::shared_ptr<ControlPolicy>> children)
{
    if (children.size() == 1)
        return children.front();
    return std::make_shared<CompositeControlPolicy>(
        std::move(children));
}

std::vector<std::string>
controlPolicyNames()
{
    std::vector<std::string> names;
    for (const RouterPolicy policy : allRouterPolicies())
        names.push_back(routerPolicyName(policy));
    names.push_back("greedy-steal");
    names.push_back("slo-steal");
    names.push_back("priority-preempt");
    names.push_back("drain-migrate");
    names.push_back("affinity");
    names.push_back("target-backlog");
    return names;
}

namespace {

std::shared_ptr<ControlPolicy>
atomByName(const std::string &name)
{
    for (const RouterPolicy policy : allRouterPolicies()) {
        if (routerPolicyName(policy) == name)
            return makeRouterPolicy(policy);
    }
    if (name == "greedy-steal")
        return makeGreedyStealPolicy();
    if (name == "slo-steal")
        return makeSloStealPolicy();
    if (name == "priority-preempt")
        return makePriorityPreemptPolicy();
    if (name == "drain-migrate")
        return makeDrainMigratePolicy();
    if (name == "affinity")
        return makeAffinityPolicy();
    if (name == "target-backlog")
        return makeTargetBacklogPolicy();
    throw std::invalid_argument(
        "controlPolicyByName: unknown policy '" + name + "'");
}

} // namespace

std::shared_ptr<ControlPolicy>
controlPolicyByName(const std::string &name)
{
    std::vector<std::shared_ptr<ControlPolicy>> children;
    std::size_t start = 0;
    while (start <= name.size()) {
        const std::size_t plus = name.find('+', start);
        const std::string atom =
            name.substr(start, plus == std::string::npos
                                   ? std::string::npos
                                   : plus - start);
        if (atom.empty())
            throw std::invalid_argument(
                "controlPolicyByName: empty atom in '" + name +
                "'");
        children.push_back(atomByName(atom));
        if (plus == std::string::npos)
            break;
        start = plus + 1;
    }
    // An empty name (or empty atom) already threw inside the loop,
    // so children is never empty here.
    return composeControlPolicies(std::move(children));
}

} // namespace hermes::sched
