/**
 * @file
 * Composable fleet control plane: event-subscribed policy objects.
 *
 * The fleet's event kernel owns *physics* (the virtual clock,
 * replica boundaries, report bookkeeping) and a ControlPolicy owns
 * *decisions*.  A policy subscribes to kernel events —
 *
 *   onArrival          a request reached the fleet; place or shed it
 *   onPrefillComplete  a replica finished a joint admission prefill
 *   onStepComplete     a replica finished one decode step
 *   onReplicaIdle      a replica ran out of work at a boundary
 *   onReplicaDead      a replica's capability probe failed
 *   onTick             a periodic heartbeat (tickPeriod() > 0)
 *
 * — observes ground truth through a read-only FleetView, and acts
 * through a capability-checked FleetActions surface (routeTo, shed,
 * steal, the request-lifecycle verbs preempt / migrate, and the
 * autoscaling verbs spawnReplica / requestDrain).  Illegal
 * actions — routing twice, routing to a draining replica, stealing
 * when the victim has only running requests, preempting a queued or
 * unknown request, migrating to a draining or dead replica — throw
 * std::logic_error instead of corrupting kernel state.
 *
 * The wants() bitmask is both a subscription list and a performance
 * contract: the kernel never calls hooks the policy did not
 * subscribe to, and keeps its change list only for a policy that
 * consumes it.
 *
 * FleetView is the only read surface: every per-replica fact a
 * policy ranks by — including the calibrated model of a replica
 * spawned mid-run — is a live FleetView probe, and each fact has
 * exactly one: maxBatch and draining are non-virtual helpers derived
 * from model(r).maxBatch and lifecycle(r), so no implementation can
 * let them disagree.  The run's TTFT deadline is a probe too
 * (ttftDeadline); begin() takes no argument.
 *
 * The change list (kReplicaChanges).  The kernel is the only actor
 * that mutates replicas, and it lists every replica whose state a
 * mutation may have changed — deliver, steal, migrate, preempt,
 * start/complete work (with the capability probe inside it), and
 * every lifecycle transition (spawn, Provisioning → Warming →
 * Active, drain, retire) — once per flush.  The list is flushed at
 * every hook entry and after every FleetActions verb, into
 * onReplicasChanged(replicas, view), so a policy that keeps its own
 * replica state — an index (sched/replica_index.hh), a Router's
 * routable flags — refreshes it in O(changed replicas) and whatever
 * a hook reads reflects every change before it.  The first flush of
 * a run lists the whole fleet, before any arrival; a spawned
 * replica is listed by the verb that created it.
 *
 * All six RouterPolicy behaviors and the occupancy-greedy stealing
 * heuristic are built-in ControlPolicy implementations behind a name
 * registry (controlPolicyByName, mirroring engineKindByName).
 * true-jsq, least-backlog, jsq, greedy-steal and slo-steal decide
 * in O(log replicas) from change-list-fed indices, each decision
 * equal to the linear first-best scan (Router::route is that
 * reference for the routers; tests/test_control_index.cc pins all
 * five); least-tokens, slo-aware and affinity scan the fleet (their
 * keys drift with the clock or tie-break within an epsilon — no
 * exact tree order).
 * "slo-steal" steals only when the thief's estimated TTFT for the
 * stolen request beats the victim's.
 */

#ifndef HERMES_SCHED_CONTROL_POLICY_HH
#define HERMES_SCHED_CONTROL_POLICY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hh"
#include "core/serving.hh"
#include "sched/router.hh"

namespace hermes::sched {

/**
 * Where a replica is in its runtime lifecycle.  Replicas configured
 * up front are born Active; replicas spawned mid-run by
 * FleetActions::spawnReplica walk the whole machine:
 *
 *   Provisioning → Warming → Active → Draining → Retired
 *
 * Provisioning models the time to stand the instance up (container
 * pull, model load — ReplicaSpec::provisionSeconds); Warming replays
 * the batch-ramp warm-up every pre-configured replica pays during
 * calibration, so a spawned replica's cost surface is hot before it
 * serves.  Only Active replicas are routable (routeTo, steal-into,
 * migrate-into all throw otherwise).  Draining replicas finish or
 * hand off what they hold; Retired replicas have stopped their
 * clock — they accrue no further active seconds (KernelStats).
 */
enum class ReplicaLifecycle : std::uint8_t
{
    Provisioning = 0,
    Warming = 1,
    Active = 2,
    Draining = 3,
    Retired = 4,
};

/** Display name ("provisioning", "warming", "active", ...). */
std::string replicaLifecycleName(ReplicaLifecycle lifecycle);

/**
 * Everything needed to stand up one replica mid-run: the hardware
 * system, the serving configuration, and the modeled provisioning
 * latency paid before warm-up begins.  A scaler typically clones an
 * existing replica's spec (FleetView::replicaSpec) rather than
 * inventing one, so the spawned replica joins an existing cost-cache
 * group instead of paying a full cold calibration.
 */
struct ReplicaSpec
{
    /** Report name; "" derives "s<index>" from the spawn order. */
    std::string name;

    runtime::SystemConfig system{};
    serving::ServingConfig serving{};

    /** Modeled instance stand-up time before warm-up starts. */
    Seconds provisionSeconds = 0.5;
};

/**
 * Read-only ground truth the kernel exposes to policies, per
 * replica.  Implemented by the fleet kernel; probes are sampled
 * live at the instant of the hook call.
 */
class FleetView
{
  public:
    virtual ~FleetView() = default;

    virtual std::uint32_t replicaCount() const = 0;

    /** The router-calibrated queueing model of a replica. */
    virtual const ReplicaModel &model(std::uint32_t replica) const = 0;

    /** Continuous-batching slot count of a replica (its model's). */
    std::uint32_t
    maxBatch(std::uint32_t replica) const
    {
        return model(replica).maxBatch;
    }

    /** Whether a prefill or decode step is in flight right now. */
    virtual bool busy(std::uint32_t replica) const = 0;

    /** Capability probe ran and passed (replica can serve). */
    virtual bool knownServable(std::uint32_t replica) const = 0;

    /** Capability probe ran and failed (replica is dead). */
    virtual bool knownDead(std::uint32_t replica) const = 0;

    /** Lifecycle state (spawned replicas walk the whole machine). */
    virtual ReplicaLifecycle
    lifecycle(std::uint32_t replica) const = 0;

    /**
     * A drain was requested (lifecycle Draining or Retired); the
     * replica accepts no new routes.
     */
    bool
    draining(std::uint32_t replica) const
    {
        const ReplicaLifecycle state = lifecycle(replica);
        return state == ReplicaLifecycle::Draining ||
               state == ReplicaLifecycle::Retired;
    }

    /**
     * The spec `replica` was built from — what a scaler clones to
     * spawn a compatible sibling (same cost-cache group, no cold
     * calibration).
     */
    virtual ReplicaSpec replicaSpec(std::uint32_t replica) const = 0;

    /** Requests queued but not yet in the running batch. */
    virtual std::uint32_t queuedCount(std::uint32_t replica) const = 0;

    /** Requests on the replica: running + queued + undecided. */
    virtual std::uint32_t
    observedOutstanding(std::uint32_t replica) const = 0;

    /** Tokens still owed to requests on the replica. */
    virtual double
    observedBacklogTokens(std::uint32_t replica) const = 0;

    /**
     * The replica's running batch — ids, priorities, ages, progress
     * — sampled live.  What a preemption policy ranks victims by.
     */
    virtual std::vector<serving::RequestInfo>
    runningRequests(std::uint32_t replica) const = 0;

    /** The replica's queued requests, admission order. */
    virtual std::vector<serving::RequestInfo>
    queuedRequests(std::uint32_t replica) const = 0;

    /** Lifecycle state of request `id` on `replica`. */
    virtual serving::RequestState
    requestState(std::uint32_t replica, std::uint64_t id) const = 0;

    /**
     * KV-cache tokens `replica` still holds for `session` (0 when
     * nothing is resident — never cached, or evicted under KV
     * memory pressure).  What a KV-affinity router scores sticky
     * placements by: a resident prefix is prompt prefill the
     * follow-up turn does not pay again.
     */
    virtual std::uint64_t
    cachedSessionTokens(std::uint32_t replica,
                        std::uint64_t session) const = 0;

    /** The TTFT service-level objective of this run. */
    virtual Seconds ttftDeadline() const = 0;
};

/**
 * The capability-checked action surface.  Implemented by the fleet
 * kernel; every call is validated against the current hook context
 * and the fleet's state, and an illegal call throws
 * std::logic_error (never corrupts kernel state):
 *
 *  - routeTo / shed: only inside onArrival, exactly one decision
 *    per arrival; routing to a draining or out-of-range replica
 *    throws;
 *  - steal: thief must differ from the victim, be known servable,
 *    Active, and the victim must hold queued (never running)
 *    requests — asking to steal from a victim whose requests are
 *    all running throws;
 *  - spawnReplica / requestDrain: the autoscaling verbs.  spawnReplica
 *    (capability-gated on Wants::kSpawn) stands up a new replica
 *    mid-run with real physics: it pays the spec's provisioning
 *    latency, then replays the batch-ramp warm-up on the virtual
 *    clock, and only then goes Active and routable.  requestDrain
 *    walks a replica to Draining; compose with "drain-migrate" to
 *    evacuate its work, and the kernel retires it (stopping its
 *    active-seconds clock) once it holds nothing.
 */
class FleetActions
{
  public:
    virtual ~FleetActions() = default;

    /** Place the current arrival on `replica` (onArrival only). */
    virtual void routeTo(std::uint32_t replica) = 0;

    /** Reject the current arrival at the door (onArrival only). */
    virtual void shed() = 0;

    /**
     * Move up to `max_count` queued requests from `victim` to
     * `thief` (newest arrivals first, as stealQueued defines).
     * Returns how many actually moved.  If the thief is idle the
     * kernel starts its next work immediately, exactly like the
     * legacy stealing hook.
     */
    virtual std::uint32_t steal(std::uint32_t thief,
                                std::uint32_t victim,
                                std::uint32_t max_count) = 0;

    /**
     * Preempt running request `id` on `replica` at the current
     * boundary and requeue it there: its KV stays cached on the
     * replica, so resuming locally re-prefills nothing — the freed
     * slot goes to whatever the priority-aware admission picks next.
     * Capability-gated on Wants::kPreempt.  Throws std::logic_error
     * when the policy did not declare kPreempt, the replica is
     * mid-step (preemption happens at decode boundaries — defer to
     * its next onStepComplete), or `id` is queued/unknown there.
     */
    virtual void preempt(std::uint32_t replica,
                         std::uint64_t id) = 0;

    /**
     * Move request `id` — running (preempted first) or still queued
     * — from the replica that holds it to `to_replica`, KV cache
     * included.  The KV travels over the DIMM-link fabric: the
     * destination sees the arrival only after a transfer delay
     * proportional to the request's context length
     * (fleet::kvMigrationSeconds; zero for a request that never
     * started).  Capability-gated on Wants::kMigrate.  Throws
     * std::logic_error when the policy did not declare kMigrate,
     * the destination is out of range, draining, dead, or already
     * holds the request, the request is unknown / shed / already in
     * flight, or it is running on a replica that is mid-step.  The
     * destination is validated at call time: one that starts
     * draining while the KV is in flight still receives the
     * request (it was committed before the drain), and one whose
     * lazy capability probe fails later holds it like any other
     * delivery.
     */
    virtual void migrate(std::uint64_t id,
                         std::uint32_t to_replica) = 0;

    /**
     * Stand up one more replica mid-run (capability-gated on
     * Wants::kSpawn; throws std::logic_error without it).  Returns
     * the new replica's index, visible immediately through
     * FleetView in lifecycle Provisioning.  The replica becomes
     * routable only after its modeled warm-up completes:
     *
     *   now + spec.provisionSeconds          Provisioning → Warming
     *   ... + batch-ramp warm-up replay      Warming → Active
     *
     * The warm-up replay is the same power-of-two batch ramp every
     * pre-configured replica pays during calibration, priced on the
     * spawned replica's own cost surface.  A spec whose cost cells
     * match an existing replica's (same system, engine, seed,
     * calibrationTokens and seqBucket) joins that replica's shared
     * cost surface (warm wherever the surface already reaches —
     * calibration already paid); a novel spec calibrates cold,
     * billed to FleetReport::calibrationSeconds like any other
     * calibration.
     */
    virtual std::uint32_t spawnReplica(const ReplicaSpec &spec) = 0;

    /**
     * Stop routing to `replica`; it drains what it holds and the
     * kernel retires it once nothing remains (lifecycle Draining →
     * Retired, freezing its active-seconds clock).  Routing to a
     * drained replica throws; the built-in routing policies mask
     * non-Active replicas out of their rankings, so composing a
     * router with a draining policy is safe.  Compose with
     * "drain-migrate" to evacuate running and queued work instead
     * of letting the replica finish it.
     */
    virtual void requestDrain(std::uint32_t replica) = 0;
};

/** Everything onArrival knows about the request being placed. */
struct ArrivalContext
{
    std::uint64_t requestId = 0;
    Seconds arrival = 0.0; ///< Also the current virtual time.
    std::uint32_t promptTokens = 0;
    std::uint32_t generateTokens = 0;
    std::uint32_t priority = 0;

    /** Conversation this request belongs to; 0 = standalone. */
    std::uint64_t sessionId = 0;
};

/**
 * One control-plane behavior (see file header).  Policies are
 * stateful across one run and reset in begin(); the same object may
 * drive many runs and many fleets sequentially.
 */
class ControlPolicy
{
  public:
    /** Subscription / capability bits for wants(). */
    enum Wants : std::uint32_t
    {
        kNone = 0,

        /** Deliver onPrefillComplete / onStepComplete. */
        kReplicaEvents = 1u << 1,

        /** Deliver onReplicaIdle. */
        kIdle = 1u << 2,

        /** Deliver onReplicaDead. */
        kDead = 1u << 3,

        /** Deliver onTick every tickPeriod() virtual seconds. */
        kTick = 1u << 4,

        /** May call FleetActions::preempt (lifecycle capability). */
        kPreempt = 1u << 5,

        /** May call FleetActions::migrate (lifecycle capability). */
        kMigrate = 1u << 6,

        /** May call FleetActions::spawnReplica (autoscaling). */
        kSpawn = 1u << 7,

        /** Deliver onReplicasChanged (the kernel's change list). */
        kReplicaChanges = 1u << 8,
    };

    virtual ~ControlPolicy() = default;

    /** Registry / report name (e.g. "jsq", "slo-steal"). */
    virtual std::string name() const = 0;

    /** OR of Wants bits; the kernel honors exactly these. */
    virtual std::uint32_t wants() const { return kNone; }

    /** Virtual-time heartbeat period; <= 0 disables onTick. */
    virtual Seconds tickPeriod() const { return 0.0; }

    /**
     * Reset per-run state; called once before each fleet run.  The
     * run's parameters (the TTFT deadline included) are FleetView
     * probes, read when a hook runs.
     */
    virtual void begin() {}

    /**
     * Place (or shed) one arriving request.  Exactly one decision —
     * routeTo or shed — must be made across all subscribed policies
     * per arrival; the kernel throws otherwise.
     */
    virtual void onArrival(const ArrivalContext &context,
                           const FleetView &view,
                           FleetActions &actions)
    {
        (void)context;
        (void)view;
        (void)actions;
    }

    /** A replica finished a joint admission prefill (kReplicaEvents). */
    virtual void onPrefillComplete(std::uint32_t replica, Seconds now,
                                   const FleetView &view,
                                   FleetActions &actions)
    {
        (void)replica;
        (void)now;
        (void)view;
        (void)actions;
    }

    /** A replica finished one decode step (kReplicaEvents). */
    virtual void onStepComplete(std::uint32_t replica, Seconds now,
                                const FleetView &view,
                                FleetActions &actions)
    {
        (void)replica;
        (void)now;
        (void)view;
        (void)actions;
    }

    /** A replica ran out of work at a boundary (kIdle). */
    virtual void onReplicaIdle(std::uint32_t replica, Seconds now,
                               const FleetView &view,
                               FleetActions &actions)
    {
        (void)replica;
        (void)now;
        (void)view;
        (void)actions;
    }

    /** A replica's capability probe failed (kDead; fires once). */
    virtual void onReplicaDead(std::uint32_t replica, Seconds now,
                               const FleetView &view,
                               FleetActions &actions)
    {
        (void)replica;
        (void)now;
        (void)view;
        (void)actions;
    }

    /** Periodic heartbeat on the virtual clock (kTick). */
    virtual void onTick(Seconds now, const FleetView &view,
                        FleetActions &actions)
    {
        (void)now;
        (void)view;
        (void)actions;
    }

    /**
     * The state of `replicas` (each listed once, in first-change
     * order) may have changed since the previous call
     * (kReplicaChanges): how a policy keeps its own replica index
     * current.  Delivered at every hook entry and after every
     * FleetActions verb, whenever anything changed; the first call
     * of a run lists the whole fleet, and a spawned replica is
     * listed by the verb that created it.  Read-only: no actions.
     */
    virtual void onReplicasChanged(
        const std::vector<std::uint32_t> &replicas,
        const FleetView &view)
    {
        (void)replicas;
        (void)view;
    }
};

/**
 * Fan one event stream out to several policies (e.g. a routing
 * policy plus a stealing policy).  wants() is the OR of the
 * children's; every child sees every hook it subscribed to, in
 * child order.  The one-decision-per-arrival contract applies to
 * the composite as a whole.
 */
class CompositeControlPolicy : public ControlPolicy
{
  public:
    explicit CompositeControlPolicy(
        std::vector<std::shared_ptr<ControlPolicy>> children);

    std::string name() const override;
    std::uint32_t wants() const override;
    Seconds tickPeriod() const override;
    void begin() override;
    void onArrival(const ArrivalContext &context,
                   const FleetView &view,
                   FleetActions &actions) override;
    void onPrefillComplete(std::uint32_t replica, Seconds now,
                           const FleetView &view,
                           FleetActions &actions) override;
    void onStepComplete(std::uint32_t replica, Seconds now,
                        const FleetView &view,
                        FleetActions &actions) override;
    void onReplicaIdle(std::uint32_t replica, Seconds now,
                       const FleetView &view,
                       FleetActions &actions) override;
    void onReplicaDead(std::uint32_t replica, Seconds now,
                       const FleetView &view,
                       FleetActions &actions) override;
    void onTick(Seconds now, const FleetView &view,
                FleetActions &actions) override;
    void onReplicasChanged(const std::vector<std::uint32_t> &replicas,
                           const FleetView &view) override;

  private:
    std::vector<std::shared_ptr<ControlPolicy>> children_;
};

/**
 * A routing policy over the calibrated Router (sched/router.hh):
 * the six legacy RouterPolicy behaviors as ControlPolicy objects.
 * Bit-identical to the pre-API kernel by construction — the same
 * Router makes the same decisions from the same inputs.
 */
std::shared_ptr<ControlPolicy> makeRouterPolicy(RouterPolicy policy);

/**
 * The legacy occupancy-greedy work-stealing hook ("greedy-steal"):
 * an idle servable replica steals ceil(half) of the deepest queue
 * among busy-or-dead victims, capped at its own batch size.
 */
std::shared_ptr<ControlPolicy> makeGreedyStealPolicy();

/**
 * SLO-aware work stealing ("slo-steal") — the first policy the
 * enum/bool surface could not express.  An idle replica picks the
 * victim whose queued requests face the *worst estimated wait*
 * (observed token backlog over calibrated drain rate, plus prefill;
 * infinite for a dead victim) and steals only when its own
 * estimated TTFT for the stolen work — its calibrated prefill,
 * since it is idle — beats that wait.  A slow thief therefore
 * declines steals that occupancy-greedy would take at the cost of
 * the tail.
 */
std::shared_ptr<ControlPolicy> makeSloStealPolicy();

/**
 * Priority preemption ("priority-preempt") — the first lifecycle
 * policy.  At every replica boundary it looks for a queued request
 * whose projected TTFT — its age plus the wait for a batch slot to
 * free naturally plus the calibrated prefill — misses the deadline
 * while preempting would still save it, and evicts the
 * lowest-priority running request of strictly lower priority (ties:
 * most remaining work).  The victim requeues on the same replica
 * with its KV retained (free re-admission); the priority-aware
 * admission hands the freed slot to the protected request at the
 * same boundary.  Compose with a router ("jsq+priority-preempt").
 */
std::shared_ptr<ControlPolicy> makePriorityPreemptPolicy();

/**
 * Drain/dead-replica migration ("drain-migrate") — requests leave a
 * failing replica instead of being abandoned.  Queued work on a
 * dead or draining replica, and running work on a draining replica
 * at its decode boundaries, migrates to the least-loaded healthy
 * replica, paying the DIMM-link KV transfer for whatever context it
 * accumulated.  Compose with a router ("round-robin+drain-migrate").
 */
std::shared_ptr<ControlPolicy> makeDrainMigratePolicy();

/**
 * KV-affinity session routing ("affinity") — the multi-turn router.
 * A follow-up turn's prompt repeats its whole conversation history,
 * and the replica that served the previous turn may still hold that
 * history's KV cache (FleetView::cachedSessionTokens), making its
 * prefill almost free.  The policy routes a session turn back to
 * the replica holding its KV unless the load gap argues otherwise:
 * it sticks when the resident tokens (prefill work saved) at least
 * cover the token-backlog gap to the least-loaded replica (extra
 * queueing taken on).  Standalone requests (session 0), first
 * turns, turns whose KV was evicted, and turns whose sticky replica
 * is draining or dead all fall back to ground-truth
 * join-shortest-queue over observed outstanding requests.
 */
std::shared_ptr<ControlPolicy> makeAffinityPolicy();

/**
 * Target-backlog autoscaler ("target-backlog") — the first policy
 * to use the spawn/drain physics.  Every tick it compares the
 * fleet-wide observed token backlog against what the currently
 * provisioned replicas (Provisioning + Warming + Active — warming
 * capacity is already bought, double-spawning for it would
 * oscillate) can drain within the TTFT deadline, and scales toward
 * the implied replica count: spawning a clone of an Active
 * replica's spec when short, draining the least-loaded Active
 * replica when over.  Hysteresis (consecutive ticks agreeing before
 * acting) and a post-action cooldown damp flapping; min/max fleet
 * bounds cap both directions.  Compose with a lifecycle-aware
 * router and drain-migrate: "affinity+target-backlog+drain-migrate".
 */
std::shared_ptr<ControlPolicy> makeTargetBacklogPolicy();

/**
 * Compose routing + auxiliary policies into one control plane.
 * Throws std::invalid_argument when `children` is empty.
 */
std::shared_ptr<ControlPolicy> composeControlPolicies(
    std::vector<std::shared_ptr<ControlPolicy>> children);

/**
 * Registry names of the built-in atoms, in display order: the six
 * router policies ("round-robin", "jsq", "least-tokens",
 * "slo-aware", "true-jsq", "least-backlog"), then "greedy-steal",
 * "slo-steal", "priority-preempt", "drain-migrate", "affinity",
 * and "target-backlog".
 */
std::vector<std::string> controlPolicyNames();

/**
 * Build a control policy by registry name.  A '+'-joined name
 * ("least-tokens+slo-steal") composes atoms left to right; throws
 * std::invalid_argument on unknown atoms or an empty name.
 */
std::shared_ptr<ControlPolicy>
controlPolicyByName(const std::string &name);

} // namespace hermes::sched

#endif // HERMES_SCHED_CONTROL_POLICY_HH
