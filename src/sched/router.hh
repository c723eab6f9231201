/**
 * @file
 * Fleet request router: pick a replica for each arriving request.
 *
 * The router sees arrivals in time order and holds a lightweight
 * queueing model of every replica (batch slots with estimated
 * free-times, calibrated prefill latency and per-slot decode rate).
 * Each decision commits the request to the chosen replica's model, so
 * later decisions see the backlog earlier ones created — an online
 * router, not an offline partitioner.
 *
 * Policies:
 *  - RoundRobin: static interleave, ignores state;
 *  - JoinShortestQueue: fewest outstanding requests at arrival;
 *  - LeastOutstandingTokens: smallest estimated backlog measured in
 *    tokens, which discriminates between slow and fast replicas in a
 *    heterogeneous fleet;
 *  - SloAware: smallest estimated TTFT, and sheds (rejects at the
 *    door) requests whose best achievable TTFT estimate already
 *    misses the deadline — protecting the latency of admitted work;
 *  - TrueJsq / LeastActualBacklog: the feedback twins of
 *    JoinShortestQueue / LeastOutstandingTokens.  Instead of the
 *    calibrated estimate they rank replicas by *observed* state
 *    (actual occupancy / actual token backlog), which the caller
 *    samples from FleetView at the arrival instant and passes into
 *    route().  Routing them without observations throws.
 *
 * The model is an estimate: the replica's own ServingSimulator run
 * remains the ground truth for timing.  Estimates only decide *where*
 * a request goes (and, for SloAware, *whether* it is admitted); the
 * feedback policies replace the estimate with ground truth at the
 * decision instant, closing the loop the estimate approximates.
 *
 * The Router is the calibrated *estimator* behind the built-in
 * estimate-based routing ControlPolicy objects
 * (sched/control_policy.hh); fleets name their control plane through
 * `controlPolicyByName` / `FleetConfig::control`.  route() is the
 * linear reference for every policy: the built-in jsq answers from
 * routeShortestQueue()'s index, and true-jsq / least-backlog from
 * policy-owned indices, all bit-identical to it.  Which replicas
 * may be picked is router state, not a per-call argument: the
 * control plane flips setRoutable() from the kernel's change list
 * as replicas enter and leave the Active lifecycle.
 *
 * Calibration probes go through ServingSimulator's cost surface, so
 * the router's estimates are built from the same exact costs the
 * kernel serves steps from, and the shared per-cache-group cost
 * cache means probing N replicas of one group costs one calibration.
 */

#ifndef HERMES_SCHED_ROUTER_HH
#define HERMES_SCHED_ROUTER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hh"
#include "sched/replica_index.hh"

namespace hermes::sched {

/** Replica-selection policy of the fleet router. */
enum class RouterPolicy
{
    RoundRobin,
    JoinShortestQueue,
    LeastOutstandingTokens,
    SloAware,
    TrueJsq,
    LeastActualBacklog,
};

/**
 * Display name ("round-robin", "jsq", "least-tokens", "slo-aware",
 * "true-jsq", "least-backlog").
 */
std::string routerPolicyName(RouterPolicy policy);

/** All policies, in the order benches sweep them. */
std::vector<RouterPolicy> allRouterPolicies();

/** Parse a display name back to a policy; throws on unknown names. */
RouterPolicy routerPolicyByName(const std::string &name);

/** Whether a policy ranks replicas by observed (not estimated) state. */
bool routerPolicyNeedsObservations(RouterPolicy policy);

/**
 * Ground-truth replica state sampled at a routing instant
 * (FleetView::observedOutstanding / observedBacklogTokens): what
 * the estimate-based policies approximate, the feedback policies
 * consume directly.
 */
struct ReplicaObservation
{
    /** Requests on the replica: running + queued + undecided. */
    std::uint32_t outstanding = 0;

    /** Tokens still owed to requests on the replica. */
    double backlogTokens = 0.0;
};

/** The router's calibrated view of one replica. */
struct ReplicaModel
{
    /** Continuous-batching slots (concurrent decodes). */
    std::uint32_t maxBatch = 16;

    /** Calibrated prefill latency for a typical prompt. */
    Seconds prefillSeconds = 0.05;

    /**
     * Calibrated decode throughput of ONE batch slot when the batch
     * is full (aggregate tokens/s divided by maxBatch).
     */
    double slotTokensPerSecond = 10.0;

    /**
     * Calibrated prefill throughput (prompt tokens per second at
     * the full-batch joint prefill): typical prompt length over
     * prefillSeconds.  What converts a KV-resident prefix into the
     * prefill seconds it saves — prefill is typically an order of
     * magnitude cheaper per token than decode, which is exactly why
     * affinity scores must not compare cached tokens against
     * backlog tokens 1:1.
     */
    double prefillTokensPerSecond = 2560.0;

    /**
     * Median generate length of the calibration workload, in
     * tokens.  Lets capacity planners amortize the joint prefill
     * over a request's decode phase: a full admission group pays
     * prefillSeconds once before emitting maxBatch tokens per
     * decode step, so the *sustained* drain rate is
     * maxBatch * G / (prefillSeconds + G / slotTokensPerSecond),
     * far below slotTokensPerSecond * maxBatch on prefill-heavy
     * workloads.  Zero means uncalibrated — consumers fall back to
     * the raw full-batch step rate.  FleetSimulator's calibration
     * currently sets 1, not the median (see core/fleet.cc).
     */
    double typicalGenerateTokens = 0.0;
};

/** One routing decision. */
struct RouteDecision
{
    /** Chosen replica, or < 0 when the request was shed (SloAware). */
    int replica = -1;

    /** Estimated time-to-first-token on the chosen replica. */
    Seconds estimatedTtft = 0.0;
};

/**
 * Online router over a fixed replica set.  Feed arrivals in
 * non-decreasing arrival order; every accepted request updates the
 * internal backlog estimate of its replica.
 */
class Router
{
  public:
    /**
     * @param ttft_deadline  SloAware shedding threshold; ignored by
     *                       the other policies (they never shed).
     */
    Router(RouterPolicy policy, std::vector<ReplicaModel> replicas,
           Seconds ttft_deadline = 2.0);

    /**
     * Route one request arriving at `arrival`.  `observed`, when
     * provided, carries one ground-truth ReplicaObservation per
     * replica, sampled at this instant; the feedback policies
     * (TrueJsq, LeastActualBacklog) rank by it and every other
     * policy ignores it.  Routing a feedback policy without exactly
     * one observation per replica throws std::invalid_argument.
     *
     * Every ranking skips replicas flagged unroutable
     * (setRoutable); with none routable the request is shed
     * (replica < 0).  A router whose replicas are all routable —
     * the default — makes the unrestricted decision sequence.
     */
    RouteDecision
    route(Seconds arrival, std::uint32_t generate_tokens,
          const std::vector<ReplicaObservation> *observed = nullptr);

    /**
     * JoinShortestQueue in O(log replicas): the decision route()
     * makes with a JoinShortestQueue router, bit for bit, including
     * the shed when no replica is routable.  The exact per-replica
     * outstandingRequests(i, arrival) counts live in an index that
     * commit() increments and a min-heap of commitment finish times
     * decrements as the (non-decreasing) arrival clock passes each
     * one.  Throws std::logic_error on any other policy.
     */
    RouteDecision routeShortestQueue(Seconds arrival,
                                     std::uint32_t generate_tokens);

    /**
     * Whether route() and routeShortestQueue() may pick `replica`
     * (every replica starts routable).  How the control plane
     * masks replicas that are not Active — still provisioning or
     * warming after an autoscaler spawn, draining, retired —
     * without rebuilding a mask per arrival.
     */
    void setRoutable(std::uint32_t replica, bool routable);

    /**
     * Append a replica to the routed set with an empty queueing
     * model — how the control plane keeps the router in sync when
     * an autoscaler spawns a replica mid-run.  Existing replicas'
     * committed backlogs are untouched, so decisions over the old
     * set stay bit-identical.
     */
    void addReplica(const ReplicaModel &model);

    std::uint32_t replicaCount() const
    {
        return static_cast<std::uint32_t>(replicas_.size());
    }

    /** Outstanding (routed, not estimated-finished) requests. */
    std::uint32_t outstandingRequests(std::uint32_t replica,
                                      Seconds now) const;

    /**
     * Estimated backlog of a replica in tokens at `now`: committed
     * generate-tokens not yet produced, draining linearly over each
     * request's estimated decode interval.  Deliberately NOT
     * speed-normalized — least-outstanding-tokens measures work
     * queued, and slower replicas shed load by draining it slower.
     */
    double outstandingTokens(std::uint32_t replica,
                             Seconds now) const;

  private:
    struct Commitment
    {
        Seconds decodeStart = 0.0; ///< Prefill done, tokens flowing.
        Seconds finish = 0.0;
        double tokens = 0.0;
    };

    struct SlotState
    {
        /** Per batch slot: estimated instant the slot frees. */
        std::vector<Seconds> freeAt;

        /** Routed requests still draining (pruned lazily). */
        std::vector<Commitment> commitments;

        /** Start of the last joint-prefill window charged. */
        Seconds lastPrefillStart = -1.0;

        /** Requests sharing that window. */
        std::uint32_t groupSize = 0;

        /**
         * Slots that were free when the window formed: the serving
         * simulator admits a group only into free batch slots, so a
         * cold replica groups up to maxBatch while a backlogged one
         * (slots freeing one by one) prefills almost per-request.
         */
        std::uint32_t groupCapacity = 0;
    };

    /** Whether a request arriving now would share the last window. */
    bool joinsGroup(const SlotState &state, Seconds arrival) const
    {
        return arrival <= state.lastPrefillStart &&
               state.groupSize < state.groupCapacity;
    }

    /** Estimated TTFT if `arrival` were routed to `replica` now. */
    Seconds estimateTtft(std::uint32_t replica, Seconds arrival) const;

    /** Commit a request to a replica's backlog model. */
    void commit(std::uint32_t replica, Seconds arrival,
                std::uint32_t generate_tokens);

    /** Whether this router keeps the shortest-queue index. */
    bool indexed() const
    {
        return policy_ == RouterPolicy::JoinShortestQueue;
    }

    /** Retire every commitment finished by `now` from the index. */
    void expireThrough(Seconds now);

    /** Re-key `replica` in the shortest-queue index. */
    void rekey(std::uint32_t replica);

    RouterPolicy policy_;
    std::vector<ReplicaModel> replicas_;
    std::vector<SlotState> state_;
    Seconds deadline_;
    std::uint64_t routed_ = 0; ///< RoundRobin cursor.

    /** setRoutable() flags, and how many are set. */
    std::vector<char> routable_;
    std::uint32_t routableCount_ = 0;

    /**
     * The shortest-queue index (JoinShortestQueue routers only):
     * per replica the count of commitments finishing after the
     * last arrival, the (count, or kAbsent when unroutable) tree
     * over it, and a min-heap of (finish, replica) expiries.
     */
    std::vector<std::uint32_t> live_;
    ReplicaIndex shortest_;
    std::vector<std::pair<Seconds, std::uint32_t>> expiry_;
};

} // namespace hermes::sched

#endif // HERMES_SCHED_ROUTER_HH
