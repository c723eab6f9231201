/**
 * @file
 * Fleet serving: N engine replicas co-simulated on one virtual clock.
 *
 * One ServingSimulator drives one engine instance; a production
 * deployment runs many replicas — possibly on different hardware
 * tiers or different engines — behind a router.  The FleetSimulator
 * composes both layers as an event-driven co-simulation
 * (core/event_sim.hh):
 *
 *  1. every request arrival is an event on the shared virtual
 *     clock; at that instant the active sched::ControlPolicy
 *     places the request on a replica (or sheds it), observing
 *     the replicas' ground-truth state through the kernel's
 *     FleetView and acting through its capability-checked
 *     FleetActions surface (sched/control_policy.hh);
 *  2. each replica is a resumable stepwise engine; its prefill and
 *     decode-step completions are events on the same clock, so all
 *     timing remains ground truth from the decode pipeline and
 *     the control plane finally *sees* the consequences of its own
 *     decisions;
 *  3. the policy's other subscriptions (onReplicaIdle, onTick,
 *     onReplicaDead, ...) fire on the same clock — work stealing,
 *     for example, is just a policy that reacts to onReplicaIdle
 *     by moving queued requests to the idle replica;
 *  4. each replica's per-request rows are scattered by request id
 *     into their trace slots of a FleetReport, whose replica reports
 *     keep only aggregates: throughput (the sum over replicas),
 *     fleet TTFT percentiles, SLO attainment against the deadline.
 *
 * On estimate-based policies the kernel's per-request metrics equal
 * an isolated ServingSimulator::run of each replica's share of the
 * trace, which the tests pin.
 *
 * Replica ServingSimulators (and their calibrated cost caches)
 * persist across run() calls, so sweeping scenarios over one fleet
 * re-simulates engines only for unseen (batch, context) buckets.
 * Replicas whose cost cells match share one cost surface, led by
 * the first of them.  Router calibration runs the surface leaders
 * in parallel on a small thread pool — each thread owns whole
 * leaders, so no surface is touched by two threads — then each
 * other replica re-probes its leader's warm surface serially.
 *
 * Per-replica state lives in exactly two tables, one row per
 * replica: FleetSimulator's replica table (simulator + cost-surface
 * leader), which persists across runs, and the event kernel's
 * run-state record (spec, calibrated model, lifecycle, billing
 * clock, event flags), which lives for one run.  A mid-run spawn
 * appends one row to each; the run's end reads the report's names
 * and billing from the records and trims the spawned rows.
 */

#ifndef HERMES_CORE_FLEET_HH
#define HERMES_CORE_FLEET_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/event_sim.hh"
#include "core/serving.hh"
#include "core/workload.hh"
#include "model/llm_config.hh"
#include "runtime/system_config.hh"
#include "sched/control_policy.hh"
#include "sched/router.hh"

namespace hermes::fleet {

/** One replica: a platform plus its serving policy/engine. */
struct ReplicaConfig
{
    std::string name; ///< Display name; defaults to "r<i>".
    runtime::SystemConfig system{};
    serving::ServingConfig serving{};
};

/** Fleet topology and control plane. */
struct FleetConfig
{
    std::vector<ReplicaConfig> replicas;

    /**
     * The control plane (sched/control_policy.hh), required: an
     * event-subscribed policy object owning every placement,
     * shedding, and stealing decision.  Build one with
     * `sched::controlPolicyByName("least-tokens+slo-steal")` or
     * compose your own.  FleetSimulator throws when it is null.
     */
    std::shared_ptr<sched::ControlPolicy> control;

    /**
     * TTFT service-level objective.  SloAware sheds requests whose
     * estimated TTFT already misses it; every policy reports
     * attainment against it.
     */
    Seconds ttftDeadline = 2.0;

    /**
     * Threads for router calibration across replicas (0 = one per
     * replica, capped at the hardware concurrency).
     */
    std::uint32_t calibrationThreads = 0;
};

/** `count` identical replicas behind the given control plane. */
FleetConfig uniformFleet(std::uint32_t count,
                         const runtime::SystemConfig &system,
                         const serving::ServingConfig &serving,
                         std::shared_ptr<sched::ControlPolicy> control,
                         Seconds ttft_deadline = 2.0);

/**
 * DIMM-link KV-transfer time for migrating `context_tokens` of
 * accumulated KV cache between replicas: the cost the event kernel
 * charges before a migrated request's ResumeReady event fires, and
 * the cost a test can assert is proportional to context length.
 * Reuses the decode pipeline's migration interconnect model
 * (interconnect::DimmLinkNetwork) with the source replica's link
 * parameters; zero when there is no context to move.
 */
Seconds kvMigrationSeconds(const runtime::SystemConfig &system,
                           const model::LlmConfig &llm,
                           std::uint64_t context_tokens);

/** What the event kernel did during one run. */
struct KernelStats
{
    sim::EventStats events;

    /** Work-stealing action firings / requests moved. */
    std::uint64_t steals = 0;
    std::uint64_t stolenRequests = 0;

    /** Request-lifecycle verbs (FleetActions::preempt / migrate). */
    std::uint64_t preemptions = 0;
    std::uint64_t migrations = 0;

    /** Virtual seconds spent in DIMM-link KV transfers (migrate). */
    double kvTransferSeconds = 0.0;

    /**
     * Autoscaling verbs.  drainRequests counts requestDrain calls
     * that actually started a drain.  spawnedReplicas counts
     * replicas stood up mid-run by spawnReplica (each walks
     * Provisioning → Warming → Active on the virtual clock);
     * retiredReplicas counts replicas whose drain completed — their
     * active-seconds clock stopped at the retire instant
     * (FleetReport::replicaActiveSeconds).
     */
    std::uint64_t drainRequests = 0;
    std::uint64_t spawnedReplicas = 0;
    std::uint64_t retiredReplicas = 0;

    /**
     * Wall-clock seconds spent inside the event loop itself —
     * control-plane + bookkeeping overhead.  Engine-simulation time
     * for cold cost-cache buckets hit mid-loop is measured
     * separately (calibrationSeconds) and subtracted here, so
     * events.popped() / loopSeconds is the kernel's events/sec, not
     * the calibration wall's.
     */
    double loopSeconds = 0.0;

    /**
     * Wall-clock seconds the run spent inside cost-model engine
     * simulations, summed over cache groups: up-front router
     * calibration and trajectory warming plus any cold buckets the
     * loop still hit.  A bench tier where this exceeds loopSeconds
     * is calibration-bound: its wall time is engine simulation, not
     * the event loop.
     */
    double calibrationSeconds = 0.0;

    /**
     * Full trace-driven engine simulations (tapes recorded) behind
     * that calibration, summed over cache groups; every other
     * cost-cell run replayed a tape.  A deterministic work counter:
     * a function of the cells computed, whichever threads computed
     * them (warming at calibrationThreads > 1 computes a session
     * trace's whole grid; a lazy run only the cells it touches).
     */
    std::uint64_t calibrationTapes = 0;
};

/** Fleet-level outcome of one run. */
struct FleetReport
{
    std::string policy;
    Seconds ttftDeadline = 0.0;

    /**
     * Per-replica serving reports, fleet order: aggregates only
     * (filter `requests` by `assignment` for one replica's rows).
     * Replicas spawned mid-run by the autoscaler append after the
     * configured fleet, named "s<k>" by default (spawn order).
     */
    std::vector<serving::ServingReport> replicaReports;
    std::vector<std::string> replicaNames;

    /**
     * Virtual seconds each replica was alive and billable, fleet
     * order (parallel to replicaReports): from its spawn instant
     * (0 for configured replicas) to its retire instant (end of
     * run when never retired).  Provisioning and warming time is
     * billable — the instance is up — which is exactly why a
     * scaler that flaps pays for it.
     */
    std::vector<Seconds> replicaActiveSeconds;

    /** Fleet cost: sum over replicaActiveSeconds. */
    Seconds replicaSeconds = 0.0;

    /**
     * replicaSeconds per completed request — the autoscaling
     * headline metric (0 when nothing completed).  A scaler beats a
     * fixed fleet when it completes the same work within the SLO on
     * fewer replica-seconds.
     */
    double costPerRequest = 0.0;

    /**
     * Request -> replica index, in arrival order (parallel to
     * `requests`); -1 marks a request shed by the router.  Under
     * work stealing this is the replica that finally held the
     * request, not the router's first placement.
     */
    std::vector<int> assignment;

    /** All requests in arrival order (shed ones marked rejected). */
    std::vector<serving::RequestMetrics> requests;

    std::uint64_t completed = 0;
    std::uint64_t rejected = 0; ///< Includes shed.
    std::uint64_t shed = 0;     ///< Rejected at the router.

    Seconds makespan = 0.0;      ///< Max over replica makespans.
    double throughputTps = 0.0;  ///< Sum of replica throughputs.

    Seconds p50Ttft = 0.0; ///< Over served (non-rejected) requests.
    Seconds p99Ttft = 0.0;

    /**
     * Fraction of ALL requests that were served with TTFT within the
     * deadline — shed and rejected requests count as misses, so
     * shedding trades attainment for tail latency honestly.
     */
    double sloAttainment = 0.0;

    bool costModelSaturated = false;

    KernelStats kernelStats;
};

/**
 * TTFTs of the served (non-rejected) requests with priority >=
 * `min_priority`, sorted once for any number of percentile reads —
 * how a priority tier's tail reads from a FleetReport (0 covers
 * everything: percentile(99) is p99Ttft).
 */
serving::SortedSamples ttftSamples(const FleetReport &report,
                                   std::uint32_t min_priority = 0);

/**
 * End-to-end latencies (arrival -> completion) of the served
 * requests with priority >= `min_priority`.  The multi-turn headline
 * metric: a conversation blocks on the *whole* turn, not just its
 * first token, so KV-affinity wins show up here even when TTFT ties.
 */
serving::SortedSamples latencySamples(const FleetReport &report,
                                      std::uint32_t min_priority = 0);

/** The calibration operating point a workload implies (fleet.cc). */
struct WorkloadShape;

/** Multi-replica co-simulator (see file header). */
class FleetSimulator
{
  public:
    /** Throws std::invalid_argument without replicas or control. */
    FleetSimulator(FleetConfig config, model::LlmConfig llm);

    /**
     * Serve one arrival trace (any order; sorted internally).
     * Request ids must be unique: replica rows are scattered into
     * the report by id.
     */
    FleetReport run(std::vector<serving::ServedRequest> workload);

    /**
     * Serve a multi-turn session trace (core/workload.hh).  Only
     * each session's first turn is scheduled up front; every
     * follow-up turn arrives think-time after its predecessor
     * completes — a closed-loop arrival process.  Follow-up turns
     * whose predecessor was shed or rejected never arrive and are
     * reported as rejected (the conversation ended).  A plan the
     * kernel cannot follow throws std::invalid_argument.
     */
    FleetReport run(const serving::SessionTrace &sessions);

    const FleetConfig &config() const { return config_; }

    /**
     * One row of the replica table: the replica's simulator and the
     * cost-surface group it joined.  Replicas whose cost cells match
     * share one surface, led by the first of them: costLeader is
     * that leader's index (the replica's own when it leads).  A cell
     * is a pure function of the system, model, engine,
     * calibrationTokens, seed and seqBucket
     * (ServingSimulator::shareCostsWith), so replicas equal in those
     * share bit-identically whatever their maxBatch, maxQueue or
     * kvCapacityTokens — a uniform fleet pays each cold (batch,
     * context) bucket once instead of once per replica, and
     * calibration gives each leader to exactly one worker.
     */
    struct Replica
    {
        std::unique_ptr<serving::ServingSimulator> simulator;
        std::size_t costLeader = 0;

        /** This row (at `index`) leads its cost-surface group. */
        bool
        leadsCostGroup(std::size_t index) const
        {
            return costLeader == index;
        }
    };

  private:
    /**
     * The body both run() overloads share once their input checks
     * pass: index the request ids (rejecting duplicates and bad
     * session plans), calibrate, warm (session traces only), drive
     * the event kernel, bill calibration, and merge.  `sessions`
     * switches the kernel into session mode (first turns only are
     * preloaded; follow-ups are scheduled as SessionContinue events
     * at done + think, overwriting their placeholder arrival in
     * `workload`).
     */
    FleetReport runTrace(std::vector<serving::ServedRequest> &workload,
                         const serving::SessionTrace *sessions);

    /**
     * Calibrate every replica's router model at the workload's
     * typical operating point and warm its cost cache across the
     * batch ramp up to the workload maxima, so the event loop
     * itself runs on cache hits.  Cache-group leaders run in
     * parallel across a thread pool.
     */
    std::vector<sched::ReplicaModel>
    calibrateAll(const WorkloadShape &shape);

    /**
     * Pre-warm every cache group's cost surface across its
     * leader's batch ramp and the full context trajectory a session
     * trace will climb (columns 0..max_context/seqBucket), using the
     * calibration thread pool.  Grids over 4096 cells are skipped
     * (tiny seqBucket; the run would not touch most of them
     * either).  Warming is observable only as wall-clock time —
     * cache fills are order-independent and never latch
     * saturation, so warmed runs stay bit-identical.
     */
    void warmSessionCosts(std::uint64_t max_context);

    /**
     * Engine-simulation seconds accumulated in the cost caches so
     * far, summed over cache-group leaders (a shared cache counts
     * once).  Snapshot deltas around the event loop split
     * KernelStats::loopSeconds from calibrationSeconds.
     */
    double totalCalibrationSeconds() const;

    /** Tapes recorded by every cache group's engines so far. */
    std::uint64_t totalCalibrationTapes() const;

    FleetConfig config_;
    model::LlmConfig llm_;

    /**
     * The replica table, fleet order: the configured fleet, plus
     * the replicas a run spawns (the event kernel appends one row
     * per spawn; runTrace trims them after the run).
     */
    std::vector<Replica> replicas_;
};

} // namespace hermes::fleet

#endif // HERMES_CORE_FLEET_HH
