#include "core/fleet.hh"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/threads.hh"

namespace hermes::fleet {

/** The calibration operating point a workload implies. */
struct WorkloadShape
{
    std::uint64_t typicalPrompt = 1;
    std::uint64_t typicalContext = 1;
    std::uint64_t maxPrompt = 0;
    std::uint64_t maxContext = 0;
};

namespace {

/** "r<i>", the default display name of replica i. */
std::string
defaultReplicaName(std::uint32_t index)
{
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "r%u", index);
    return buffer;
}

/** Median of a (copied) sample set; 0 when empty. */
std::uint64_t
median(std::vector<std::uint64_t> values)
{
    if (values.empty())
        return 0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid,
                     values.end());
    return values[mid];
}

/**
 * The router's typical request shape depends only on the workload:
 * compute it once, calibrate every replica against it.
 */
WorkloadShape
workloadShape(const std::vector<serving::ServedRequest> &workload)
{
    std::vector<std::uint64_t> prompts;
    std::vector<std::uint64_t> generates;
    prompts.reserve(workload.size());
    generates.reserve(workload.size());
    WorkloadShape shape;
    for (const serving::ServedRequest &request : workload) {
        prompts.push_back(request.promptTokens);
        generates.push_back(request.generateTokens);
        shape.maxPrompt = std::max<std::uint64_t>(
            shape.maxPrompt, request.promptTokens);
        shape.maxContext = std::max<std::uint64_t>(
            shape.maxContext, static_cast<std::uint64_t>(
                                  request.promptTokens) +
                                  request.generateTokens);
    }
    shape.typicalPrompt =
        std::max<std::uint64_t>(median(std::move(prompts)), 1);
    // Decode runs at a context that grows from the prompt; half the
    // typical generation is the representative midpoint.
    shape.typicalContext =
        shape.typicalPrompt +
        std::max<std::uint64_t>(median(std::move(generates)), 1) / 2;
    return shape;
}

/** "s<k>", the default name of the k-th replica spawned mid-run. */
std::string
spawnedReplicaName(std::uint64_t index)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "s%llu",
                  static_cast<unsigned long long>(index));
    return buffer;
}

/**
 * Append a replica built from (system, serving) to the table and
 * join it to the first earlier cost-surface leader whose surface it
 * can share (ServingSimulator::shareCostsWith), else let it lead a
 * new group.  One path for the configured fleet and mid-run spawns
 * alike.  Returns the new replica's simulator.
 */
serving::ServingSimulator &
appendReplica(std::vector<FleetSimulator::Replica> &replicas,
              const runtime::SystemConfig &system,
              const model::LlmConfig &llm,
              const serving::ServingConfig &serving)
{
    const std::size_t index = replicas.size();
    replicas.push_back(FleetSimulator::Replica{
        std::make_unique<serving::ServingSimulator>(system, llm,
                                                    serving),
        index});
    FleetSimulator::Replica &replica = replicas.back();
    for (std::size_t j = 0; j < index; ++j) {
        if (replicas[j].leadsCostGroup(j) &&
            replica.simulator->shareCostsWith(*replicas[j].simulator)) {
            replica.costLeader = j;
            break;
        }
    }
    return *replica.simulator;
}

/**
 * The power-of-two batch ramp up to `max_batch`: 1, 2, 4, ...,
 * ending at `max_batch` itself (capped when it is not a power of
 * two).  The batch buckets the admission loop touches as batches
 * grow, which calibration probes and a spawned replica's warm-up
 * replays.
 */
std::vector<std::uint32_t>
batchRamp(std::uint32_t max_batch)
{
    std::vector<std::uint32_t> ramp;
    for (std::uint32_t batch = 1;; batch *= 2) {
        ramp.push_back(std::min(batch, max_batch));
        if (batch >= max_batch)
            break;
    }
    return ramp;
}

/**
 * Calibrate the router's view of one replica at the workload's
 * typical operating point, and warm its cost cache across the
 * batch ramp (see FleetSimulator::calibrate).  Shared between
 * up-front fleet calibration and mid-run spawns: a replica stood
 * up by the autoscaler gets the identical model a configured
 * sibling would, from the identical probe set.
 */
sched::ReplicaModel
calibrateReplicaModel(serving::ServingSimulator &simulator,
                      const WorkloadShape &shape)
{
    const std::uint32_t max_batch = simulator.config().maxBatch;
    sched::ReplicaModel model;
    model.maxBatch = max_batch;
    // A dead replica (platform cannot run the model) and one whose
    // decode-context bucket is past its capacity (step 0, the
    // unservable sentinel; real steps are strictly positive) look
    // infinitely slow, never infinitely fast: the SLO-aware policy
    // never picks them and backlog-aware policies back off once
    // their never-draining queue estimate piles up.  Round-robin
    // still hits them — by design.
    const Seconds step =
        simulator.servable(1, shape.typicalPrompt)
            ? simulator.tokenSeconds(max_batch, shape.typicalContext)
            : 0.0;
    if (step <= 0.0) {
        model.prefillSeconds = 1.0e9;
        model.slotTokensPerSecond = 1.0e-9;
        model.prefillTokensPerSecond = 1.0e-9;
        return model;
    }
    // The router's window model charges one joint prefill per
    // admission group of up to maxBatch requests, so calibrate the
    // prefill at the group's batch size, not at batch 1.
    model.prefillSeconds =
        simulator.prefillSeconds(max_batch, shape.typicalPrompt);
    model.slotTokensPerSecond = 1.0 / step;
    // Prefill throughput in prompt tokens: what the affinity score
    // converts a KV-resident prefix with (prefill is much cheaper
    // per token than decode, so cached and backlog tokens must not
    // compare 1:1).
    model.prefillTokensPerSecond =
        static_cast<double>(shape.typicalPrompt) /
        std::max(model.prefillSeconds, 1.0e-12);
    // The scaler's prefill amortization length.  Calibration has
    // always passed G = 1 here rather than the workload median; the
    // autoscale pins are calibrated against that, so changing it is
    // a physics change of its own.
    model.typicalGenerateTokens = 1.0;
    // Warm the cost cache across the whole batch ramp at both the
    // workload-typical contexts and the workload maxima (heavy-
    // tailed prompt distributions put a few requests one context
    // bucket up): the admission loop touches every power-of-two
    // batch bucket as batches grow, and probing the buckets here —
    // outside the measured event loop, once per cache group —
    // turns mid-run engine simulations into cache hits.
    const std::uint64_t far_prompt =
        std::max<std::uint64_t>(shape.maxPrompt, 1);
    const std::uint64_t far_context =
        std::max<std::uint64_t>(shape.maxContext, 1);
    for (const std::uint32_t batch : batchRamp(max_batch)) {
        simulator.prefillSeconds(batch, shape.typicalPrompt);
        simulator.tokenSeconds(batch, shape.typicalContext);
        simulator.prefillSeconds(batch, far_prompt);
        simulator.tokenSeconds(batch, far_context);
    }
    return model;
}

/**
 * Virtual seconds a freshly spawned replica spends replaying the
 * calibration batch ramp as its first steps — one joint prefill
 * plus one decode step per power-of-two batch bucket, priced on the
 * replica's own (just warmed) cost surface.  This is the Warming
 * phase of the spawn lifecycle: the cold-start penalty a fixed
 * fleet paid before the clock started, which a scaler pays on it.
 */
Seconds
warmupReplaySeconds(serving::ServingSimulator &simulator,
                    const WorkloadShape &shape)
{
    double total = 0.0;
    for (const std::uint32_t batch :
         batchRamp(simulator.config().maxBatch)) {
        total += simulator.prefillSeconds(batch, shape.typicalPrompt);
        total += simulator.tokenSeconds(batch, shape.typicalContext);
    }
    return total;
}

/**
 * Immutable request-id -> workload-index map.  Trace ids are almost
 * always dense (0..n-1 from the generators), so the common case is
 * one direct vector lookup; scattered ids fall back to binary
 * search over a sorted array.
 */
class IdIndex
{
  public:
    static constexpr std::size_t npos =
        std::numeric_limits<std::size_t>::max();

    explicit IdIndex(
        const std::vector<serving::ServedRequest> &workload)
    {
        std::uint64_t max_id = 0;
        for (const serving::ServedRequest &request : workload)
            max_id = std::max(max_id, request.id);
        const std::size_t n = workload.size();
        if (n > 0 && max_id < 2 * n + 64) {
            dense_.assign(static_cast<std::size_t>(max_id) + 1,
                          npos);
            for (std::size_t i = 0; i < n; ++i) {
                std::size_t &slot =
                    dense_[static_cast<std::size_t>(
                        workload[i].id)];
                duplicate_ |= slot != npos;
                slot = i;
            }
        } else {
            sorted_.reserve(n);
            for (std::size_t i = 0; i < n; ++i)
                sorted_.emplace_back(workload[i].id, i);
            std::sort(sorted_.begin(), sorted_.end());
            for (std::size_t k = 1; k < sorted_.size(); ++k)
                duplicate_ |=
                    sorted_[k].first == sorted_[k - 1].first;
        }
    }

    /** Workload index of `id`, or npos when absent. */
    std::size_t
    find(std::uint64_t id) const
    {
        if (!sorted_.empty()) {
            const auto it = std::lower_bound(
                sorted_.begin(), sorted_.end(),
                std::make_pair(id, std::size_t{0}));
            return it != sorted_.end() && it->first == id
                       ? it->second
                       : npos;
        }
        return id < dense_.size()
                   ? dense_[static_cast<std::size_t>(id)]
                   : npos;
    }

    /** Workload index of `id`; the id must be present. */
    std::size_t
    at(std::uint64_t id) const
    {
        const std::size_t index = find(id);
        hermes_assert(index != npos,
                      "IdIndex: unknown request id ", id);
        return index;
    }

    /** Some id occurred more than once in the workload. */
    bool hasDuplicateIds() const { return duplicate_; }

  private:
    std::vector<std::size_t> dense_;
    std::vector<std::pair<std::uint64_t, std::size_t>> sorted_;
    bool duplicate_ = false;
};

/** Replica rows are scattered into the report by request id;
 * duplicates would make the slot ambiguous. */
void
requireUniqueIds(const IdIndex &ids)
{
    if (ids.hasDuplicateIds())
        throw std::invalid_argument(
            "FleetSimulator: request ids must be unique "
            "(replica rows are scattered into the report by id)");
}

/**
 * Refuse a session plan the kernel cannot follow: first turns (a
 * presorted stream) out of arrival order, or a successor that is
 * not in the trace, not its session's next turn, or named twice.
 */
void
checkSessionPlan(const serving::SessionTrace &sessions,
                 const IdIndex &ids)
{
    Seconds last_start = 0.0;
    std::vector<bool> named(sessions.turns.size(), false);
    for (const serving::SessionTurn &turn : sessions.turns) {
        const auto reject = [&turn](const char *why) {
            throw std::invalid_argument(
                "FleetSimulator: session turn " +
                std::to_string(turn.request.id) + why);
        };
        if (turn.turn == 0 && turn.request.arrival < last_start)
            reject(": first-turn arrivals must be nondecreasing");
        if (turn.turn == 0)
            last_start = turn.request.arrival;
        if (turn.successor < 0)
            continue;
        const std::size_t next =
            ids.find(static_cast<std::uint64_t>(turn.successor));
        if (next == IdIndex::npos)
            reject("'s successor is not in the trace");
        const serving::SessionTurn &follow = sessions.turns[next];
        if (follow.request.sessionId != turn.request.sessionId ||
            follow.turn != std::uint64_t{turn.turn} + 1)
            reject("'s successor is not its session's next turn");
        if (named[next])
            reject("'s successor is named by another turn too");
        named[next] = true;
    }
}

/**
 * The event-driven co-simulation loop, wired to one ControlPolicy:
 * the kernel owns physics (virtual clock, replica boundaries,
 * report bookkeeping) and implements the policy's read surface
 * (sched::FleetView) and capability-checked action surface
 * (sched::FleetActions).  Misuse of an action throws
 * std::logic_error before any kernel state changes.
 */
class EventKernel final : public sched::FleetView,
                          public sched::FleetActions
{
  public:
    EventKernel(const FleetConfig &config, const model::LlmConfig &llm,
                std::vector<FleetSimulator::Replica> &replicas,
                std::vector<sched::ReplicaModel> models,
                const WorkloadShape &shape, FleetReport &report,
                std::vector<serving::ServedRequest> &workload,
                const IdIndex &ids, sched::ControlPolicy &control,
                const serving::SessionTrace *sessions)
        : config_(config), llm_(llm), replicas_(replicas),
          shape_(shape), report_(report), workload_(workload),
          ids_(ids), control_(control), wants_(control.wants()),
          sessions_(sessions),
          spans_((wants_ & (sched::ControlPolicy::kReplicaEvents |
                            sched::ControlPolicy::kStepState)) == 0),
          tracksChanges_(
              (wants_ & sched::ControlPolicy::kReplicaChanges) != 0)
    {
        // The configured fleet is born Active; spawnReplica appends
        // a record per spawned replica, so every per-replica lookup
        // reads runs_, never config_.replicas.
        const std::size_t n = replicas_.size();
        runs_.reserve(n);
        for (std::size_t r = 0; r < n; ++r) {
            const ReplicaConfig &replica = config_.replicas[r];
            ReplicaRun run;
            run.model = models[r];
            run.spec.name = replica.name;
            run.spec.system = replica.system;
            run.spec.serving = replica.serving;
            runs_.push_back(std::move(run));
        }
        // The whole fleet starts changed, so the first flush lists
        // everyone; afterwards only replicas the kernel touched
        // since the previous flush are listed.
        for (std::size_t r = 0; r < n; ++r)
            markChanged(r);
    }

    /** Drive the whole co-simulation (see class doc). */
    void
    run()
    {
        control_.begin();
        // Pre-reserve the per-replica session tables for a fair
        // share of the trace (a hint: stealing and skew can exceed
        // it) so bulk phases do not reallocate them mid-run.
        const std::size_t expected =
            workload_.size() / replicas_.size() + 16;
        for (FleetSimulator::Replica &replica : replicas_) {
            replica.simulator->beginSession();
            replica.simulator->reserveSession(expected);
        }
        report_.assignment.assign(workload_.size(), -1);
        // The workload is sorted by arrival and the event id is the
        // ascending workload index, so the whole trace preloads as
        // a presorted stream — no heap at all for the dominant event
        // kind; the heap holds only in-flight events.  In session
        // mode only first turns have workload-known arrival instants
        // (nondecreasing, ids ascending — the presorted stream still
        // applies); follow-up turns are scheduled as SessionContinue
        // events when their predecessor completes.
        queue_.shard(static_cast<std::uint32_t>(replicas_.size()));
        queue_.reserveSorted(workload_.size());
        for (std::size_t i = 0; i < workload_.size(); ++i) {
            if (sessions_ == nullptr || sessions_->turns[i].turn == 0)
                queue_.pushSorted(workload_[i].arrival,
                                  sim::EventKind::Arrival, i);
        }
        const Seconds tick_period = control_.tickPeriod();
        if ((wants_ & sched::ControlPolicy::kTick) &&
            tick_period > 0.0 && !workload_.empty())
            queue_.push(tick_period, sim::EventKind::Tick, -1, 0);

        const auto wall_start =
            std::chrono::steady_clock::now();
        while (!queue_.empty()) {
            // A span end a split superseded: not an event at all.
            const sim::Event &next = queue_.top();
            if (next.kind == sim::EventKind::StepComplete &&
                next.id != runs_[static_cast<std::size_t>(next.replica)]
                               .generation) {
                queue_.drop();
                --superseded_;
                continue;
            }
            const sim::Event event = queue_.pop();
            if (std::tie(event.time, event.replica, event.kind) >
                std::tie(horizon_.time, horizon_.replica,
                         horizon_.kind))
                horizon_ = event;
            switch (event.kind) {
            case sim::EventKind::Arrival:
                onArrivalEvent(event);
                break;
            case sim::EventKind::Wake: {
                const auto r =
                    static_cast<std::size_t>(event.replica);
                runs_[r].wakeScheduled = false;
                if (!simulator(r).busy())
                    advance(r, event.time);
                break;
            }
            case sim::EventKind::PrefillComplete:
            case sim::EventKind::StepComplete: {
                const auto r =
                    static_cast<std::size_t>(event.replica);
                // A span's end: run its quiet boundaries first.
                while (runs_[r].spanLeft > 0)
                    quietBoundary(r);
                markChanged(r);
                for (const std::uint64_t id :
                     simulator(r).completeWork()) {
                    // Only a session's completion does anything (it
                    // schedules the follow-up turn); a plain trace's
                    // is counted, not queued.
                    if (sessions_ != nullptr)
                        queue_.push(event.time,
                                    sim::EventKind::RequestDone,
                                    event.replica, id);
                    else
                        queue_.record(sim::EventKind::RequestDone);
                }
                if (wants_ &
                    sched::ControlPolicy::kReplicaEvents) {
                    const auto replica =
                        static_cast<std::uint32_t>(r);
                    flushChanges();
                    if (event.kind ==
                        sim::EventKind::PrefillComplete)
                        control_.onPrefillComplete(
                            replica, event.time, *this, *this);
                    else
                        control_.onStepComplete(
                            replica, event.time, *this, *this);
                }
                // A hook may have restarted this very replica (a
                // steal into the replica that just finished); only
                // an idle replica takes a fresh boundary.
                if (!simulator(r).busy())
                    advance(r, event.time);
                break;
            }
            case sim::EventKind::Tick:
                flushChanges();
                control_.onTick(event.time, *this, *this);
                // The heartbeat sustains itself only while other
                // work remains, so the loop always terminates.
                if (queue_.size() > superseded_)
                    queue_.push(event.time + tick_period,
                                sim::EventKind::Tick, -1, 0);
                break;
            case sim::EventKind::ResumeReady:
                onResumeReadyEvent(event);
                break;
            case sim::EventKind::RequestDone:
                // Queued in session mode only: a completed turn
                // schedules its follow-up.
                onRequestDoneEvent(event);
                break;
            case sim::EventKind::SessionContinue:
                onSessionContinueEvent(event);
                break;
            case sim::EventKind::ReplicaReady:
                onReplicaReadyEvent(
                    static_cast<std::size_t>(event.replica),
                    event.time);
                break;
            }
        }
        report_.kernelStats.loopSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        report_.kernelStats.events = queue_.stats();
        report_.kernelStats.queuePops = queue_.pops();

        // Cost accounting on the virtual clock: a replica bills
        // from its spawn instant (0 for the configured fleet) to
        // its retire instant, or to the end of the run when it was
        // never retired.  Provisioning and warming time is billable
        // — the instance is up.  Each replica's rows move into their
        // workload slots, each written exactly once, by the replica
        // the assignment names (shed slots are the merge's), and are
        // freed at once: replica reports keep aggregates only.
        const Seconds end = queue_.now();
        report_.requests.resize(workload_.size());
        std::vector<bool> written(workload_.size(), false);
        for (std::size_t r = 0; r < runs_.size(); ++r) {
            const ReplicaRun &run = runs_[r];
            const Seconds stop =
                run.retiredAt >= 0.0 ? run.retiredAt : end;
            report_.replicaNames.push_back(run.spec.name);
            report_.replicaActiveSeconds.push_back(
                std::max(0.0, stop - run.activeStart));
            report_.replicaSeconds +=
                report_.replicaActiveSeconds.back();
            serving::ServingReport replica =
                simulator(r).finishSession();
            for (const serving::RequestMetrics &row :
                 std::vector(std::move(replica.requests))) {
                const std::size_t slot = ids_.at(row.id);
                hermes_assert(
                    !written[slot] &&
                        report_.assignment[slot] == static_cast<int>(r),
                    "fleet report: request ", row.id,
                    " reported twice or by a wrong replica");
                written[slot] = true;
                report_.requests[slot] = row;
            }
            report_.replicaReports.push_back(std::move(replica));
        }
        for (std::size_t i = 0; i < written.size(); ++i)
            hermes_assert(written[i] == (report_.assignment[i] >= 0),
                          "fleet report: request ", workload_[i].id,
                          " missing from its replica report");
    }

    // ---- sched::FleetView ----

    std::uint32_t
    replicaCount() const override
    {
        return static_cast<std::uint32_t>(runs_.size());
    }

    const sched::ReplicaModel &
    model(std::uint32_t replica) const override
    {
        return runs_.at(replica).model;
    }

    bool
    busy(std::uint32_t replica) const override
    {
        return simulator(replica).busy();
    }

    bool
    knownServable(std::uint32_t replica) const override
    {
        return simulator(replica).knownServable();
    }

    bool
    knownDead(std::uint32_t replica) const override
    {
        return simulator(replica).knownDead();
    }

    sched::ReplicaLifecycle
    lifecycle(std::uint32_t replica) const override
    {
        return runs_.at(replica).lifecycle;
    }

    sched::ReplicaSpec
    replicaSpec(std::uint32_t replica) const override
    {
        // The name identifies the instance, not the spec template:
        // a scaler cloning this spec gets a fresh "s<k>" default
        // instead of a report full of duplicate names.
        sched::ReplicaSpec spec = runs_.at(replica).spec;
        spec.name.clear();
        return spec;
    }

    std::uint32_t
    queuedCount(std::uint32_t replica) const override
    {
        return simulator(replica).queuedCount();
    }

    std::uint32_t
    observedOutstanding(std::uint32_t replica) const override
    {
        return simulator(replica).observedOutstanding();
    }

    double
    observedBacklogTokens(std::uint32_t replica) const override
    {
        requireStepState(replica, "observedBacklogTokens");
        return simulator(replica).observedBacklogTokens();
    }

    std::vector<serving::RequestInfo>
    runningRequests(std::uint32_t replica) const override
    {
        requireStepState(replica, "runningRequests");
        return simulator(replica).runningInfos();
    }

    std::vector<serving::RequestInfo>
    queuedRequests(std::uint32_t replica) const override
    {
        return simulator(replica).queuedInfos();
    }

    serving::RequestState
    requestState(std::uint32_t replica,
                 std::uint64_t id) const override
    {
        return simulator(replica).stateOf(id);
    }

    std::uint64_t
    cachedSessionTokens(std::uint32_t replica,
                        std::uint64_t session) const override
    {
        return simulator(replica).cachedSessionTokens(session);
    }

    Seconds
    ttftDeadline() const override
    {
        return config_.ttftDeadline;
    }

    // ---- sched::FleetActions ----

    void
    routeTo(std::uint32_t replica) override
    {
        requireArrival("routeTo");
        if (replica >= runs_.size())
            throw std::logic_error(
                "FleetActions::routeTo: replica out of range");
        if (runs_[replica].lifecycle != sched::ReplicaLifecycle::Active)
            throw std::logic_error(
                "FleetActions::routeTo: replica is " +
                sched::replicaLifecycleName(runs_[replica].lifecycle) +
                ", not active — only Active replicas are "
                "routable");
        decided_ = true;
        report_.assignment[arrivalIndex_] =
            static_cast<int>(replica);
        touch(replica);
        simulator(replica).deliver(workload_[arrivalIndex_]);
        // Wake an idle replica once all same-instant arrivals are
        // delivered (Wake sorts after Arrival at a tie), so a
        // simultaneous burst prefills as one group, exactly like
        // the closed loop.
        wakeIfIdle(replica);
        flushChanges();
    }

    void
    shed() override
    {
        requireArrival("shed");
        decided_ = true;
        ++report_.shed;
    }

    std::uint32_t
    steal(std::uint32_t thief, std::uint32_t victim,
          std::uint32_t max_count) override
    {
        if (thief >= runs_.size() || victim >= runs_.size())
            throw std::logic_error(
                "FleetActions::steal: replica out of range");
        if (thief == victim)
            throw std::logic_error(
                "FleetActions::steal: thief == victim");
        if (max_count == 0)
            throw std::logic_error(
                "FleetActions::steal: zero count");
        if (!simulator(thief).knownServable())
            throw std::logic_error(
                "FleetActions::steal: thief cannot serve (dead "
                "or unprobed) — it would strand the work");
        if (runs_[thief].lifecycle != sched::ReplicaLifecycle::Active)
            throw std::logic_error(
                "FleetActions::steal: thief is " +
                sched::replicaLifecycleName(runs_[thief].lifecycle) +
                ", not active — it accepts no new work");
        if (simulator(victim).queuedCount() == 0)
            throw std::logic_error(
                "FleetActions::steal: victim has no queued "
                "requests (running requests cannot be stolen)");
        touch(thief);
        touch(victim);
        const std::vector<serving::ServedRequest> stolen =
            simulator(victim).stealQueued(max_count);
        ++report_.kernelStats.steals;
        report_.kernelStats.stolenRequests += stolen.size();
        for (const serving::ServedRequest &request : stolen) {
            report_.assignment[ids_.at(request.id)] =
                static_cast<int>(thief);
            simulator(thief).deliver(request);
        }
        // An idle thief starts the stolen group at once, exactly
        // like the legacy stealing hook.
        if (!simulator(thief).busy())
            schedule(thief,
                     simulator(thief).startNextWork(queue_.now()));
        flushChanges();
        return static_cast<std::uint32_t>(stolen.size());
    }

    void
    preempt(std::uint32_t replica, std::uint64_t id) override
    {
        requireCapability(sched::ControlPolicy::kPreempt,
                          "preempt", "kPreempt");
        if (replica >= runs_.size())
            throw std::logic_error(
                "FleetActions::preempt: replica out of range");
        if (simulator(replica).busy())
            throw std::logic_error(
                "FleetActions::preempt: replica is mid-step — "
                "preemption happens at decode boundaries");
        // Throws on a queued/unknown id before any state changes.
        const serving::ResumableRequest resumed =
            simulator(replica).preempt(id);
        markChanged(replica);
        ++report_.kernelStats.preemptions;
        // The KV stays cached on the replica: requeueing is free,
        // and the priority-aware admission decides who gets the
        // freed slot at the next boundary.
        simulator(replica).deliverResumed(resumed, queue_.now(),
                                          resumed.contextLength());
        wakeIfIdle(replica);
        flushChanges();
    }

    void
    migrate(std::uint64_t id, std::uint32_t to_replica) override
    {
        requireCapability(sched::ControlPolicy::kMigrate,
                          "migrate", "kMigrate");
        if (to_replica >= runs_.size())
            throw std::logic_error(
                "FleetActions::migrate: destination out of range");
        if (runs_[to_replica].lifecycle !=
            sched::ReplicaLifecycle::Active)
            throw std::logic_error(
                "FleetActions::migrate: destination is " +
                sched::replicaLifecycleName(
                    runs_[to_replica].lifecycle) +
                ", not active — it accepts no new work");
        if (simulator(to_replica).knownDead())
            throw std::logic_error(
                "FleetActions::migrate: destination is dead — the "
                "request would strand again");
        if (pendingResume(id) != resumesInFlight_.end())
            throw std::logic_error(
                "FleetActions::migrate: request " +
                std::to_string(id) +
                " is already migrating (KV in flight)");
        const std::size_t workload_index = ids_.find(id);
        if (workload_index == IdIndex::npos)
            throw std::logic_error(
                "FleetActions::migrate: unknown request " +
                std::to_string(id));
        const int from_signed =
            report_.assignment[workload_index];
        if (from_signed < 0)
            throw std::logic_error(
                "FleetActions::migrate: request " +
                std::to_string(id) +
                " is not placed on any replica (shed?)");
        const auto from = static_cast<std::uint32_t>(from_signed);
        if (from == to_replica)
            throw std::logic_error(
                "FleetActions::migrate: request " +
                std::to_string(id) +
                " is already on the destination");

        serving::ServingSimulator &source = simulator(from);
        serving::ResumableRequest resumed;
        switch (source.stateOf(id)) {
        case serving::RequestState::Queued:
            resumed = source.takeQueued(id);
            break;
        case serving::RequestState::Running:
            if (source.busy())
                throw std::logic_error(
                    "FleetActions::migrate: source replica is "
                    "mid-step — preemption happens at decode "
                    "boundaries");
            resumed = source.preempt(id);
            break;
        default:
            throw std::logic_error(
                "FleetActions::migrate: request " +
                std::to_string(id) +
                " is neither queued nor running on its replica");
        }
        ++resumed.migrations;
        markChanged(from);
        ++report_.kernelStats.migrations;
        // The accumulated KV travels over the DIMM-link fabric; the
        // destination sees the arrival only when the transfer lands
        // (zero-length context — a request that never started —
        // moves instantly).
        const Seconds transfer = kvMigrationSeconds(
            runs_[from].spec.system, llm_,
            resumed.tokensGenerated == 0 ? 0
                                         : resumed.contextLength());
        report_.kernelStats.kvTransferSeconds += transfer;
        queue_.push(queue_.now() + transfer,
                    sim::EventKind::ResumeReady, -1, id);
        resumesInFlight_.push_back(
            {id, PendingResume{std::move(resumed), to_replica}});
        flushChanges();
    }

    std::uint32_t
    spawnReplica(const sched::ReplicaSpec &spec) override
    {
        requireCapability(sched::ControlPolicy::kSpawn,
                          "spawnReplica", "kSpawn");
        const auto index = static_cast<std::uint32_t>(runs_.size());
        ReplicaRun run;
        run.spec = spec;
        if (run.spec.name.empty())
            run.spec.name = spawnedReplicaName(
                report_.kernelStats.spawnedReplicas);

        // Construct the replica and join a matching cost surface,
        // exactly like FleetSimulator's constructor: a spec whose
        // cells match an existing replica's shares its calibrated
        // surface bit-identically, so the calibration below is warm
        // hits wherever the surface already reaches.
        serving::ServingSimulator &replica = appendReplica(
            replicas_, run.spec.system, llm_, run.spec.serving);

        // Calibrate now — cold engine simulations (if any) bill to
        // the run's calibrationSeconds through the cache-group
        // accounting — and price the Warming phase on the freshly
        // warmed surface.
        run.model = calibrateReplicaModel(replica, shape_);
        run.warmupSeconds = warmupReplaySeconds(replica, shape_);
        run.lifecycle = sched::ReplicaLifecycle::Provisioning;
        run.activeStart = queue_.now();
        runs_.push_back(std::move(run));
        markChanged(index);
        replica.beginSession();
        replica.reserveSession(16);
        ++report_.kernelStats.spawnedReplicas;

        // Phase one of the lifecycle walk: the instance stands up
        // (provisioning), then ReplicaReady moves it to Warming and
        // schedules the warm-up replay (onReplicaReadyEvent).
        queue_.push(queue_.now() +
                        std::max(spec.provisionSeconds, 0.0),
                    sim::EventKind::ReplicaReady,
                    static_cast<std::int32_t>(index), 0);
        flushChanges();
        return index;
    }

    void
    requestDrain(std::uint32_t replica) override
    {
        if (replica >= runs_.size())
            throw std::logic_error(
                "FleetActions::requestDrain: replica out of "
                "range");
        if (!draining(replica)) {
            ++report_.kernelStats.drainRequests;
            touch(replica);
            runs_[replica].lifecycle = sched::ReplicaLifecycle::Draining;
            // An empty idle replica (or one drained mid-spawn,
            // before it ever went Active) retires on the spot.
            maybeRetire(replica, queue_.now());
        }
        flushChanges();
    }

  private:
    /** A migrated request's KV transfer: what ResumeReady carries. */
    struct PendingResume
    {
        serving::ResumableRequest resumed;
        std::uint32_t destination = 0;
    };

    /**
     * Everything the kernel knows about one replica during a run,
     * in one place: the per-event flags and the decode-span state
     * first (they are read on every event), then the lifecycle
     * (configured replicas are born Active; spawned ones walk
     * Provisioning → Warming → Active) with its cost-accounting
     * clock — the spawn instant, the retire instant (-1 while
     * alive) and the Warming phase's replay length — and finally
     * the calibrated model and the spec the replica was built from,
     * so model / replicaSpec / migrate lookups cover spawned
     * replicas too.
     */
    struct ReplicaRun
    {
        bool wakeScheduled = false; ///< A same-instant Wake is queued.
        bool deadNotified = false;  ///< onReplicaDead already fired.
        bool changed = false;       ///< Listed on the change list.

        /** Quiet boundaries of the committed span still unrun, its
         * end excluded (0: no span in flight). */
        std::uint32_t spanLeft = 0;

        /** Id of the replica's live StepComplete; a split bumps it,
         * so the superseded span end is recognized and dropped. */
        std::uint64_t generation = 0;

        sched::ReplicaLifecycle lifecycle =
            sched::ReplicaLifecycle::Active;
        Seconds activeStart = 0.0;
        Seconds retiredAt = -1.0;
        Seconds warmupSeconds = 0.0;
        sched::ReplicaModel model;
        sched::ReplicaSpec spec;
    };

    /** Replica `r`'s simulator (bounds-checked: policies pass ids). */
    serving::ServingSimulator &
    simulator(std::size_t replica) const
    {
        return *replicas_.at(replica).simulator;
    }

    /**
     * The kernel is the only actor that mutates replicas, so every
     * mutation — deliver, steal, migrate, preempt, start/complete
     * work (and the capability probe inside it), every lifecycle
     * transition — lists the replica (once) on the change list.
     * Kept only when the policy consumes it (kReplicaChanges).
     */
    void
    markChanged(std::size_t replica)
    {
        if (tracksChanges_ && !runs_[replica].changed) {
            runs_[replica].changed = true;
            changed_.push_back(static_cast<std::uint32_t>(replica));
        }
    }

    /**
     * Hand the change list to the policy's onReplicasChanged, then
     * clear it.  Called at every hook entry and after every
     * FleetActions verb, so a policy always ranks on current state
     * in O(changed replicas).  The list is only ever non-empty for
     * a kReplicaChanges subscriber (markChanged).
     */
    void
    flushChanges()
    {
        if (changed_.empty())
            return;
        control_.onReplicasChanged(changed_, *this);
        for (const std::uint32_t r : changed_)
            runs_[r].changed = false;
        changed_.clear();
    }

    /**
     * The kernel is about to act on `replica` from outside its own
     * events — a delivery (routeTo, steal, ResumeReady) or a drain:
     * split its span, then list it on the change list.  preempt and
     * migrate act only on a replica at a boundary (they throw while
     * it is busy), so they never meet a span.
     */
    void
    touch(std::size_t replica)
    {
        split(replica);
        markChanged(replica);
    }

    /**
     * End `replica`'s span at the step now in flight.  Its quiet
     * boundaries that the per-boundary run would have taken by now
     * run first: those whose (time, replica, StepComplete) key sorts
     * before the horizon (see precedesHorizon).  The in-flight
     * step's end then goes into the queue under a new generation,
     * superseding the span's end event.
     */
    void
    split(std::size_t replica)
    {
        ReplicaRun &run = runs_[replica];
        const auto r = static_cast<std::int32_t>(replica);
        while (run.spanLeft > 0 &&
               precedesHorizon(simulator(replica).busyUntil(), r))
            quietBoundary(replica);
        if (run.spanLeft == 0)
            return; // The step in flight is the span's last.
        run.spanLeft = 0;
        ++superseded_;
        queue_.push(simulator(replica).busyUntil(),
                    sim::EventKind::StepComplete, r, ++run.generation);
    }

    /**
     * Whether the per-boundary run has taken `replica`'s decode
     * boundary at `time` by now: whether its key (time, replica,
     * StepComplete) sorts before the horizon, the greatest
     * (time, replica, kind) popped so far.  Not the current event's
     * key: an event pushed at the current instant can sort before
     * events already popped (a zero-length migration's ResumeReady
     * is fleet-level), while a boundary queued before them would
     * have popped first.  The horizon is exact because a span never
     * starts with a zero-cost step (see schedule()), so every
     * boundary in it lies past every key popped before the span.
     */
    bool
    precedesHorizon(Seconds time, std::int32_t replica) const
    {
        if (time != horizon_.time)
            return time < horizon_.time;
        if (replica != horizon_.replica)
            return replica < horizon_.replica;
        return sim::EventKind::StepComplete < horizon_.kind;
    }

    /**
     * Run one quiet boundary of `replica`'s span: the decode step in
     * flight completes (retiring nothing — the plan ends at the
     * first retirement) and the next starts, by the same calls the
     * boundary's own event would make.  Counted as a StepComplete
     * event; nothing else observes it.
     */
    void
    quietBoundary(std::size_t replica)
    {
        --runs_[replica].spanLeft;
        queue_.record(sim::EventKind::StepComplete);
        serving::ServingSimulator &replica_sim = simulator(replica);
        const bool retired = !replica_sim.completeWork().empty();
        hermes_assert(!retired,
                      "a quiet span boundary retired a request");
        replica_sim.startNextWork(replica_sim.clock());
    }

    /** Per-step observables of a replica mid-span are unreadable. */
    void
    requireStepState(std::uint32_t replica, const char *probe) const
    {
        if (runs_.at(replica).spanLeft == 0)
            return;
        std::string message = "FleetView::";
        message += probe;
        message += ": control policy '";
        message += control_.name();
        message += "' read replica ";
        message += std::to_string(replica);
        message += " mid decode span without declaring the "
                   "kStepState capability in wants()";
        throw std::logic_error(message);
    }

    /** Schedule a same-instant Wake for an idle replica (once). */
    void
    wakeIfIdle(std::uint32_t replica)
    {
        if (!simulator(replica).busy() &&
            !runs_[replica].wakeScheduled) {
            queue_.push(queue_.now(), sim::EventKind::Wake,
                        static_cast<std::int32_t>(replica), 0);
            runs_[replica].wakeScheduled = true;
        }
    }

    /** A spawned replica finished its current lifecycle phase. */
    void
    onReplicaReadyEvent(std::size_t replica, Seconds now)
    {
        switch (runs_[replica].lifecycle) {
        case sched::ReplicaLifecycle::Provisioning:
            // The instance is up: replay the batch-ramp warm-up as
            // its first (virtual) steps, then go Active.
            runs_[replica].lifecycle = sched::ReplicaLifecycle::Warming;
            markChanged(replica);
            queue_.push(now + runs_[replica].warmupSeconds,
                        sim::EventKind::ReplicaReady,
                        static_cast<std::int32_t>(replica), 0);
            break;
        case sched::ReplicaLifecycle::Warming:
            runs_[replica].lifecycle = sched::ReplicaLifecycle::Active;
            markChanged(replica);
            // The replica is routable from this instant; take an
            // idle boundary now so onReplicaIdle subscribers
            // (stealers, drain-migrate) see the fresh capacity
            // immediately instead of at the next arrival.
            wakeIfIdle(static_cast<std::uint32_t>(replica));
            break;
        default:
            // Drained (and possibly retired) mid-spawn: the
            // pending phase transition is void.
            break;
        }
    }

    /**
     * Retire a draining replica once it holds nothing: no running
     * batch, no queue, no undecided deliveries, and no migration
     * KV in flight toward it.  Retiring stops the replica's
     * active-seconds clock (FleetReport::replicaActiveSeconds).
     */
    void
    maybeRetire(std::size_t replica, Seconds now)
    {
        if (runs_[replica].lifecycle !=
            sched::ReplicaLifecycle::Draining)
            return;
        if (simulator(replica).busy() ||
            simulator(replica).observedOutstanding() > 0)
            return;
        for (const auto &entry : resumesInFlight_) {
            if (entry.second.destination == replica)
                return; // Committed before the drain; wait for it.
        }
        runs_[replica].lifecycle = sched::ReplicaLifecycle::Retired;
        markChanged(replica);
        runs_[replica].retiredAt = now;
        ++report_.kernelStats.retiredReplicas;
    }

    /** Lifecycle verbs are capability-gated on wants() bits. */
    void
    requireCapability(std::uint32_t bit, const char *action,
                      const char *bit_name) const
    {
        if (!(wants_ & bit)) {
            std::string message = "FleetActions::";
            message += action;
            message += ": the policy did not declare the ";
            message += bit_name;
            message += " capability in wants()";
            throw std::logic_error(message);
        }
    }

    /** The in-flight migration of `id`, or end() when none. */
    std::vector<std::pair<std::uint64_t, PendingResume>>::iterator
    pendingResume(std::uint64_t id)
    {
        return std::find_if(
            resumesInFlight_.begin(), resumesInFlight_.end(),
            [id](const auto &entry) { return entry.first == id; });
    }

    /** A migrated request's KV landed: deliver to the destination. */
    void
    onResumeReadyEvent(const sim::Event &event)
    {
        const auto it = pendingResume(event.id);
        hermes_assert(it != resumesInFlight_.end(),
                      "ResumeReady without a migration in flight");
        const PendingResume pending = std::move(it->second);
        // Unordered removal: each id is unique among in-flight
        // migrations, and nothing orders the pending list.
        *it = std::move(resumesInFlight_.back());
        resumesInFlight_.pop_back();
        report_.assignment[ids_.at(event.id)] =
            static_cast<int>(pending.destination);
        // A never-started request (tokensGenerated == 0) carries no
        // KV, so nothing was cached by the transfer and it re-runs
        // a full prefill; a started one rejoins for free — the KV
        // just arrived.  Either way the lifecycle counters travel
        // with it.  The destination was validated when migrate()
        // was called; one that started draining while the KV was
        // in flight still receives the request (it was committed
        // before the drain, like in-flight routed work), and one
        // whose capability probe later fails holds it like any
        // other delivery.
        touch(pending.destination);
        simulator(pending.destination).deliverResumed(
            pending.resumed, event.time,
            pending.resumed.tokensGenerated == 0
                ? 0
                : pending.resumed.contextLength());
        wakeIfIdle(pending.destination);
    }

    /** A completed turn schedules its session's follow-up. */
    void
    onRequestDoneEvent(const sim::Event &event)
    {
        const serving::SessionTurn &turn =
            sessions_->turns[ids_.at(event.id)];
        if (turn.successor < 0)
            return;
        // The follow-up arrives think-time after this completion;
        // its event id is the successor's workload index, exactly
        // like a preloaded arrival's.
        queue_.push(event.time + turn.thinkAfter,
                    sim::EventKind::SessionContinue, -1,
                    ids_.at(static_cast<std::uint64_t>(turn.successor)));
    }

    /** A follow-up turn's think time elapsed: it arrives now. */
    void
    onSessionContinueEvent(const sim::Event &event)
    {
        hermes_assert(sessions_ != nullptr,
                      "SessionContinue outside a session run");
        // The trace's stored arrival was a placeholder; the real
        // arrival instant is only known now.  The kernel owns the
        // run's trace copy, so the report merge and the routed
        // request both see the true instant.
        workload_[static_cast<std::size_t>(event.id)].arrival =
            event.time;
        onArrivalEvent(event);
    }

    /** Arrival event: flush the change list, ask the policy for
     * exactly one decision. */
    void
    onArrivalEvent(const sim::Event &event)
    {
        const serving::ServedRequest &request =
            workload_[event.id];
        sched::ArrivalContext context;
        context.requestId = request.id;
        context.arrival = request.arrival;
        context.promptTokens = request.promptTokens;
        context.generateTokens = request.generateTokens;
        context.priority = request.priority;
        context.sessionId = request.sessionId;
        flushChanges();
        inArrival_ = true;
        decided_ = false;
        arrivalIndex_ = event.id;
        control_.onArrival(context, *this, *this);
        inArrival_ = false;
        if (!decided_) {
            std::string message = "control policy '";
            message += control_.name();
            message += "' made no routing decision for request ";
            message += std::to_string(request.id);
            throw std::logic_error(message);
        }
    }

    /** Schedule the follow-up event of a started unit of work. */
    void
    schedule(std::size_t replica,
             const serving::StepAction &action)
    {
        switch (action.kind) {
        case serving::StepKind::Prefill:
            queue_.push(action.until,
                        sim::EventKind::PrefillComplete,
                        static_cast<std::int32_t>(replica), 0);
            break;
        case serving::StepKind::Decode: {
            // With nothing queued, commit the quiet span: only its
            // end boundary goes into the queue.  A step that ends at
            // the instant it starts stays an event of its own: its
            // boundary could sort before keys already popped, which
            // the split horizon cannot order.
            ReplicaRun &run = runs_[replica];
            Seconds until = action.until;
            if (spans_ && simulator(replica).queuedCount() == 0 &&
                action.until > simulator(replica).clock()) {
                const serving::QuietSpan span =
                    simulator(replica).quietSpan();
                run.spanLeft = span.steps - 1;
                until = span.end;
            }
            queue_.push(until, sim::EventKind::StepComplete,
                        static_cast<std::int32_t>(replica),
                        run.generation);
            break;
        }
        case serving::StepKind::WaitArrival:
            // Unreachable: every delivery (arrival event or steal)
            // happens at or after the request's arrival instant,
            // so a boundary never sees a future-only queue.
            hermes_panic("event kernel: future-only queue at a "
                         "replica boundary");

        case serving::StepKind::Idle:
            break;
        }
    }

    /** Start a replica's next work; fire dead/idle subscriptions. */
    void
    advance(std::size_t replica, Seconds now)
    {
        markChanged(replica);
        const serving::StepAction action =
            simulator(replica).startNextWork(now);
        schedule(replica, action);
        const auto r = static_cast<std::uint32_t>(replica);
        if (!runs_[replica].deadNotified &&
            simulator(replica).knownDead()) {
            runs_[replica].deadNotified = true;
            if (wants_ & sched::ControlPolicy::kDead) {
                flushChanges();
                control_.onReplicaDead(r, now, *this, *this);
            }
        }
        if (action.kind == serving::StepKind::Idle) {
            if (wants_ & sched::ControlPolicy::kIdle) {
                flushChanges();
                control_.onReplicaIdle(r, now, *this, *this);
            }
            // After the idle hook, so an evacuation policy
            // (drain-migrate) moves the replica's work out before
            // the retire check runs — a drained replica that just
            // went empty stops its clock at this boundary.
            maybeRetire(replica, now);
        }
    }

    void
    requireArrival(const char *action) const
    {
        std::string message = "FleetActions::";
        message += action;
        if (!inArrival_) {
            message += ": only legal inside onArrival";
            throw std::logic_error(message);
        }
        if (decided_) {
            message +=
                ": a decision was already made for this arrival";
            throw std::logic_error(message);
        }
    }

    const FleetConfig &config_;
    const model::LlmConfig &llm_;

    /**
     * The fleet's replica table (simulator + cost-surface leader),
     * owned by FleetSimulator and borrowed mutably: spawnReplica
     * appends to it (the simulator trims spawned replicas after the
     * run — they are run state, not configuration).
     */
    std::vector<FleetSimulator::Replica> &replicas_;

    /** Calibration operating point, for spawn-time calibration. */
    const WorkloadShape shape_;

    FleetReport &report_;

    /**
     * The run's own copy of the trace; in session mode the kernel
     * overwrites each follow-up turn's placeholder arrival at
     * done + think.
     */
    std::vector<serving::ServedRequest> &workload_;

    /** id -> workload index: steal, migrate, sessions, row scatter. */
    const IdIndex &ids_;

    sched::ControlPolicy &control_;
    const std::uint32_t wants_;

    /** Session mode's continuation plan (nullptr for plain traces). */
    const serving::SessionTrace *sessions_ = nullptr;

    /**
     * Decode spans are on: the policy neither wants every boundary
     * (kReplicaEvents) nor reads per-step state (kStepState).
     */
    const bool spans_;

    /** Superseded span ends still in the queue (see split()). */
    std::size_t superseded_ = 0;

    /** The greatest (time, replica, kind) popped so far: what
     * split() orders boundaries by (precedesHorizon). */
    sim::Event horizon_;

    /** Migrations whose KV transfer has not landed yet (a handful
     * at a time, so a scanned flat list beats a hash map). */
    std::vector<std::pair<std::uint64_t, PendingResume>>
        resumesInFlight_;

    sim::EventQueue queue_;

    /** One record per replica, fleet order (see ReplicaRun). */
    std::vector<ReplicaRun> runs_;

    /** The change list (deduplicated by ReplicaRun::changed); see
     * markChanged(). */
    const bool tracksChanges_;
    std::vector<std::uint32_t> changed_;

    bool inArrival_ = false;
    bool decided_ = false;
    std::uint64_t arrivalIndex_ = 0;
};

/**
 * Fill the shed rows (the kernel scattered every served one) and the
 * fleet aggregates (counts, percentiles, SLO attainment against
 * `ttft_deadline`).
 */
void
mergeReports(FleetReport &report,
             const std::vector<serving::ServedRequest> &workload,
             Seconds ttft_deadline)
{
    for (const serving::ServingReport &replica :
         report.replicaReports) {
        report.completed += replica.completed;
        report.rejected += replica.rejected;
        report.makespan =
            std::max(report.makespan, replica.makespan);
        report.throughputTps += replica.throughputTps;
        report.costModelSaturated |= replica.costModelSaturated;
    }
    report.rejected += report.shed;

    std::uint64_t within_deadline = 0;
    for (std::size_t i = 0; i < workload.size(); ++i) {
        serving::RequestMetrics &metrics = report.requests[i];
        if (report.assignment[i] < 0) {
            metrics.id = workload[i].id;
            metrics.arrival = workload[i].arrival;
            metrics.rejected = true;
        } else if (!metrics.rejected) {
            within_deadline +=
                metrics.ttft() <= ttft_deadline ? 1 : 0;
        }
    }
    const serving::SortedSamples ttft = ttftSamples(report);
    report.p50Ttft = ttft.percentile(50.0);
    report.p99Ttft = ttft.percentile(99.0);
    report.sloAttainment =
        workload.empty()
            ? 1.0
            : static_cast<double>(within_deadline) /
                  static_cast<double>(workload.size());

    // The autoscaling scorecard: replica-seconds bought per request
    // completed.  A scaler wins when it holds this below every fixed
    // fleet size at equal-or-better SLO attainment.
    report.costPerRequest =
        report.completed > 0
            ? report.replicaSeconds /
                  static_cast<double>(report.completed)
            : 0.0;
}

} // namespace

Seconds
kvMigrationSeconds(const runtime::SystemConfig &system,
                   const model::LlmConfig &llm,
                   std::uint64_t context_tokens)
{
    if (context_tokens == 0)
        return 0.0;
    const Bytes bytes = static_cast<Bytes>(context_tokens) *
                        llm.kvBytesPerToken();
    // One point-to-point transfer on the source's link fabric (a
    // dead replica may report zero DIMMs; the fabric still needs
    // two endpoints to price the hop).
    const interconnect::DimmLinkNetwork network(
        std::max<std::uint32_t>(system.numDimms, 2), system.link);
    return network.migrationTime(
        {interconnect::Transfer{0, 1, bytes}});
}

serving::SortedSamples
ttftSamples(const FleetReport &report, std::uint32_t min_priority)
{
    std::vector<Seconds> samples;
    for (const serving::RequestMetrics &request : report.requests) {
        if (!request.rejected && request.priority >= min_priority)
            samples.push_back(request.ttft());
    }
    return serving::SortedSamples(std::move(samples));
}

serving::SortedSamples
latencySamples(const FleetReport &report, std::uint32_t min_priority)
{
    std::vector<Seconds> samples;
    for (const serving::RequestMetrics &request : report.requests) {
        if (!request.rejected && request.priority >= min_priority)
            samples.push_back(request.latency());
    }
    return serving::SortedSamples(std::move(samples));
}

FleetConfig
uniformFleet(std::uint32_t count,
             const runtime::SystemConfig &system,
             const serving::ServingConfig &serving,
             std::shared_ptr<sched::ControlPolicy> control,
             Seconds ttft_deadline)
{
    FleetConfig config;
    config.control = std::move(control);
    config.ttftDeadline = ttft_deadline;
    config.replicas.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        ReplicaConfig replica;
        replica.name = defaultReplicaName(i);
        replica.system = system;
        replica.serving = serving;
        config.replicas.push_back(std::move(replica));
    }
    return config;
}

FleetSimulator::FleetSimulator(FleetConfig config,
                               model::LlmConfig llm)
    : config_(std::move(config)), llm_(std::move(llm))
{
    if (config_.replicas.empty())
        throw std::invalid_argument("FleetSimulator: no replicas");
    if (!config_.control)
        throw std::invalid_argument(
            "FleetSimulator: FleetConfig::control is required (e.g. "
            "sched::controlPolicyByName(\"jsq\"))");
    for (std::size_t i = 0; i < config_.replicas.size(); ++i) {
        ReplicaConfig &replica = config_.replicas[i];
        if (replica.name.empty())
            replica.name =
                defaultReplicaName(static_cast<std::uint32_t>(i));
        appendReplica(replicas_, replica.system, llm_, replica.serving);
    }
}

std::vector<sched::ReplicaModel>
FleetSimulator::calibrateAll(const WorkloadShape &shape)
{
    const std::size_t count = replicas_.size();
    std::vector<sched::ReplicaModel> models(count);
    const auto calibrate = [&](std::size_t i) {
        return calibrateReplicaModel(*replicas_[i].simulator, shape);
    };

    // Cache-group leaders calibrate first; members re-probe
    // afterwards, serially, against the warm shared surface — hits,
    // except the rows a member wider than its leader adds, and
    // their own saturation flags latch exactly as if they had
    // calibrated cold.  A uniform 1024-replica fleet calibrates
    // once, not 1024 times.
    std::vector<std::size_t> leaders;
    leaders.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        if (replicas_[i].leadsCostGroup(i))
            leaders.push_back(i);
    }

    // Each job is one whole leader, and a leader is its surface's
    // only one, so a cost surface is only ever touched by one
    // thread: no lock, and the calibrated models and tape counts
    // are identical to the serial loop regardless of scheduling.
    // Heterogeneous-fleet sweeps stop paying one engine simulation
    // chain per group in series.
    parallelFor(resolveWorkerCount(config_.calibrationThreads,
                                   hardwareThreads(), leaders.size()),
                leaders.size(), [&](std::size_t k) {
                    models[leaders[k]] = calibrate(leaders[k]);
                });
    for (std::size_t i = 0; i < count; ++i) {
        if (!replicas_[i].leadsCostGroup(i))
            models[i] = calibrate(i);
    }
    return models;
}

double
FleetSimulator::totalCalibrationSeconds() const
{
    double total = 0.0;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        if (replicas_[i].leadsCostGroup(i))
            total += replicas_[i].simulator->calibrationSeconds();
    }
    return total;
}

std::uint64_t
FleetSimulator::totalCalibrationTapes() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        if (replicas_[i].leadsCostGroup(i))
            total += replicas_[i].simulator->calibrationTapes();
    }
    return total;
}

void
FleetSimulator::warmSessionCosts(std::uint64_t max_context)
{
    const std::uint32_t threads = effectiveThreads(
        config_.calibrationThreads, hardwareThreads());
    // Warming the whole trajectory grid up front computes cells a
    // lazy run may never touch (e.g. full-batch decodes at the very
    // largest contexts); that trade only wins when the pool can
    // overlap the simulations.  Single-threaded, lazy misses compute
    // exactly the cells the run needs — skip.
    if (threads <= 1)
        return;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        if (!replicas_[i].leadsCostGroup(i))
            continue;
        serving::ServingSimulator &leader = *replicas_[i].simulator;
        const std::uint32_t bucket = leader.config().seqBucket;
        const std::uint64_t max_column =
            std::max<std::uint64_t>(max_context, 1) / bucket;
        const std::vector<std::uint32_t> ramp =
            batchRamp(leader.config().maxBatch);
        // The whole grid is simulated: skip oversized ones (tiny
        // seqBucket).
        if (ramp.size() * (max_column + 1) > 4096)
            continue;
        std::vector<serving::CostProbe> probes;
        probes.reserve(ramp.size() * (max_column + 1));
        for (const std::uint32_t batch : ramp) {
            for (std::uint64_t column = 0; column <= max_column;
                 ++column)
                probes.push_back(serving::CostProbe{
                    batch, column * bucket});
        }
        leader.warmCosts(probes, threads);
    }
}

FleetReport
FleetSimulator::run(std::vector<serving::ServedRequest> workload)
{
    serving::checkArrivals(workload);
    serving::sortByArrival(workload);
    return runTrace(workload, nullptr);
}

FleetReport
FleetSimulator::run(const serving::SessionTrace &sessions)
{
    // The run's own copy of the trace: the kernel overwrites each
    // follow-up turn's placeholder arrival when it actually fires.
    // No arrival sort — the continuation plan is indexed by
    // workload position.
    std::vector<serving::ServedRequest> workload;
    workload.reserve(sessions.turns.size());
    for (const serving::SessionTurn &turn : sessions.turns)
        workload.push_back(turn.request);
    serving::checkArrivals(workload);
    return runTrace(workload, &sessions);
}

FleetReport
FleetSimulator::runTrace(std::vector<serving::ServedRequest> &workload,
                         const serving::SessionTrace *sessions)
{
    // One id index per run: the duplicate check, the session plan
    // check, the kernel's steal/migrate/session lookups and its row
    // scatter all read it (the kernel rewrites arrivals, never ids).
    const IdIndex ids(workload);
    requireUniqueIds(ids);
    if (sessions != nullptr)
        checkSessionPlan(*sessions, ids);

    sched::ControlPolicy &control = *config_.control;
    FleetReport report;
    report.policy = control.name();
    report.ttftDeadline = config_.ttftDeadline;

    const WorkloadShape shape = workloadShape(workload);
    const double calibration_start = totalCalibrationSeconds();
    const std::uint64_t tapes_start = totalCalibrationTapes();
    std::vector<sched::ReplicaModel> models = calibrateAll(shape);
    // A session trace announces its whole context trajectory up
    // front (every turn's prompt already carries its history):
    // pre-warm the surface across the calibration pool instead of
    // paying one cold bucket per growing turn inside the loop.
    if (sessions != nullptr)
        warmSessionCosts(shape.maxContext);
    const double calibration_warm = totalCalibrationSeconds();

    // The shape travels into the kernel so replicas spawned mid-run
    // calibrate against the same operating point the configured
    // fleet did.
    EventKernel(config_, llm_, replicas_, std::move(models), shape,
                report, workload, ids, control, sessions)
        .run();

    // Cold buckets the loop still hit ran engine simulations on the
    // event thread; subtract that wall time so loopSeconds prices
    // the kernel, and report the full calibration bill separately.
    const double calibration_end = totalCalibrationSeconds();
    report.kernelStats.calibrationSeconds =
        calibration_end - calibration_start;
    report.kernelStats.calibrationTapes =
        totalCalibrationTapes() - tapes_start;
    report.kernelStats.loopSeconds =
        std::max(0.0, report.kernelStats.loopSeconds -
                          (calibration_end - calibration_warm));

    // Replicas spawned by the autoscaler are run state, not fleet
    // configuration: drop them (after the calibration snapshot
    // above, so a unique-spec spawn's calibration still bills) so
    // later runs on this simulator start from the configured
    // fleet.  Buckets a spawn contributed to a *shared* cost cache
    // are pure-function values a rerun recomputes bit-identically.
    replicas_.resize(config_.replicas.size());

    // Merge against the run's copy, so served follow-up turns carry
    // their true arrival instants (turns whose predecessor was shed
    // never arrived and merge as rejected).
    mergeReports(report, workload, config_.ttftDeadline);
    return report;
}

} // namespace hermes::fleet
