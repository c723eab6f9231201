/**
 * @file
 * Multi-request serving layer on top of the decode pipeline.
 *
 * The engines simulate one inference request end to end; production
 * traffic is many concurrent requests.  The ServingSimulator drives a
 * whole arrival trace through one engine with iteration-level
 * continuous batching (Orca/vLLM-style):
 *
 *  - admission: arrivals queue; a request is rejected when the queue
 *    is full at its arrival instant;
 *  - between decode steps, waiting requests join the running batch
 *    while slots are free; the joint prefill of the newly admitted
 *    group runs before decoding resumes;
 *  - each decode step advances every running request by one token;
 *    the step latency comes from the engine's own pipeline simulation
 *    (calibrated per batch-size and context-length bucket and
 *    cached), so serving numbers inherit the full overlap model.
 *
 * Since the event-kernel refactor the simulator is *stepwise*: one
 * replica is a resumable engine (beginSession / deliver /
 * startNextWork / completeWork / finishSession) that an external
 * virtual clock — the fleet's event kernel (core/event_sim.hh) —
 * can interleave with other replicas.  The classic closed `run()`
 * loop is reimplemented on top of the stepwise core and reproduces
 * the pre-refactor physics bit for bit, so single-replica callers
 * and the golden tests are untouched.
 *
 * The report carries per-request metrics (queue delay, TTFT,
 * end-to-end latency) and fleet-level percentiles (p50/p90/p99 token
 * latency and TTFT), the numbers a capacity planner actually needs.
 *
 * Token latencies are kept as a histogram of step costs, not one
 * sample per token: a decode step of cost dt over a batch of b adds
 * b to dt's count.  Every token of a step shares its cost, and a
 * replica draws its step costs from a few cost-surface cells, so the
 * state is O(distinct step costs) whatever the token count.
 * Percentiles are bit-identical to sorting the per-token samples:
 * SortedSamples reads the same two order statistics from cumulative
 * counts and interpolates between them with the same arithmetic.
 *
 * Requests move through an explicit lifecycle state machine:
 *
 *     Queued ──► Prefilling ──► Running ──► Done
 *        │                        │
 *        └──────► Shed            └──► Preempted ──► Queued  (resume)
 *
 * A running request can be *preempted* at a decode boundary:
 * preempt(id) removes it from the batch and returns a
 * ResumableRequest carrying everything needed to continue elsewhere
 * — the original request, the tokens generated so far, and its
 * accumulated KV context length.  deliverResumed() re-enters such a
 * request: the joint admission prefill charges only the context
 * suffix the new host has no KV for (zero when the KV was retained
 * locally or transferred ahead of the delivery; the fleet layer
 * prices that transfer over the DIMM-link model).  Admission is
 * priority-aware — higher ServedRequest::priority requests leave the
 * queue first, FIFO among equals, so all-default-priority traffic is
 * bit-identical to the historical FIFO order.
 *
 * Inside a session every delivery is one record — the request as
 * delivered, its metrics row and its resume state — in one vector,
 * delivery order; the admission queues and the running batch hold
 * indices into it, and the report is its unmoved metrics rows.
 */

#ifndef HERMES_CORE_SERVING_HH
#define HERMES_CORE_SERVING_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hh"
#include "dram/bandwidth_probe.hh"
#include "model/llm_config.hh"
#include "runtime/factory.hh"
#include "runtime/system_config.hh"

namespace hermes::serving {

/** One request of an arrival trace. */
struct ServedRequest
{
    std::uint64_t id = 0;
    Seconds arrival = 0.0;
    std::uint32_t promptTokens = 128;
    std::uint32_t generateTokens = 128;

    /**
     * Scheduling priority: higher values leave the admission queue
     * first (FIFO among equals) and are what the priority-preempt
     * control policy protects.  0 — the default — reproduces the
     * historical pure-FIFO admission bit for bit.
     */
    std::uint32_t priority = 0;

    /**
     * Multi-turn conversation this request is one turn of; 0 — the
     * default — marks an independent request and skips all session
     * KV accounting.  Follow-up turns whose session KV is resident
     * on the replica prefill only the un-cached suffix of their
     * prompt (the conversation history is the cached prefix).
     */
    std::uint64_t sessionId = 0;
};

/** Where a request currently is in its lifecycle (see file header). */
enum class RequestState
{
    /** Not (or no longer) tracked by the probed replica. */
    Unknown,

    /** Delivered, waiting for an admission slot. */
    Queued,

    /** In the in-flight joint admission prefill group. */
    Prefilling,

    /** In the running batch, generating tokens. */
    Running,

    /** Preempted at a decode boundary; resumable elsewhere/later. */
    Preempted,

    /** All tokens generated. */
    Done,

    /** Rejected at admission (or shed at the fleet router). */
    Shed,
};

/** Display name of a lifecycle state ("queued", "running", ...). */
std::string requestStateName(RequestState state);

/**
 * A preempted request, ready to resume: the original request plus
 * the progress and KV context it accumulated before preemption.
 * Produced by ServingSimulator::preempt() / takeQueued() and
 * consumed by deliverResumed() — on the same replica (KV retained,
 * free re-prefill) or on another one (the fleet layer charges a
 * DIMM-link KV transfer proportional to contextLength() first).
 */
struct ResumableRequest
{
    ServedRequest request;

    /** Decode tokens already emitted (0: never started running). */
    std::uint32_t tokensGenerated = 0;

    /** Original lifecycle timestamps, preserved across resumes. */
    Seconds admitted = 0.0;
    Seconds firstToken = 0.0;

    /** Lifetime preemption / migration counts, this one included. */
    std::uint32_t preemptions = 0;
    std::uint32_t migrations = 0;

    /** KV-cache length accumulated so far (prompt + generated). */
    std::uint64_t
    contextLength() const
    {
        return static_cast<std::uint64_t>(request.promptTokens) +
               tokensGenerated;
    }
};

/**
 * One queued or running request as the control plane sees it: the
 * inputs a lifecycle policy (priority preemption, drain migration)
 * ranks by.
 */
struct RequestInfo
{
    std::uint64_t id = 0;
    std::uint32_t priority = 0;

    /** Original arrival; age at a boundary is `now - arrival`. */
    Seconds arrival = 0.0;

    std::uint32_t tokensGenerated = 0;
    std::uint32_t remainingTokens = 0;
};

/**
 * Stable-sort a trace into arrival order — the one ordering the
 * workload generator, the router, and the serving loop agree on.
 * (The fleet layer scatters replica report rows into the trace by
 * request id, so ids must be unique within a fleet run; see
 * core/fleet.hh.)
 */
void sortByArrival(std::vector<ServedRequest> &workload);

/**
 * Throw std::invalid_argument naming the first request whose
 * arrival is negative or not finite: the serving loop and the fleet
 * kernel schedule every request at its arrival instant on a clock
 * that starts at 0.
 */
void checkArrivals(const std::vector<ServedRequest> &workload);

/**
 * One (batch, context) operating point of the cost surface, used to
 * pre-warm caches before an event loop (see warmCosts()).
 */
struct CostProbe
{
    std::uint32_t batch = 1;
    std::uint64_t seq = 1;
};

/** Serving policy knobs. */
struct ServingConfig
{
    runtime::EngineKind engine = runtime::EngineKind::Hermes;

    /** Continuous-batching slot count (concurrent decodes). */
    std::uint32_t maxBatch = 16;

    /** Admission control: reject arrivals beyond this queue depth. */
    std::uint32_t maxQueue = 256;

    /** Generated tokens per calibration run of the cost model. */
    std::uint32_t calibrationTokens = 8;

    /** Context-length bucket width of the cost cache. */
    std::uint32_t seqBucket = 512;

    /** Workload seed forwarded to the engine's activation trace. */
    std::uint64_t seed = 1;

    /**
     * Session KV memory budget in tokens; 0 — the default — is
     * unlimited (bit-identical to the pre-session behavior).  When
     * retiring a session turn would push the resident total past
     * this, the least-recently-used sessions' KV is evicted and
     * their next turn re-prefills its full context.
     */
    std::uint64_t kvCapacityTokens = 0;

    bool operator==(const ServingConfig &) const = default;
};

/** Lifecycle timestamps and counters of one served request. */
struct RequestMetrics
{
    std::uint64_t id = 0;
    bool rejected = false;
    Seconds arrival = 0.0;
    Seconds admitted = 0.0;   ///< Joined the running batch (first time).
    Seconds firstToken = 0.0; ///< Prefill complete (first time).
    Seconds completed = 0.0;
    std::uint32_t tokens = 0;
    std::uint32_t priority = 0;

    /** Lifecycle counters, carried across resumes/migrations. */
    std::uint32_t preemptions = 0;
    std::uint32_t migrations = 0;

    Seconds queueDelay() const { return admitted - arrival; }
    Seconds ttft() const { return firstToken - arrival; }
    Seconds latency() const { return completed - arrival; }

    /** Mean decode-step latency after the first token. */
    Seconds
    meanTokenLatency() const
    {
        return tokens > 1
                   ? (completed - firstToken) / (tokens - 1)
                   : 0.0;
    }
};

/** `count` samples of one value. */
struct SampleRun
{
    Seconds value = 0.0;
    std::uint64_t count = 0;
};

/**
 * A sample multiset sorted once, for any number of percentile reads:
 * its distinct values ascending, each with the number of samples at
 * or below it.
 */
class SortedSamples
{
  public:
    SortedSamples() = default;

    /** One sample per element. */
    explicit SortedSamples(std::vector<Seconds> values);

    /** Samples as (value, count) runs in any order; equal values
     * may repeat. */
    explicit SortedSamples(std::vector<SampleRun> runs);

    /**
     * Linear-interpolated percentile: p is clamped to [0, 100]
     * (infinities included) and the rank p/100 * (n - 1) interpolates
     * between the order statistics at its floor and the next one.
     * 0 for an empty set.  Throws std::invalid_argument on a NaN p.
     */
    Seconds percentile(double p) const;

    /** Number of samples. */
    std::uint64_t
    size() const
    {
        return runs_.empty() ? 0 : runs_.back().count;
    }

  private:
    /** Adds `count` samples of `value`, no smaller than any held. */
    void append(Seconds value, std::uint64_t count);

    /** The order statistic at 0-based `rank` (< size()). */
    Seconds at(std::uint64_t rank) const;

    /** Distinct values ascending; count is cumulative. */
    std::vector<SampleRun> runs_;
};

/** Fleet-level outcome of one serving run. */
struct ServingReport
{
    std::string engine;
    std::vector<RequestMetrics> requests;

    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;

    Seconds makespan = 0.0;
    double throughputTps = 0.0;      ///< Generated tokens per second.
    double meanBatchOccupancy = 0.0; ///< Mean running batch size.
    std::uint32_t peakBatch = 0;

    Seconds p50TokenLatency = 0.0;
    Seconds p90TokenLatency = 0.0;
    Seconds p99TokenLatency = 0.0;
    Seconds p50Ttft = 0.0;
    Seconds p99Ttft = 0.0;

    /**
     * True when some (batch, context) bucket exceeded the engine's
     * capacity and its cost was approximated by the largest
     * servable batch bucket — treat latencies as lower bounds.
     */
    bool costModelSaturated = false;
};

/**
 * KV residency of one conversation on a replica: the context tokens
 * kept warm for the session's next turn.  What the affinity router
 * scores sticky routing by.
 */
struct SessionKv
{
    std::uint64_t session = 0;
    std::uint64_t tokens = 0;
};

/** What a replica does next on the shared clock. */
enum class StepKind
{
    /** Nothing queued, nothing running. */
    Idle,

    /** Only future arrivals remain; wake at StepAction::until. */
    WaitArrival,

    /** Joint admission prefill in flight until StepAction::until. */
    Prefill,

    /** One decode step in flight until StepAction::until. */
    Decode,
};

/** Outcome of ServingSimulator::startNextWork(). */
struct StepAction
{
    StepKind kind = StepKind::Idle;

    /** End of the started work, or the next arrival (WaitArrival). */
    Seconds until = 0.0;
};

/**
 * Iteration-level continuous-batching simulator over one engine,
 * exposed as a resumable stepwise replica engine.
 *
 * Decode-step and prefill latencies are calibrated by running the
 * engine (which itself runs on the shared decode pipeline) at the
 * bucketed batch size and context length, then cached, so large
 * traces cost only a handful of engine simulations.  The cost cache
 * persists across sessions and runs.
 *
 * Stepwise session protocol (driven by the fleet event kernel):
 *
 *   beginSession();
 *   deliver(request);                 // at each arrival event
 *   a = startNextWork(now);           // when idle and work exists
 *   ... virtual clock reaches a.until ...
 *   retired = completeWork();         // apply effects, retire
 *   a = startNextWork(a.until);       // chain the next step
 *   ...
 *   report = finishSession();
 *
 * `run()` is exactly this protocol driven by a local loop.
 */
class ServingSimulator
{
  public:
    ServingSimulator(runtime::SystemConfig system,
                     model::LlmConfig llm, ServingConfig config);

    /** Simulate one arrival trace (any order; sorted internally). */
    ServingReport run(std::vector<ServedRequest> workload);

    const ServingConfig &config() const { return config_; }

    // ---- Stepwise session API (event-driven co-simulation) ----

    /** Reset session state (metrics, queues, clock) — not the cache. */
    void beginSession();

    /**
     * Pre-reserve the per-request session tables for about
     * `expected_requests` deliveries so a bulk preload (the fleet
     * kernel knows the trace size up front) never reallocates them
     * mid-run.  Optional; call after beginSession().
     */
    void reserveSession(std::size_t expected_requests);

    /**
     * Try to adopt `other`'s cost surface — its calibrated step-cost
     * table, the per-row pooled engines behind it, and its billing
     * — dropping this simulator's own.  A cell (row r is batch
     * bucket 2^r, column c is context bucket c) is a pure function
     * of the system, model, engine kind, calibrationTokens, seed and
     * seqBucket, so simulators equal in those get bit-identical
     * costs while paying for each cold cell once per surface instead
     * of once per replica.  maxBatch, maxQueue and kvCapacityTokens
     * only choose which cells a simulator touches, so they stay out
     * of the key: a wider member fills rows its narrower siblings
     * never reach.  Returns true (and shares) when the cells agree,
     * false (and changes nothing) when they differ — callers probe
     * candidates in a loop.  Not thread-safe: a surface must only
     * ever be touched by one thread at a time (the fleet gives each
     * surface's leader to exactly one calibration worker).
     */
    bool shareCostsWith(ServingSimulator &other);

    /** Hand one arrival to the replica (admission decided later). */
    void deliver(const ServedRequest &request);

    /**
     * Re-enter a preempted request at instant `now` (its effective
     * re-arrival for queue ordering; lifecycle timestamps keep the
     * original arrival/admitted/firstToken).  `cached_tokens` is how
     * much of its KV context is already resident on this replica:
     * the full contextLength() when the request resumes where it was
     * preempted or after a KV transfer, 0 for a cold resume — the
     * admission prefill charges only the un-cached suffix.  A
     * never-started request (tokensGenerated == 0) re-enters as a
     * fresh arrival, but keeps its lifecycle counters.
     */
    void deliverResumed(const ResumableRequest &resumed, Seconds now,
                        std::uint64_t cached_tokens);

    /**
     * Preempt running request `id` at a decode boundary: remove it
     * from the batch (it vanishes from this replica's report, like a
     * stolen request) and return the state needed to resume it.  Its
     * KV stays cached here, so a local deliverResumed() with
     * cached_tokens == contextLength() re-prefills nothing.  Throws
     * std::logic_error when the request is queued or unknown here,
     * and must not be called while work is in flight (busy()).
     */
    ResumableRequest preempt(std::uint64_t id);

    /**
     * Remove queued (never running) request `id` for migration to
     * another replica, preserving any resume state it carries.
     * Throws std::logic_error when `id` is not queued here.
     */
    ResumableRequest takeQueued(std::uint64_t id);

    /** Lifecycle state of request `id` on this replica. */
    RequestState stateOf(std::uint64_t id) const;

    /**
     * At a boundary instant `now` (>= clock()), observe due
     * arrivals, make admission decisions, and start the next unit
     * of work: a joint prefill of the newly admitted group, or one
     * decode step of the running batch.  Must not be called while
     * work is in flight (busy()).
     */
    StepAction startNextWork(Seconds now);

    /**
     * Finish the in-flight work at its scheduled end: emit first
     * tokens (prefill) or advance every running request one token
     * (decode), then retire finished requests.  Returns the retired
     * request ids, for the kernel's request-done events — a
     * reference into a buffer reused across steps, valid until the
     * next completeWork() on this simulator.
     */
    const std::vector<std::uint64_t> &completeWork();

    /** Assemble the session's ServingReport (ends the session). */
    ServingReport finishSession();

    /** Whether a prefill or decode step is in flight. */
    bool busy() const { return inflight_ != StepKind::Idle; }

    /** The replica's virtual clock (its last boundary instant). */
    Seconds clock() const { return clock_; }

    // ---- Observed state (feedback routing & work stealing) ----

    /** Requests on this replica: running + queued + undecided. */
    std::uint32_t observedOutstanding() const;

    /** Ground-truth backlog in tokens still owed to requests here. */
    double observedBacklogTokens() const;

    /** Requests queued but not yet in the running batch. */
    std::uint32_t queuedCount() const;

    /** The running batch (includes an in-flight admission group). */
    std::vector<RequestInfo> runningInfos() const;

    /** Queued requests in admission order (waiting, then pending). */
    std::vector<RequestInfo> queuedInfos() const;

    /**
     * KV context tokens of `session` resident here (0 when absent
     * or evicted).  A follow-up turn routed here prefills only its
     * prompt minus this prefix; the affinity policy scores replicas
     * by exactly this probe.
     */
    std::uint64_t cachedSessionTokens(std::uint64_t session) const;

    /**
     * Whether this replica is known to serve the session's model
     * (capability probe done and passed).  False until the first
     * request is observed at a boundary.
     */
    bool knownServable() const { return deadChecked_ && !dead_; }

    /** Whether the capability probe ran and failed (dead replica). */
    bool knownDead() const { return deadChecked_ && dead_; }

    /**
     * Remove up to `count` queued (never running) requests, newest
     * arrivals first, and return them in (arrival, id) order for
     * re-delivery to another replica.  Stolen requests vanish from
     * this replica's report.  Resumed entries are skipped — their KV
     * lives here, and a plain steal would silently drop it; use the
     * fleet's migrate verb to move them with their context.
     */
    std::vector<ServedRequest> stealQueued(std::uint32_t count);

    // ---- Calibrated-cost probes ----

    /**
     * Shared with the fleet router so its replica model and the
     * replica's own simulation agree on the physics.  Queries hit
     * the same cache `run()` fills; unservable buckets report 0
     * cost and `servable() == false`.
     */
    Seconds prefillSeconds(std::uint32_t batch,
                           std::uint64_t prompt_tokens);
    Seconds tokenSeconds(std::uint32_t batch, std::uint64_t seq);
    bool servable(std::uint32_t batch, std::uint64_t seq);

    /** Whether any probed bucket fell back to a smaller batch. */
    bool saturated() const { return saturated_; }

    /**
     * Fill the cost cache for the given operating points before an
     * event loop touches them.  The missing engine simulations run
     * as one job per row on up to `threads` threads (parallelFor),
     * each on the row's pooled engine, so a row records its tape
     * once; results are inserted sequentially in a fixed order
     * afterwards, and cache fills are order-independent, so warmed
     * and unwarmed runs are bit-identical — warming changes
     * wall-clock time and nothing else.  In particular it never
     * latches saturated(): a warmed bucket's fallback flag is only
     * observed when a run actually touches the bucket, exactly as if
     * it had been a cold miss.
     */
    void warmCosts(const std::vector<CostProbe> &probes,
                   std::uint32_t threads = 1);

    /**
     * Wall-clock seconds this simulator's (shared) cost surface spent
     * inside engine simulations, and how many it ran.  The fleet
     * layer subtracts this from kernel-loop time so events/sec
     * measures the event loop, not the calibration wall.
     */
    double calibrationSeconds() const;
    std::uint64_t calibrationRuns() const;

    /**
     * Full trace-driven simulations behind those runs: tapes the
     * cache's engines recorded.  Every other run replayed a tape.
     */
    std::uint64_t calibrationTapes() const;

    /**
     * Command-level DRAM rank simulations behind those runs: misses
     * of the surface's shared bandwidth probe, at most one per
     * access pattern its engines read (0 for engines without
     * NDP-DIMMs, or before the first engine is built).
     */
    std::uint64_t calibrationRankSimulations() const;

  private:
    struct StepCosts
    {
        Seconds prefill = 0.0; ///< Whole prompting stage.
        Seconds token = 0.0;   ///< One decode step for the batch.

        /** Bucket fell back to a smaller batch (capacity); every
         * simulator touching it reports saturated(). */
        bool saturatedFallback = false;
    };

    /** One request in the running batch. */
    struct Running
    {
        std::size_t index;       ///< Into entries_.
        std::uint32_t remaining; ///< Decode steps still owed.
        std::uint64_t seq;       ///< Current context length.
    };

    /**
     * The cost surface, the only memo of engine simulations:
     * calibrated step costs as a flat table with rows by log2(batch
     * bucket) — a handful, batch buckets are powers of two capped
     * at maxBatch — and columns by context bucket index
     * (seq / seqBucket), dense up to kMaxDenseColumns with a sorted
     * per-row tail for freak contexts so a tiny seqBucket cannot
     * balloon the dense rows.  Row r is batch bucket 2^r whatever
     * the cap, so one surface serves every simulator whose cells
     * are equal, whatever their scheduling knobs (shareCostsWith()).
     * Unlocked: one thread at a time per surface.
     */
    struct CostCache
    {
        struct Entry
        {
            StepCosts costs;
            bool present = false;
        };

        static constexpr std::uint64_t kMaxDenseColumns = 4096;

        std::vector<std::vector<Entry>> dense;
        std::vector<std::vector<std::pair<std::uint64_t, StepCosts>>>
            overflow; ///< Per row, sorted by context bucket.

        /**
         * Pooled engines, one per row, constructed on the row's
         * first miss.  A row's cells differ only in context, so its
         * engine records one tape (runtime/tape.hh) and replays it
         * for every column — bit-identical to a fresh engine.  One
         * engine per row keeps the tape count a function of the
         * cells computed, never of which thread computed them.
         */
        std::vector<std::unique_ptr<runtime::InferenceEngine>> engines;

        /**
         * The DRAM bandwidth probe every row engine shares, built
         * with the first engine.  Surfaces are shared only between
         * simulators with equal system configs, so one probe per
         * surface is exact; it is thread-safe, so rows recorded in
         * parallel by warmCosts() each miss it at most once per
         * access pattern between them.
         */
        std::shared_ptr<dram::BandwidthProbe> probe;

        /** Wall-clock spent in engine simulations, and how many. */
        double engineSeconds = 0.0;
        std::uint64_t engineRuns = 0;
    };

    /** Calibrated (batch bucket, seq bucket) -> step costs. */
    StepCosts costs(std::uint32_t batch, std::uint64_t seq);

    /**
     * Cached entry at (row, column), or nullptr on a miss.  Grows
     * the cache's row tables as needed; never runs the engine.
     */
    const StepCosts *findCosts(std::size_t row, std::uint64_t column);

    /** Insert `step` at (row, column); dense or sorted overflow. */
    void storeCosts(std::size_t row, std::uint64_t column,
                    const StepCosts &step);

    /** Row `row`'s pooled engine, constructed on first use; its
     * records run inline on the calling thread. */
    runtime::InferenceEngine &rowEngine(std::size_t row);

    /**
     * Cell (row, column) of the surface: the stored entry, or one
     * exact engine simulation of (batch bucket 2^row, context
     * (column + 1) * seqBucket) on the row's pooled engine, stored
     * before returning.  A bucket past capacity takes the row
     * below's cell at the same column (computed the same way)
     * flagged as a saturated fallback.  Does not touch saturated_.
     */
    StepCosts exactCosts(std::size_t row, std::uint64_t column);

    /**
     * The raw engine simulation behind exactCosts(), on a
     * caller-supplied engine — what the parallel warming workers run
     * on the rows they own.  std::nullopt when the bucket exceeds
     * capacity but a smaller batch might not: the caller serves it
     * from the half-batch bucket, flagged saturated.
     */
    static std::optional<StepCosts>
    simulateCosts(runtime::InferenceEngine &engine,
                  const model::LlmConfig &llm, const ServingConfig &config,
                  std::uint32_t batch_bucket, std::uint64_t seq_bucket);

    /** Entry `index` packaged for resume (counters as recorded —
     * preempt() adds its own increment). */
    ResumableRequest resumableAt(std::size_t index) const;

    /**
     * Take `session`'s KV out of the residency table (it is pinned
     * by the admitting request until retire).  Returns the cached
     * tokens, capped at `prompt_tokens` — a follow-up turn's prompt
     * always extends the history it grew from, so the cached prefix
     * can never exceed the prompt.
     */
    std::uint64_t consumeSessionKv(std::uint64_t session,
                                   std::uint64_t prompt_tokens);

    /**
     * (Re-)insert `session` at the MRU end with `context_tokens`
     * resident, then evict LRU sessions while over
     * kvCapacityTokens (capacity 0: unlimited).
     */
    void retireSessionKv(std::uint64_t session,
                         std::uint64_t context_tokens);

    runtime::SystemConfig system_;
    model::LlmConfig llm_;
    ServingConfig config_;
    std::shared_ptr<CostCache> cache_;
    bool saturated_ = false;

    /** Why an entry left this replica (excluded from its report). */
    enum class Moved : char
    {
        No = 0,
        Stolen,
        Preempted,
    };

    /** One delivery to this replica: everything known about it. */
    struct Entry
    {
        /** The request as delivered (a resumed entry's arrival is
         * its re-arrival instant, for queue ordering). */
        ServedRequest request;

        /** Its report row (original arrival and timestamps). */
        RequestMetrics metrics;

        Moved moved = Moved::No; ///< Excluded from the report.

        /**
         * Arrived via deliverResumed() (it carries resume state and
         * its KV must never be silently dropped).  This is the
         * discriminator — resumedTokens can legitimately be 0 for a
         * resumed entry that never started (takeQueued before its
         * first prefill), so token counts must not double as the
         * fresh/resumed flag.
         */
        bool resumed = false;

        /** Tokens a resumed entry generated before (re)delivery. */
        std::uint32_t resumedTokens = 0;

        /** KV context tokens resident here at delivery (resumed
         * entries only); the admission prefill charges context
         * minus this. */
        std::uint64_t cachedTokens = 0;
    };

    // ---- Session state (reset by beginSession) ----
    std::vector<Entry> entries_; ///< Delivery order.

    std::deque<std::size_t> pending_;     ///< Delivered, unobserved.
    std::deque<std::size_t> waiting_;     ///< In the admission queue.
    std::vector<Running> active_;         ///< The running batch.

    /**
     * Tokens still owed to requests on this replica, maintained
     * incrementally at every delivery / admission / token /
     * preempt / steal instead of walking all three queues per
     * observation — observedBacklogTokens() is O(1) on the kernel's
     * per-arrival gather path.  Token counts are integral, so the
     * counter equals the historical summation exactly.
     */
    std::uint64_t backlogOwed_ = 0;

    /**
     * Resident session KV, LRU order (front evicted first, back
     * most recently retired).  Touched only by session turns
     * (sessionId != 0): an entry is *consumed* when a fresh turn of
     * the session is admitted (the KV is then pinned by the running
     * request, invisible to routing) and re-inserted, grown by the
     * turn's tokens, when the turn retires.  kvResidentTokens_
     * tracks the total; retiring past kvCapacityTokens evicts from
     * the front.  Sessions per replica stay small, so linear scans
     * beat a map here.
     */
    std::vector<SessionKv> sessionKv_;
    std::uint64_t kvResidentTokens_ = 0;

    /** Retired-ids buffer reused across completeWork() calls. */
    std::vector<std::uint64_t> retired_;

    /** Some delivery carried a non-default priority: admission
     * scans for the max instead of taking the FIFO head. */
    bool prioritized_ = false;

    Seconds clock_ = 0.0;

    StepKind inflight_ = StepKind::Idle;
    Seconds inflightEnd_ = 0.0;
    Seconds inflightDt_ = 0.0;                 ///< Decode step cost.
    std::vector<std::size_t> inflightGroup_;   ///< Prefill group.

    bool deadChecked_ = false;
    bool dead_ = false; ///< Engine cannot serve the model at all.

    std::uint64_t sessionCompleted_ = 0;
    std::uint64_t sessionRejected_ = 0;
    std::uint64_t generated_ = 0;
    Seconds decodeTime_ = 0.0;
    double occupancyWeighted_ = 0.0;
    std::uint32_t peakBatch_ = 0;
    /** Token latencies: one run per distinct decode step cost,
     * the number of tokens decoded at it (see file header). */
    std::vector<SampleRun> tokenLatencies_;
    std::vector<Seconds> ttftSamples_;
};

/**
 * Deterministic synthetic trace: exponential inter-arrivals at
 * `arrivals_per_second`, fixed prompt/generate lengths.
 */
std::vector<ServedRequest>
syntheticWorkload(std::uint32_t count, double arrivals_per_second,
                  std::uint32_t prompt_tokens,
                  std::uint32_t generate_tokens, std::uint64_t seed);

} // namespace hermes::serving

#endif // HERMES_CORE_SERVING_HH
