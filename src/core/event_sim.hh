/**
 * @file
 * Discrete-event co-simulation kernel: one virtual clock shared by
 * every replica of a fleet.
 *
 * An open-loop fleet would commit every placement up front from a
 * backlog *estimate*, then replay each replica's sub-trace in
 * isolation.  The event kernel inverts that control flow.  All
 * replicas advance on a single virtual clock; the fleet pops the
 * earliest event, lets exactly one actor react (deliver an arrival,
 * finish a prefill or decode step, wake an idle replica), and
 * pushes the follow-up events that reaction produces.  Routing
 * therefore happens *at arrival instants* against observed replica
 * state — the prerequisite for feedback-driven policies (true
 * join-shortest-queue, least actual backlog) and for cross-replica
 * dynamics like work stealing.
 *
 * Determinism is load-bearing: fleet reports are pinned
 * byte-identical by tests.  Events are totally ordered by
 * (time, replica, kind, id, insertion sequence), with fleet-level
 * events (arrivals, replica < 0) sorting before any replica event
 * at the same instant — so a boundary at time t always observes
 * every arrival with arrival <= t, exactly like the monolithic
 * serving loop it replaces.
 *
 * The queue is one binary heap of scheduled events plus a
 * presorted stream.  The arrival trace — known and sorted up front,
 * and the dominant event kind — never enters the heap: it is
 * appended to the stream and consumed by a cursor, and pop() merges
 * the stream head against the heap top.  The heap holds only the
 * in-flight events (a replica's pending prefill or step completion,
 * wakes, ticks, resume-readies): about one per busy replica, which
 * peaked at 305 events over `bench_fleet --huge`'s million
 * requests on 1024 replicas.  A heap that small needs no sharding
 * by replica.  The comparator is a strict total order (the insertion
 * sequence is unique), so the merge pops exactly the sequence of
 * one heap holding every event, which a golden test pins byte for
 * byte.
 */

#ifndef HERMES_CORE_EVENT_SIM_HH
#define HERMES_CORE_EVENT_SIM_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace hermes::sim {

/** What happened at an event's instant. */
enum class EventKind : std::uint8_t
{
    /** A request reaches the fleet; the router decides now. */
    Arrival = 0,

    /** A retired request, recorded on the shared clock. */
    RequestDone = 1,

    /** A replica's joint admission prefill finished. */
    PrefillComplete = 2,

    /** A replica's decode step finished. */
    StepComplete = 3,

    /** An idle replica re-examines its queue (new work arrived). */
    Wake = 4,

    /** Periodic control-plane heartbeat (ControlPolicy::onTick). */
    Tick = 5,

    /**
     * A migrated request's KV transfer landed: the destination
     * replica sees the arrival only now (fleet-level event, like an
     * arrival — transfer latency is modeled by scheduling this at
     * preemption time + the DIMM-link KV-transfer time).
     */
    ResumeReady = 6,

    /**
     * A session's follow-up turn arrives: scheduled at the previous
     * turn's completion + think time (fleet-level event; its id is
     * the follow-up's workload index).  Only session runs emit it:
     * their arrival times depend on completion times.
     */
    SessionContinue = 7,

    /**
     * A spawned replica finished one lifecycle phase: provisioning
     * (it begins its batch-ramp warm-up) or warming (it goes Active
     * and becomes routable).  Scheduled by the autoscaling verbs at
     * spawn time + the modeled provisioning latency, then again at
     * + the warm-up replay time (see core/fleet.cc).
     */
    ReplicaReady = 8,
};

/** Display name of an event kind. */
std::string eventKindName(EventKind kind);

/** One scheduled event. */
struct Event
{
    Seconds time = 0.0;
    EventKind kind = EventKind::Arrival;

    /** Owning replica; < 0 for fleet-level events (arrivals). */
    std::int32_t replica = -1;

    /** Request id / workload index (kind-dependent), tie-break key. */
    std::uint64_t id = 0;

    /** Insertion sequence, the final FIFO tie-break. */
    std::uint64_t seq = 0;
};

/** Counters over everything a queue has popped. */
struct EventStats
{
    std::uint64_t arrivals = 0;
    std::uint64_t requestsDone = 0;
    std::uint64_t prefills = 0;
    std::uint64_t decodeSteps = 0;
    std::uint64_t wakes = 0;
    std::uint64_t ticks = 0;
    std::uint64_t resumes = 0;
    std::uint64_t sessionContinues = 0;
    std::uint64_t replicaReadies = 0;

    /**
     * Total popped events, kept as its own counter bumped once per
     * pop() — the per-kind fields above always sum to it (pinned by
     * test), but the hot loop reads one field instead of re-adding
     * them.
     */
    std::uint64_t poppedEvents = 0;

    std::uint64_t popped() const { return poppedEvents; }
};

/**
 * Deterministic min-queue over events with a monotonic virtual
 * clock.  pop() returns the globally earliest event under the total
 * order documented in the file header and advances now(); pushing
 * an event earlier than now() is a kernel bug and panics.
 *
 * One heap plus the presorted stream (see file header): preload the
 * sorted arrival trace with reserveSorted() + pushSorted(); push()
 * schedules everything else.
 */
class EventQueue
{
  public:
    /** Schedule an event; `seq` is assigned internally. */
    void push(Seconds time, EventKind kind, std::int32_t replica,
              std::uint64_t id);

    /**
     * Append a *fleet-level* event (replica -1) to the presorted
     * stream: O(1), no heap.  Events must be appended in
     * nondecreasing (time, kind, id) order — the kernel bulk-loads
     * the arrival trace this way (the workload is sorted and event
     * ids are ascending workload indices).  Appending out of order
     * panics.  pop() merges the stream against the heap under the
     * full comparator, so the result is order-identical to having
     * push()ed every event.
     */
    void pushSorted(Seconds time, EventKind kind, std::uint64_t id);

    /**
     * Sizing hint for a fleet of `replicas`: reserves the heap for
     * two events per replica, above the in-flight peak of the
     * `--huge` bench tiers (68 events on 64 replicas, 305 on 1024).
     * Optional — the heap grows on demand — and it changes no pop
     * order.
     */
    void shard(std::uint32_t replicas);

    /** Pre-reserve the presorted stream for `events` pushSorted(). */
    void reserveSorted(std::size_t events);

    /** Pop the earliest event (queue must not be empty). */
    Event pop();

    bool empty() const { return size() == 0; }
    std::size_t size() const
    {
        return heap_.size() + sorted_.size() - sortedNext_;
    }

    /** Virtual clock: the time of the last popped event. */
    Seconds now() const { return now_; }

    /** Counters over popped events, by kind. */
    const EventStats &stats() const { return stats_; }

  private:
    /** Scheduled events, a min-heap under std::push_heap. */
    std::vector<Event> heap_;

    /** The presorted stream, consumed by cursor. */
    std::vector<Event> sorted_;
    std::size_t sortedNext_ = 0;

    Seconds now_ = 0.0;
    std::uint64_t seq_ = 0;
    EventStats stats_;
};

} // namespace hermes::sim

#endif // HERMES_CORE_EVENT_SIM_HH
