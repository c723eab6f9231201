#include "core/event_sim.hh"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>

#include "common/logging.hh"

namespace hermes::sim {
namespace {

/** Strict "earlier than" under the documented total order. */
bool
earlier(const Event &a, const Event &b)
{
    // Total order (earliest pops first): time, then replica with
    // fleet-level events (replica < 0) ahead of every replica's, so
    // a boundary at time t observes all arrivals with arrival <= t;
    // then kind, id, and finally insertion order.  No two events
    // ever compare equal (seq is unique), so merging the presorted
    // stream against the heap pops the byte-identical sequence one
    // heap of every event would.
    return std::tie(a.time, a.replica, a.kind, a.id, a.seq) <
           std::tie(b.time, b.replica, b.kind, b.id, b.seq);
}

/** Heap predicate for std::push_heap (max-heap on "later"). */
struct Later
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        return earlier(b, a);
    }
};

} // namespace

std::string
eventKindName(EventKind kind)
{
    switch (kind) {
    case EventKind::Arrival:
        return "arrival";
    case EventKind::RequestDone:
        return "request-done";
    case EventKind::PrefillComplete:
        return "prefill-complete";
    case EventKind::StepComplete:
        return "step-complete";
    case EventKind::Wake:
        return "wake";
    case EventKind::Tick:
        return "tick";
    case EventKind::ResumeReady:
        return "resume-ready";
    case EventKind::SessionContinue:
        return "session-continue";
    case EventKind::ReplicaReady:
        return "replica-ready";
    }
    return "?";
}

void
EventQueue::push(Seconds time, EventKind kind, std::int32_t replica,
                 std::uint64_t id)
{
    hermes_assert(time >= now_,
                  "event scheduled in the virtual past: ",
                  eventKindName(kind), " at ", time, " < now ",
                  now_);
    heap_.push_back(Event{time, kind, replica, id, seq_++});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void
EventQueue::pushSorted(Seconds time, EventKind kind,
                       std::uint64_t id)
{
    hermes_assert(time >= now_,
                  "event scheduled in the virtual past: ",
                  eventKindName(kind), " at ", time, " < now ",
                  now_);
    const Event event{time, kind, -1, id, seq_++};
    hermes_assert(sorted_.empty() ||
                      !earlier(event, sorted_.back()),
                  "pushSorted out of order: ", eventKindName(kind),
                  " at ", time, " id ", id);
    sorted_.push_back(event);
}

void
EventQueue::shard(std::uint32_t replicas)
{
    heap_.reserve(2 * static_cast<std::size_t>(replicas) + 16);
}

void
EventQueue::reserveSorted(std::size_t events)
{
    sorted_.reserve(sorted_.size() + events);
}

bool
EventQueue::streamFirst() const
{
    // Two-way merge: the presorted stream head against the heap top.
    return sortedNext_ < sorted_.size() &&
           (heap_.empty() ||
            earlier(sorted_[sortedNext_], heap_.front()));
}

const Event &
EventQueue::top() const
{
    hermes_assert(!empty(), "top of empty event queue");
    return streamFirst() ? sorted_[sortedNext_] : heap_.front();
}

Event
EventQueue::take()
{
    hermes_assert(!empty(), "pop from empty event queue");
    ++pops_;
    Event event;
    if (streamFirst()) {
        event = sorted_[sortedNext_++];
        // Recycle the consumed prefix once the stream fully drains
        // so interleaved preload phases do not accumulate.
        if (sortedNext_ == sorted_.size()) {
            sorted_.clear();
            sortedNext_ = 0;
        }
    } else {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        event = heap_.back();
        heap_.pop_back();
    }
    return event;
}

Event
EventQueue::pop()
{
    const Event event = take();
    now_ = event.time;
    stats_.count(event.kind);
    return event;
}

void
EventQueue::drop()
{
    take();
}

void
EventStats::count(EventKind kind)
{
    switch (kind) {
    case EventKind::Arrival:
        ++arrivals;
        break;
    case EventKind::RequestDone:
        ++requestsDone;
        break;
    case EventKind::PrefillComplete:
        ++prefills;
        break;
    case EventKind::StepComplete:
        ++decodeSteps;
        break;
    case EventKind::Wake:
        ++wakes;
        break;
    case EventKind::Tick:
        ++ticks;
        break;
    case EventKind::ResumeReady:
        ++resumes;
        break;
    case EventKind::SessionContinue:
        ++sessionContinues;
        break;
    case EventKind::ReplicaReady:
        ++replicaReadies;
        break;
    }
    ++poppedEvents;
}

} // namespace hermes::sim
