/**
 * @file
 * Event-kernel tests: deterministic total order of the shared
 * virtual clock (core/event_sim.hh).  Fleet reports are pinned
 * byte-identical by the regression tests, so the pop order here is
 * load-bearing, not cosmetic.
 */

#include <algorithm>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/event_sim.hh"

namespace hermes::sim {
namespace {

TEST(EventSim, PopsInTimeOrderRegardlessOfPushOrder)
{
    EventQueue queue;
    queue.push(3.0, EventKind::StepComplete, 1, 7);
    queue.push(1.0, EventKind::Arrival, -1, 0);
    queue.push(2.0, EventKind::PrefillComplete, 0, 2);
    queue.push(1.5, EventKind::Arrival, -1, 1);

    std::vector<Seconds> times;
    while (!queue.empty())
        times.push_back(queue.pop().time);
    EXPECT_EQ(times, (std::vector<Seconds>{1.0, 1.5, 2.0, 3.0}));
}

TEST(EventSim, ArrivalsSortBeforeReplicaEventsAtTheSameInstant)
{
    // A boundary at time t must observe every arrival with
    // arrival <= t, like the closed serving loop: fleet-level
    // events (replica < 0) win ties against any replica event.
    EventQueue queue;
    queue.push(1.0, EventKind::StepComplete, 0, 0);
    queue.push(1.0, EventKind::Arrival, -1, 5);
    queue.push(1.0, EventKind::Wake, 2, 0);
    queue.push(1.0, EventKind::Arrival, -1, 4);

    EXPECT_EQ(queue.pop().kind, EventKind::Arrival);
    EXPECT_EQ(queue.pop().kind, EventKind::Arrival);
    EXPECT_EQ(queue.pop().kind, EventKind::StepComplete);
    EXPECT_EQ(queue.pop().kind, EventKind::Wake);
}

TEST(EventSim, TiesBreakByReplicaThenKindThenId)
{
    EventQueue queue;
    queue.push(2.0, EventKind::Wake, 1, 0);
    queue.push(2.0, EventKind::StepComplete, 1, 0);
    queue.push(2.0, EventKind::StepComplete, 0, 0);
    queue.push(2.0, EventKind::RequestDone, 0, 9);
    queue.push(2.0, EventKind::RequestDone, 0, 3);

    // Replica 0 first; within it, request-done (lower kind rank)
    // before step-complete, and lower id first.
    Event event = queue.pop();
    EXPECT_EQ(event.replica, 0);
    EXPECT_EQ(event.kind, EventKind::RequestDone);
    EXPECT_EQ(event.id, 3u);
    event = queue.pop();
    EXPECT_EQ(event.id, 9u);
    EXPECT_EQ(queue.pop().kind, EventKind::StepComplete);
    event = queue.pop();
    EXPECT_EQ(event.replica, 1);
    EXPECT_EQ(event.kind, EventKind::StepComplete);
    EXPECT_EQ(queue.pop().kind, EventKind::Wake);
}

TEST(EventSim, IdenticalEventsPopInInsertionOrder)
{
    EventQueue queue;
    for (int i = 0; i < 4; ++i)
        queue.push(1.0, EventKind::Arrival, -1, 7);
    std::uint64_t last = 0;
    for (int i = 0; i < 4; ++i) {
        const Event event = queue.pop();
        if (i > 0) {
            EXPECT_GT(event.seq, last);
        }
        last = event.seq;
    }
}

TEST(EventSim, ClockIsMonotonicAndStatsCountByKind)
{
    EventQueue queue;
    queue.push(0.5, EventKind::Arrival, -1, 0);
    queue.push(1.0, EventKind::PrefillComplete, 0, 0);
    queue.push(2.0, EventKind::StepComplete, 0, 0);
    queue.push(2.0, EventKind::RequestDone, 0, 0);
    queue.push(3.0, EventKind::Wake, 1, 0);

    Seconds last = 0.0;
    while (!queue.empty()) {
        const Event event = queue.pop();
        EXPECT_GE(event.time, last);
        last = event.time;
        EXPECT_DOUBLE_EQ(queue.now(), event.time);
        // Scheduling into the virtual present is fine...
        queue.push(event.time, EventKind::RequestDone, 3,
                   100 + queue.stats().popped());
        queue.pop();
    }
    const EventStats &stats = queue.stats();
    EXPECT_EQ(stats.arrivals, 1u);
    EXPECT_EQ(stats.prefills, 1u);
    EXPECT_EQ(stats.decodeSteps, 1u);
    EXPECT_EQ(stats.requestsDone, 1u + 5u);
    EXPECT_EQ(stats.wakes, 1u);
    EXPECT_EQ(stats.popped(), 10u);
}

TEST(EventSim, KindNamesAreStable)
{
    EXPECT_EQ(eventKindName(EventKind::Arrival), "arrival");
    EXPECT_EQ(eventKindName(EventKind::RequestDone),
              "request-done");
    EXPECT_EQ(eventKindName(EventKind::PrefillComplete),
              "prefill-complete");
    EXPECT_EQ(eventKindName(EventKind::StepComplete),
              "step-complete");
    EXPECT_EQ(eventKindName(EventKind::Wake), "wake");
    EXPECT_EQ(eventKindName(EventKind::Tick), "tick");
    EXPECT_EQ(eventKindName(EventKind::ResumeReady),
              "resume-ready");
    EXPECT_EQ(eventKindName(EventKind::SessionContinue),
              "session-continue");
    EXPECT_EQ(eventKindName(EventKind::ReplicaReady),
              "replica-ready");
}

TEST(EventSim, TicksCountInStatsAndSortAsFleetEvents)
{
    // Control-plane heartbeats are fleet-level events: at a tied
    // instant they pop before any replica event (like arrivals)
    // and after arrivals of the same instant (higher kind rank).
    EventQueue queue;
    queue.push(1.0, EventKind::StepComplete, 0, 0);
    queue.push(1.0, EventKind::Tick, -1, 0);
    queue.push(1.0, EventKind::Arrival, -1, 3);

    EXPECT_EQ(queue.pop().kind, EventKind::Arrival);
    EXPECT_EQ(queue.pop().kind, EventKind::Tick);
    EXPECT_EQ(queue.pop().kind, EventKind::StepComplete);
    EXPECT_EQ(queue.stats().ticks, 1u);
    EXPECT_EQ(queue.stats().popped(), 3u);
}

TEST(EventSim, HeapPopOrderMatchesStableSortOfPushes)
{
    // The queue's one heap must pop events in the order of a stable
    // sort of the push stream: the comparator (time, replica, kind,
    // id, seq) is a strict total order, and seq is the push order,
    // so that sort is the only correct pop sequence.
    constexpr int kShards = 8;
    EventQueue queue;
    queue.shard(kShards);

    struct Pushed
    {
        Seconds time;
        EventKind kind;
        std::int32_t replica;
        std::uint64_t id;
        std::size_t order; // Push order: the seq tie-break.
    };
    const EventKind kinds[] = {
        EventKind::RequestDone, EventKind::PrefillComplete,
        EventKind::StepComplete, EventKind::Wake,
        EventKind::ResumeReady};

    // Deterministic LCG so the interleaving is reproducible and
    // heavy on ties: only 8 distinct timestamps over 400 events.
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    const auto next = [&state]() {
        state = state * 6364136223846793005ULL +
                1442695040888963407ULL;
        return state >> 33;
    };

    std::vector<Pushed> reference;
    for (std::size_t i = 0; i < 400; ++i) {
        const Seconds time =
            static_cast<Seconds>(next() % 8) * 0.25;
        // One in five events is fleet-level (replica -1).
        const std::int32_t replica =
            next() % 5 == 0
                ? -1
                : static_cast<std::int32_t>(next() % kShards);
        const EventKind kind =
            replica < 0 ? EventKind::Arrival : kinds[next() % 5];
        const std::uint64_t id = next() % 16;
        queue.push(time, kind, replica, id);
        reference.push_back({time, kind, replica, id, i});
    }

    // seq is assigned in push order, so a stable sort on the
    // (time, replica, kind, id) prefix is the full total order.
    std::stable_sort(
        reference.begin(), reference.end(),
        [](const Pushed &a, const Pushed &b) {
            return std::tie(a.time, a.replica, a.kind, a.id) <
                   std::tie(b.time, b.replica, b.kind, b.id);
        });

    for (std::size_t i = 0; i < reference.size(); ++i) {
        const Event event = queue.pop();
        ASSERT_DOUBLE_EQ(event.time, reference[i].time) << i;
        ASSERT_EQ(event.replica, reference[i].replica) << i;
        ASSERT_EQ(event.kind, reference[i].kind) << i;
        ASSERT_EQ(event.id, reference[i].id) << i;
    }
    EXPECT_TRUE(queue.empty());
}

TEST(EventSim, InterleavedPushPopMatchesLinearReference)
{
    // The kernel interleaves pushes, presorted arrival batches and
    // pops, with follow-up events often scheduled at exactly now().
    // Every pop must be the earliest pending event under the
    // documented (time, replica, kind, id, seq) order, found here by
    // a linear scan.  Timestamps sit on a quarter-second grid and
    // half the replicas come from {-1, 0, 1}, so ties run deep.
    EventQueue queue;
    std::uint64_t state = 0x2545f4914f6cdd1dULL;
    const auto next = [&state]() {
        state = state * 6364136223846793005ULL +
                1442695040888963407ULL;
        return state >> 33;
    };
    const EventKind fleet_kinds[] = {
        EventKind::Arrival, EventKind::Tick, EventKind::ResumeReady,
        EventKind::SessionContinue};
    const EventKind replica_kinds[] = {
        EventKind::RequestDone, EventKind::PrefillComplete,
        EventKind::StepComplete, EventKind::Wake,
        EventKind::ReplicaReady};
    const auto key = [](const Event &event) {
        return std::tie(event.time, event.replica, event.kind,
                        event.id, event.seq);
    };

    std::vector<Event> pending;
    std::uint64_t seq = 0;
    std::uint64_t sorted_id = 0;
    Seconds last_sorted = 0.0;
    std::size_t pops = 0;
    std::size_t peak = 0;
    const auto pop_and_check = [&]() {
        const auto earliest = std::min_element(
            pending.begin(), pending.end(),
            [&key](const Event &a, const Event &b) {
                return key(a) < key(b);
            });
        const Event event = queue.pop();
        ASSERT_EQ(event.seq, earliest->seq) << "pop " << pops;
        ASSERT_EQ(event.time, earliest->time) << "pop " << pops;
        ASSERT_EQ(event.replica, earliest->replica) << "pop " << pops;
        ASSERT_EQ(event.kind, earliest->kind) << "pop " << pops;
        ASSERT_EQ(event.id, earliest->id) << "pop " << pops;
        ASSERT_EQ(queue.now(), event.time);
        pending.erase(earliest);
        ++pops;
    };

    for (int step = 0; step < 30000; ++step) {
        const std::uint64_t roll = next() % 10;
        if (roll < 3) {
            const std::int32_t replica =
                next() % 2 == 0
                    ? static_cast<std::int32_t>(next() % 3) - 1
                    : static_cast<std::int32_t>(next() % 1025) - 1;
            const EventKind kind =
                replica < 0 ? fleet_kinds[next() % 4]
                            : replica_kinds[next() % 5];
            // Offset 0 schedules at exactly now().
            const Seconds time =
                queue.now() + 0.25 * static_cast<double>(next() % 4);
            const std::uint64_t id = next() % 8;
            queue.push(time, kind, replica, id);
            pending.push_back(Event{time, kind, replica, id, seq++});
        } else if (roll == 3) {
            // A presorted batch: nondecreasing times, ascending ids.
            Seconds time = std::max(queue.now(), last_sorted);
            const std::uint64_t batch = 1 + next() % 6;
            for (std::uint64_t i = 0; i < batch; ++i) {
                time += 0.25 * static_cast<double>(next() % 2);
                queue.pushSorted(time, EventKind::Arrival, sorted_id);
                pending.push_back(Event{time, EventKind::Arrival, -1,
                                        sorted_id++, seq++});
            }
            last_sorted = time;
        } else if (!pending.empty()) {
            pop_and_check();
            if (HasFatalFailure())
                return;
        }
        ASSERT_EQ(queue.size(), pending.size());
        peak = std::max(peak, pending.size());
    }
    while (!pending.empty()) {
        pop_and_check();
        if (HasFatalFailure())
            return;
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.stats().popped(), pops);
    // The mix must actually interleave: many pops, a queue that
    // both fills and drains.
    EXPECT_GT(pops, 10000u);
    EXPECT_GT(peak, 20u);
}

TEST(EventSim, SortedStreamMergesWithHeapEvents)
{
    // pushSorted feeds the presorted arrival stream through a flat
    // cursor instead of the heap; the merge must still respect the
    // full total order against heap-side pushes.
    EventQueue queue;
    queue.shard(2);
    queue.reserveSorted(3);
    queue.pushSorted(1.0, EventKind::Arrival, 0);
    queue.pushSorted(2.0, EventKind::Arrival, 1);
    queue.pushSorted(2.0, EventKind::Arrival, 2);
    queue.push(1.5, EventKind::StepComplete, 0, 0);
    queue.push(2.0, EventKind::Wake, 1, 0);
    queue.push(0.5, EventKind::Tick, -1, 0);

    std::vector<EventKind> kinds;
    std::vector<std::uint64_t> ids;
    while (!queue.empty()) {
        const Event event = queue.pop();
        kinds.push_back(event.kind);
        ids.push_back(event.id);
    }
    EXPECT_EQ(kinds,
              (std::vector<EventKind>{
                  EventKind::Tick, EventKind::Arrival,
                  EventKind::StepComplete, EventKind::Arrival,
                  EventKind::Arrival, EventKind::Wake}));
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 0, 0, 1, 2, 0}));
}

TEST(EventSim, PerKindCountersSumToPopped)
{
    // popped() is a single counter bumped in pop(); the nine
    // per-kind counters must partition it exactly.
    EventQueue queue;
    queue.shard(4);
    std::uint64_t state = 17;
    const auto next = [&state]() {
        state = state * 6364136223846793005ULL +
                1442695040888963407ULL;
        return state >> 33;
    };
    const EventKind kinds[] = {
        EventKind::Arrival,      EventKind::RequestDone,
        EventKind::PrefillComplete, EventKind::StepComplete,
        EventKind::Wake,         EventKind::Tick,
        EventKind::ResumeReady,  EventKind::SessionContinue,
        EventKind::ReplicaReady};
    for (int i = 0; i < 100; ++i) {
        const EventKind kind = kinds[next() % 9];
        const std::int32_t replica =
            kind == EventKind::Arrival ||
                    kind == EventKind::Tick ||
                    kind == EventKind::SessionContinue
                ? -1
                : static_cast<std::int32_t>(next() % 4);
        queue.push(static_cast<Seconds>(next() % 10), kind,
                   replica, i);
    }
    while (!queue.empty())
        queue.pop();

    const EventStats &stats = queue.stats();
    EXPECT_EQ(stats.arrivals + stats.requestsDone +
                  stats.prefills + stats.decodeSteps +
                  stats.wakes + stats.ticks + stats.resumes +
                  stats.sessionContinues + stats.replicaReadies,
              stats.popped());
    EXPECT_EQ(stats.popped(), 100u);
}

TEST(EventSim, DroppedEventsAreUncountedAndRecordedOnesUnqueued)
{
    // The kernel's span bookkeeping: top() peeks without popping,
    // drop() discards a superseded event without counting it or
    // moving the clock, record() counts an event that never entered
    // the queue; pops() counts every physical removal.
    EventQueue queue;
    queue.pushSorted(1.0, EventKind::Arrival, 0);
    queue.push(5.0, EventKind::StepComplete, 0, 0); // Superseded.
    queue.push(2.0, EventKind::StepComplete, 0, 1);

    EXPECT_EQ(queue.top().time, 1.0);
    EXPECT_EQ(queue.pop().kind, EventKind::Arrival);
    EXPECT_EQ(queue.top().id, 1u);
    EXPECT_EQ(queue.pop().time, 2.0);
    queue.record(EventKind::StepComplete);
    queue.record(EventKind::RequestDone);
    EXPECT_EQ(queue.top().time, 5.0);
    queue.drop();
    EXPECT_TRUE(queue.empty());

    EXPECT_EQ(queue.now(), 2.0);
    EXPECT_EQ(queue.pops(), 3u);
    const EventStats &stats = queue.stats();
    EXPECT_EQ(stats.arrivals, 1u);
    EXPECT_EQ(stats.decodeSteps, 2u);
    EXPECT_EQ(stats.requestsDone, 1u);
    EXPECT_EQ(stats.popped(), 4u);
}

} // namespace
} // namespace hermes::sim
