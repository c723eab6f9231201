/**
 * @file
 * Tests for the multi-request serving layer: continuous batching,
 * admission control, per-request metrics and fleet percentiles.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/hermes.hh"

namespace hermes::serving {
namespace {

ServingConfig
fastServing(std::uint32_t max_batch = 8)
{
    ServingConfig config;
    config.maxBatch = max_batch;
    config.calibrationTokens = 6;
    return config;
}

TEST(Workload, SyntheticTraceIsDeterministicAndSorted)
{
    const auto a = syntheticWorkload(16, 2.0, 128, 32, 7);
    const auto b = syntheticWorkload(16, 2.0, 128, 32, 7);
    ASSERT_EQ(a.size(), 16u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
        if (i > 0) {
            EXPECT_GE(a[i].arrival, a[i - 1].arrival);
        }
    }
}

TEST(Workload, PercentileInterpolates)
{
    const SortedSamples values({4.0, 1.0, 3.0, 2.0});
    EXPECT_DOUBLE_EQ(values.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(values.percentile(100.0), 4.0);
    EXPECT_DOUBLE_EQ(values.percentile(50.0), 2.5);
    EXPECT_DOUBLE_EQ(SortedSamples().percentile(50.0), 0.0);
}

/**
 * The percentile SortedSamples replaced, verbatim: it copies and
 * sorts the samples on every call.  The reference the histogram path
 * must match bit for bit.
 */
Seconds
referencePercentile(std::vector<Seconds> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double clamped = std::clamp(p, 0.0, 100.0);
    const double rank =
        clamped / 100.0 *
        static_cast<double>(values.size() - 1);
    const auto low = static_cast<std::size_t>(rank);
    const std::size_t high =
        std::min(low + 1, values.size() - 1);
    const double fraction = rank - static_cast<double>(low);
    return values[low] +
           (values[high] - values[low]) * fraction;
}

std::uint64_t
bits(Seconds value)
{
    return std::bit_cast<std::uint64_t>(value);
}

TEST(Percentile, HistogramMatchesTheSortingReferenceBitwise)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    const std::array<double, 10> ps{0.0,   0.5,  50.0, 90.0, 99.0,
                                    100.0, -5.0, 250.0, inf, -inf};
    Rng rng(23);
    for (const std::size_t size : {0, 1, 2, 3, 7, 100000}) {
        // 2-8 distinct values tie heavily, as step costs do; 0 draws
        // every sample afresh (all distinct).
        for (const std::uint64_t distinct : {2, 3, 5, 8, 0}) {
            std::vector<Seconds> costs(distinct);
            for (Seconds &cost : costs)
                cost = 1.0e-3 * (1.0 + 40.0 * rng.uniform());
            std::vector<Seconds> samples(size);
            for (Seconds &sample : samples)
                sample = distinct > 0
                             ? costs[rng.below(distinct)]
                             : 1.0e-3 * rng.uniform();

            // As a decode step adds them: runs of one value, equal
            // values split across several runs, in shuffled order.
            std::vector<SampleRun> runs;
            for (const Seconds sample : samples) {
                if (!runs.empty() && runs.back().value == sample &&
                    rng.chance(0.7))
                    ++runs.back().count;
                else
                    runs.push_back({sample, 1});
            }
            for (std::size_t i = runs.size(); i > 1; --i)
                std::swap(runs[i - 1], runs[rng.below(i)]);
            if (!runs.empty())
                runs.push_back({runs.front().value, 0});

            const SortedSamples from_runs(runs);
            const SortedSamples from_values(samples);
            EXPECT_EQ(from_runs.size(), size);
            EXPECT_EQ(from_values.size(), size);
            for (const double p : ps) {
                const std::uint64_t expected =
                    bits(referencePercentile(samples, p));
                EXPECT_EQ(bits(from_runs.percentile(p)), expected)
                    << "size " << size << " distinct " << distinct
                    << " p " << p;
                EXPECT_EQ(bits(from_values.percentile(p)), expected)
                    << "size " << size << " distinct " << distinct
                    << " p " << p;
            }
        }
    }
}

TEST(Percentile, NanRankThrowsInsteadOfIndexingOutOfBounds)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(SortedSamples({1.0, 2.0, 3.0}).percentile(nan),
                 std::invalid_argument);
    EXPECT_THROW(SortedSamples().percentile(nan),
                 std::invalid_argument);
    EXPECT_THROW(SortedSamples(std::vector<SampleRun>{{1.0, 4}})
                     .percentile(nan),
                 std::invalid_argument);
    try {
        SortedSamples({1.0, 2.0}).percentile(nan);
        FAIL() << "no exception";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("nan"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Percentile, SessionRunPercentilesArePinnedBitwise)
{
    // Batches of 1-6 over three batch buckets: three distinct step
    // costs, so p50, p90 and p99 each read a different one.
    System system(fastConfig(4));
    const auto report = system.serve(
        model::opt13b(), syntheticWorkload(24, 1.0, 64, 64, 3),
        fastServing(8));
    EXPECT_EQ(report.peakBatch, 6u);
    EXPECT_EQ(bits(report.p50TokenLatency), 0x3f84896e59b5f599ull);
    EXPECT_EQ(bits(report.p90TokenLatency), 0x3f892f2bbcedcb34ull);
    EXPECT_EQ(bits(report.p99TokenLatency), 0x3f91e9057aa111cfull);
    EXPECT_EQ(bits(report.p50Ttft), 0x3fdabf94956ec6a4ull);
    EXPECT_EQ(bits(report.p99Ttft), 0x3fea6e75af9d71f1ull);
}

TEST(Serving, ConcurrentRequestsShareTheBatch)
{
    System system(fastConfig(4));
    // 12 requests in one burst: the 8 slots fill and 4 queue.
    const auto workload = syntheticWorkload(12, 50.0, 64, 16, 3);
    const auto report =
        system.serve(model::opt13b(), workload, fastServing(8));

    EXPECT_EQ(report.completed, 12u);
    EXPECT_EQ(report.rejected, 0u);
    EXPECT_GE(report.peakBatch, 8u);
    EXPECT_GT(report.meanBatchOccupancy, 1.0);
    EXPECT_GT(report.throughputTps, 0.0);
    EXPECT_GT(report.p50TokenLatency, 0.0);
    EXPECT_GE(report.p99TokenLatency, report.p50TokenLatency);
    EXPECT_GE(report.p99Ttft, report.p50Ttft);
    for (const auto &request : report.requests) {
        if (request.rejected)
            continue;
        EXPECT_GE(request.admitted, request.arrival);
        EXPECT_GE(request.firstToken, request.admitted);
        EXPECT_GE(request.completed, request.firstToken);
        EXPECT_EQ(request.tokens, 16u);
    }
}

TEST(Serving, BatchingBeatsSequentialService)
{
    System system(fastConfig(4));
    const auto workload = syntheticWorkload(8, 50.0, 64, 16, 3);
    const auto batched =
        system.serve(model::opt13b(), workload, fastServing(8));
    const auto sequential =
        system.serve(model::opt13b(), workload, fastServing(1));
    EXPECT_LT(batched.makespan, sequential.makespan);
    EXPECT_GT(batched.throughputTps, sequential.throughputTps);
}

TEST(Serving, AdmissionControlRejectsOverflow)
{
    System system(fastConfig(4));
    const auto workload = syntheticWorkload(12, 1.0e6, 64, 16, 3);
    ServingConfig config = fastServing(2);
    config.maxQueue = 3;
    const auto report =
        system.serve(model::opt13b(), workload, config);
    // 2 slots + 3 queue spots absorb 5 of the burst of 12.
    EXPECT_GT(report.rejected, 0u);
    EXPECT_EQ(report.completed + report.rejected, 12u);
    EXPECT_EQ(report.requests.size(), 12u);
}

TEST(Serving, UnservableModelRejectsWholeTrace)
{
    SystemConfig config = fastConfig(4);
    config.numDimms = 0; // Hermes needs its NDP-DIMM pool.
    System system(config);
    const auto workload = syntheticWorkload(4, 10.0, 64, 8, 3);
    const auto report =
        system.serve(model::opt13b(), workload, fastServing(4));
    EXPECT_EQ(report.completed, 0u);
    EXPECT_EQ(report.rejected, 4u);
}

TEST(Serving, BadArrivalTimesThrowNamingTheRequest)
{
    // A negative, NaN or infinite arrival cannot be scheduled on a
    // clock that starts at 0; the run raises before it sorts.
    ServingSimulator simulator(fastConfig(4), model::opt13b(),
                               fastServing(4));
    for (const double bad :
         {-1.0, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        auto workload = syntheticWorkload(3, 10.0, 64, 8, 3);
        workload[2].arrival = bad;
        try {
            simulator.run(workload);
            ADD_FAILURE() << "arrival " << bad << " was accepted";
        } catch (const std::invalid_argument &error) {
            EXPECT_NE(std::string(error.what()).find("request 2"),
                      std::string::npos)
                << error.what();
        }
    }
}

TEST(Serving, ZeroGenerateTokensCompletesAtPrefill)
{
    System system(fastConfig(4));
    auto workload = syntheticWorkload(3, 10.0, 64, 8, 3);
    workload[1].generateTokens = 0;
    const auto report =
        system.serve(model::opt13b(), workload, fastServing(4));
    EXPECT_EQ(report.completed, 3u);
    for (const auto &request : report.requests) {
        if (request.id == 1) {
            EXPECT_EQ(request.tokens, 0u);
            EXPECT_GE(request.completed, request.admitted);
        }
    }
}

TEST(Serving, CompareServingRanksHermesAboveBase)
{
    System system(fastConfig(4));
    const auto workload = syntheticWorkload(8, 20.0, 64, 12, 3);
    const auto reports = system.compareServing(
        model::opt66b(), workload,
        {runtime::EngineKind::HermesBase,
         runtime::EngineKind::Hermes},
        fastServing(8));
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reports[0].engine, "Hermes-base");
    EXPECT_EQ(reports[1].engine, "Hermes");
    EXPECT_GT(reports[1].throughputTps, reports[0].throughputTps);
    EXPECT_LT(reports[1].p50TokenLatency,
              reports[0].p50TokenLatency);
}

TEST(Serving, LifecycleTimestampsAreOrderedForEveryRequest)
{
    // Property check across engines: arrival <= admitted <=
    // firstToken <= completed for everything served; rejected
    // requests carry no timestamps at all.
    System system(fastConfig(4));
    const auto workload = syntheticWorkload(10, 30.0, 64, 12, 5);
    ServingConfig config = fastServing(2);
    config.maxQueue = 4; // Force some rejections.
    for (const auto kind : {runtime::EngineKind::Hermes,
                            runtime::EngineKind::HermesBase,
                            runtime::EngineKind::FlexGen}) {
        config.engine = kind;
        const auto report =
            system.serve(model::opt13b(), workload, config);
        EXPECT_EQ(report.completed + report.rejected, 10u);
        for (const auto &request : report.requests) {
            if (request.rejected) {
                EXPECT_DOUBLE_EQ(request.admitted, 0.0);
                EXPECT_DOUBLE_EQ(request.firstToken, 0.0);
                EXPECT_DOUBLE_EQ(request.completed, 0.0);
                EXPECT_EQ(request.tokens, 0u);
            } else {
                EXPECT_LE(request.arrival, request.admitted);
                EXPECT_LE(request.admitted, request.firstToken);
                EXPECT_LE(request.firstToken, request.completed);
            }
        }
    }
}

TEST(Serving, RerunningTheSimulatorReproducesTheReport)
{
    System system(fastConfig(4));
    const auto workload = syntheticWorkload(8, 20.0, 64, 12, 3);
    const auto a =
        system.serve(model::opt13b(), workload, fastServing(4));
    const auto b =
        system.serve(model::opt13b(), workload, fastServing(4));
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_DOUBLE_EQ(a.throughputTps, b.throughputTps);
    EXPECT_DOUBLE_EQ(a.p99TokenLatency, b.p99TokenLatency);
    EXPECT_DOUBLE_EQ(a.p99Ttft, b.p99Ttft);
}

TEST(Serving, CostProbesAgreeWithServingPhysics)
{
    // The public probes (used by the fleet router) must answer from
    // the same cache the simulator itself fills.
    ServingConfig config = fastServing(4);
    ServingSimulator simulator(fastConfig(4), model::opt13b(),
                               config);
    EXPECT_FALSE(simulator.saturated());
    EXPECT_TRUE(simulator.servable(1, 64));
    EXPECT_GT(simulator.prefillSeconds(1, 64), 0.0);
    EXPECT_GT(simulator.tokenSeconds(4, 64), 0.0);
    // A 13B model at batch 4 fits comfortably: no fallback buckets.
    EXPECT_FALSE(simulator.saturated());
    // Larger context buckets never get cheaper per decode step.
    EXPECT_GE(simulator.tokenSeconds(4, 4096),
              simulator.tokenSeconds(4, 64));

    SystemConfig dead = fastConfig(4);
    dead.numDimms = 0;
    ServingSimulator unservable(dead, model::opt13b(), config);
    EXPECT_FALSE(unservable.servable(1, 64));
    EXPECT_DOUBLE_EQ(unservable.tokenSeconds(1, 64), 0.0);
}

TEST(Serving, CostSurfaceSharedAcrossSchedulingKnobs)
{
    // A cost-surface cell (row r = batch bucket 2^r, column c =
    // context bucket c) is a pure function of the system, model,
    // engine kind, calibrationTokens, seed and seqBucket.  maxBatch,
    // maxQueue and kvCapacityTokens only decide which cells a
    // simulator touches, so variants differing in those share one
    // surface instead of re-running the engine.
    const auto system = fastConfig(4);
    const auto llm = model::opt13b();
    ServingConfig base = fastServing(8);
    base.seqBucket = 64;
    ServingConfig variant = base;
    variant.maxBatch = 16;
    variant.maxQueue = base.maxQueue / 2;
    variant.kvCapacityTokens = 4096;

    // Fill rows 0-2 (batch buckets 1, 2, 4) of the reference.
    ServingSimulator reference(system, llm, base);
    const std::uint32_t batches[] = {1, 2, 4};
    const std::uint64_t seqs[] = {100, 1000, 2000, 3000};
    for (const std::uint32_t batch : batches)
        for (const std::uint64_t seq : seqs) {
            ASSERT_TRUE(reference.servable(batch, seq));
            reference.prefillSeconds(batch, seq);
            reference.tokenSeconds(batch, seq);
        }
    const std::uint64_t paid = reference.calibrationRuns();
    ASSERT_GT(paid, 0u);

    // The variant adopts the surface; an unshared twin of the
    // variant recomputes everything from scratch.
    ServingSimulator shared(system, llm, variant);
    ASSERT_TRUE(shared.shareCostsWith(reference));
    ServingSimulator twin(system, llm, variant);
    for (const std::uint32_t batch : batches)
        for (const std::uint64_t seq : seqs) {
            EXPECT_EQ(shared.prefillSeconds(batch, seq),
                      twin.prefillSeconds(batch, seq))
                << "prefill(" << batch << ", " << seq << ")";
            EXPECT_EQ(shared.tokenSeconds(batch, seq),
                      twin.tokenSeconds(batch, seq))
                << "token(" << batch << ", " << seq << ")";
        }
    // Cells the reference filled are hits: the surface ran nothing
    // more, while the twin paid for the grid again.
    EXPECT_EQ(shared.calibrationRuns(), paid);
    EXPECT_EQ(reference.calibrationRuns(), paid);
    EXPECT_GT(twin.calibrationRuns(), 0u);

    // The variant reaches a row the reference never probed (batch
    // bucket 8): one engine run, billed to the shared surface, and
    // the reference then hits it.
    EXPECT_EQ(shared.tokenSeconds(8, 1000), twin.tokenSeconds(8, 1000));
    EXPECT_EQ(shared.calibrationRuns(), paid + 1);
    EXPECT_EQ(reference.tokenSeconds(8, 1000),
              twin.tokenSeconds(8, 1000));
    EXPECT_EQ(reference.calibrationRuns(), paid + 1);

    // Any difference in what a cell is refuses to share, and the
    // refused simulator keeps its own, still empty, surface.
    const auto expect_refused = [&](ServingSimulator &other,
                                    const char *what) {
        EXPECT_FALSE(other.shareCostsWith(reference)) << what;
        EXPECT_EQ(other.calibrationRuns(), 0u) << what;
    };
    ServingConfig reseeded = variant;
    reseeded.seed = variant.seed + 1;
    ServingSimulator other_seed(system, llm, reseeded);
    expect_refused(other_seed, "seed");

    ServingConfig recalibrated = variant;
    recalibrated.calibrationTokens = variant.calibrationTokens + 2;
    ServingSimulator other_tokens(system, llm, recalibrated);
    expect_refused(other_tokens, "calibrationTokens");

    ServingSimulator other_system(fastConfig(2), llm, variant);
    expect_refused(other_system, "system");

    ServingConfig other_kind = variant;
    other_kind.engine = runtime::EngineKind::HermesBase;
    ServingSimulator other_engine(system, llm, other_kind);
    expect_refused(other_engine, "engine");

    ServingConfig rebucketed = variant;
    rebucketed.seqBucket = variant.seqBucket * 2;
    ServingSimulator other_bucket(system, llm, rebucketed);
    expect_refused(other_bucket, "seqBucket");
}

TEST(Serving, StepwiseSessionMatchesClosedRun)
{
    // The closed run() is one driver of the stepwise session
    // protocol; an event-style driver — deliveries interleaved
    // with step completions on a virtual clock, exactly how the
    // fleet kernel drives a replica — must produce the identical
    // report.
    auto trace = syntheticWorkload(12, 25.0, 64, 12, 5);
    sortByArrival(trace);

    ServingSimulator stepwise(fastConfig(4), model::opt13b(),
                              fastServing(4));
    stepwise.beginSession();
    std::size_t next = 0;
    const std::size_t n = trace.size();
    StepAction action{StepKind::Idle, 0.0};
    for (;;) {
        if (stepwise.busy()) {
            // Deliver every arrival due before the in-flight work
            // completes, then take the boundary.
            while (next < n &&
                   trace[next].arrival <= action.until) {
                stepwise.deliver(trace[next]);
                ++next;
            }
            stepwise.completeWork();
            action = stepwise.startNextWork(stepwise.clock());
        } else if (next < n) {
            const Seconds now = trace[next].arrival;
            while (next < n && trace[next].arrival <= now) {
                stepwise.deliver(trace[next]);
                ++next;
            }
            action = stepwise.startNextWork(now);
        } else {
            break;
        }
    }
    const ServingReport a = stepwise.finishSession();

    ServingSimulator closed(fastConfig(4), model::opt13b(),
                            fastServing(4));
    const ServingReport b = closed.run(trace);

    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.peakBatch, b.peakBatch);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_DOUBLE_EQ(a.throughputTps, b.throughputTps);
    EXPECT_DOUBLE_EQ(a.meanBatchOccupancy, b.meanBatchOccupancy);
    EXPECT_DOUBLE_EQ(a.p99TokenLatency, b.p99TokenLatency);
    EXPECT_DOUBLE_EQ(a.p50Ttft, b.p50Ttft);
    EXPECT_DOUBLE_EQ(a.p99Ttft, b.p99Ttft);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].id, b.requests[i].id);
        EXPECT_EQ(a.requests[i].tokens, b.requests[i].tokens);
        EXPECT_DOUBLE_EQ(a.requests[i].admitted,
                         b.requests[i].admitted);
        EXPECT_DOUBLE_EQ(a.requests[i].firstToken,
                         b.requests[i].firstToken);
        EXPECT_DOUBLE_EQ(a.requests[i].completed,
                         b.requests[i].completed);
    }
}

TEST(Serving, SessionObservedStateAndStealing)
{
    // The ground truth the feedback router and the stealing hook
    // consume: outstanding/queued counts track the session, and a
    // stolen request vanishes from this replica's report.
    ServingSimulator simulator(fastConfig(4), model::opt13b(),
                               fastServing(2));
    simulator.beginSession();
    EXPECT_EQ(simulator.observedOutstanding(), 0u);
    EXPECT_FALSE(simulator.knownServable());

    auto trace = syntheticWorkload(5, 0.0, 64, 8, 3); // One burst.
    for (const auto &request : trace)
        simulator.deliver(request);
    EXPECT_EQ(simulator.observedOutstanding(), 5u);
    EXPECT_EQ(simulator.queuedCount(), 5u);
    EXPECT_DOUBLE_EQ(simulator.observedBacklogTokens(), 5.0 * 8);

    // First boundary: probe passes, 2 slots admitted, 3 queued.
    const StepAction action = simulator.startNextWork(0.0);
    EXPECT_EQ(action.kind, StepKind::Prefill);
    EXPECT_TRUE(simulator.knownServable());
    EXPECT_EQ(simulator.observedOutstanding(), 5u);
    EXPECT_EQ(simulator.queuedCount(), 3u);

    // Steal two of the queued: newest arrivals (ids 3, 4) go.
    const auto stolen = simulator.stealQueued(2);
    ASSERT_EQ(stolen.size(), 2u);
    EXPECT_EQ(stolen[0].id, 3u);
    EXPECT_EQ(stolen[1].id, 4u);
    EXPECT_EQ(simulator.queuedCount(), 1u);

    // Drain; the report covers only the five minus two stolen.
    for (;;) {
        if (simulator.busy())
            simulator.completeWork();
        if (simulator.startNextWork(simulator.clock()).kind ==
            StepKind::Idle)
            break;
    }
    const ServingReport report = simulator.finishSession();
    EXPECT_EQ(report.requests.size(), 3u);
    EXPECT_EQ(report.completed, 3u);
    EXPECT_EQ(report.rejected, 0u);
    for (const auto &request : report.requests)
        EXPECT_NE(request.id, 3u);
}

TEST(Serving, PriorityJumpsTheAdmissionQueue)
{
    // Five simultaneous arrivals on one slot; id 3 is high
    // priority.  FIFO would serve 0,1,2,3,4; priority-aware
    // admission serves 0 (already admitted when 3 is observed at
    // the same boundary... all are observed together, so the first
    // pick is the high-priority one), then FIFO among the rest.
    auto trace = syntheticWorkload(5, 0.0, 64, 4, 3);
    trace[3].priority = 2;
    ServingSimulator simulator(fastConfig(4), model::opt13b(),
                               fastServing(1));
    const ServingReport report = simulator.run(trace);
    EXPECT_EQ(report.completed, 5u);
    Seconds admitted3 = 0.0;
    for (const auto &request : report.requests) {
        if (request.id == 3) {
            admitted3 = request.admitted;
            EXPECT_EQ(request.priority, 2u);
        }
    }
    for (const auto &request : report.requests) {
        if (request.id != 3) {
            EXPECT_GT(request.admitted, admitted3);
        }
    }
}

TEST(Serving, AllDefaultPrioritiesReproduceFifoAdmission)
{
    // The priority-aware admission must be invisible on a
    // default-priority trace: FIFO order, bit-identical times.
    auto trace = syntheticWorkload(8, 30.0, 64, 8, 5);
    ServingSimulator simulator(fastConfig(4), model::opt13b(),
                               fastServing(2));
    const ServingReport report = simulator.run(trace);
    EXPECT_EQ(report.completed, 8u);
    for (std::size_t i = 1; i < report.requests.size(); ++i)
        EXPECT_LE(report.requests[i - 1].admitted,
                  report.requests[i].admitted);
}

TEST(Serving, PreemptReturnsStateAndResumesLocallyForFree)
{
    // One slot, two requests: preempt the running one mid-flight,
    // requeue it locally with its KV cached — it must complete with
    // its original TTFT and all tokens accounted exactly once.
    std::vector<ServedRequest> trace(2);
    trace[0] = ServedRequest{0, 0.0, 64, 12, 0};
    trace[1] = ServedRequest{1, 0.0, 64, 4, 0};

    ServingSimulator simulator(fastConfig(4), model::opt13b(),
                               fastServing(1));
    simulator.beginSession();
    for (const auto &request : trace)
        simulator.deliver(request);

    // Admit request 0 (FIFO) and decode a few steps.
    StepAction action = simulator.startNextWork(0.0);
    ASSERT_EQ(action.kind, StepKind::Prefill);
    simulator.completeWork();
    EXPECT_EQ(simulator.stateOf(0), RequestState::Running);
    EXPECT_EQ(simulator.stateOf(1), RequestState::Queued);
    for (int step = 0; step < 3; ++step) {
        action = simulator.startNextWork(simulator.clock());
        ASSERT_EQ(action.kind, StepKind::Decode);
        simulator.completeWork();
    }
    const std::uint32_t tokens_so_far =
        simulator.runningInfos().front().tokensGenerated;
    EXPECT_EQ(tokens_so_far, 4u); // Prefill token + 3 decode steps.

    // Queued / unknown ids cannot be preempted.
    EXPECT_THROW(simulator.preempt(1), std::logic_error);
    EXPECT_THROW(simulator.preempt(99), std::logic_error);

    const ResumableRequest resumed = simulator.preempt(0);
    EXPECT_EQ(resumed.request.id, 0u);
    EXPECT_EQ(resumed.tokensGenerated, 4u);
    EXPECT_EQ(resumed.contextLength(), 64u + 4u);
    EXPECT_EQ(resumed.preemptions, 1u);
    EXPECT_GT(resumed.firstToken, 0.0);
    EXPECT_EQ(simulator.stateOf(0), RequestState::Preempted);

    // Resume locally with the KV retained: free re-admission.
    simulator.deliverResumed(resumed, simulator.clock(),
                             resumed.contextLength());
    EXPECT_EQ(simulator.stateOf(0), RequestState::Queued);
    for (;;) {
        if (simulator.busy())
            simulator.completeWork();
        if (simulator.startNextWork(simulator.clock()).kind ==
            StepKind::Idle)
            break;
    }
    const ServingReport report = simulator.finishSession();
    EXPECT_EQ(simulator.stateOf(0), RequestState::Done);
    EXPECT_EQ(report.completed, 2u);
    ASSERT_EQ(report.requests.size(), 2u); // Old entry excluded.
    for (const auto &request : report.requests) {
        if (request.id != 0)
            continue;
        EXPECT_EQ(request.tokens, 12u);
        EXPECT_EQ(request.preemptions, 1u);
        EXPECT_DOUBLE_EQ(request.firstToken, resumed.firstToken);
        EXPECT_DOUBLE_EQ(request.admitted, resumed.admitted);
        EXPECT_GT(request.completed, resumed.firstToken);
    }
}

TEST(Serving, RequeuedPreemptionBypassesTheAdmissionCap)
{
    // maxQueue 0: fresh overflow is rejected, but a preempted
    // request held queue capacity once already — its requeue must
    // never be dropped.
    ServingConfig config = fastServing(1);
    config.maxQueue = 0;
    ServingSimulator simulator(fastConfig(4), model::opt13b(),
                               config);
    simulator.beginSession();
    simulator.deliver(ServedRequest{0, 0.0, 64, 8, 0});
    simulator.startNextWork(0.0);
    simulator.completeWork(); // Request 0 running.
    // A fresh arrival lands, then request 0 is preempted and
    // requeued behind it: at the next boundary the fresh arrival
    // takes the one slot's worth of capacity, and without the
    // bypass the requeued request would be dropped.
    simulator.deliver(
        ServedRequest{1, simulator.clock(), 64, 8, 0});
    const ResumableRequest resumed = simulator.preempt(0);
    simulator.deliverResumed(resumed, simulator.clock(),
                             resumed.contextLength());
    for (;;) {
        if (simulator.busy())
            simulator.completeWork();
        if (simulator.startNextWork(simulator.clock()).kind ==
            StepKind::Idle)
            break;
    }
    const ServingReport report = simulator.finishSession();
    EXPECT_EQ(report.completed, 2u);
    EXPECT_EQ(report.rejected, 0u);
    for (const auto &request : report.requests)
        EXPECT_EQ(request.tokens, 8u);
}

TEST(Serving, ColdResumePaysTheUncachedSuffixPrefill)
{
    // The same preempted request resumed on a fresh replica: with
    // the KV transferred (cached == context) rejoining is free;
    // cold (cached == 0) it must re-prefill the whole context and
    // finish strictly later.
    std::vector<ServedRequest> trace(1);
    trace[0] = ServedRequest{0, 0.0, 512, 16, 0};

    const auto preempt_after = [&](int steps) {
        auto simulator = std::make_unique<ServingSimulator>(
            fastConfig(4), model::opt13b(), fastServing(1));
        simulator->beginSession();
        simulator->deliver(trace[0]);
        simulator->startNextWork(0.0);
        simulator->completeWork();
        for (int s = 0; s < steps; ++s) {
            simulator->startNextWork(simulator->clock());
            simulator->completeWork();
        }
        return simulator->preempt(0);
    };

    const auto drain_from = [&](const ResumableRequest &resumed,
                                std::uint64_t cached) {
        ServingSimulator simulator(fastConfig(4), model::opt13b(),
                                   fastServing(1));
        simulator.beginSession();
        simulator.deliverResumed(resumed, 1.0, cached);
        for (;;) {
            if (simulator.busy())
                simulator.completeWork();
            StepAction action =
                simulator.startNextWork(simulator.clock());
            if (action.kind == StepKind::WaitArrival)
                action = simulator.startNextWork(action.until);
            if (action.kind == StepKind::Idle)
                break;
        }
        return simulator.finishSession();
    };

    const ResumableRequest resumed = preempt_after(7);
    const ServingReport warm =
        drain_from(resumed, resumed.contextLength());
    const ServingReport cold = drain_from(resumed, 0);
    ASSERT_EQ(warm.completed, 1u);
    ASSERT_EQ(cold.completed, 1u);
    EXPECT_EQ(warm.requests[0].tokens, 16u);
    EXPECT_EQ(cold.requests[0].tokens, 16u);
    // Identical decode work, but cold pays a ~512-token re-prefill.
    EXPECT_LT(warm.requests[0].completed,
              cold.requests[0].completed);
    // TTFT is history on both: the first token was emitted before
    // the preemption and the timestamp travels with the request.
    EXPECT_DOUBLE_EQ(warm.requests[0].firstToken,
                     resumed.firstToken);
    EXPECT_DOUBLE_EQ(cold.requests[0].firstToken,
                     resumed.firstToken);
}

namespace {

/** Serve everything a replica holds, back to idle. */
void
drainReplica(ServingSimulator &simulator)
{
    for (;;) {
        if (simulator.busy())
            simulator.completeWork();
        if (simulator.startNextWork(simulator.clock()).kind ==
            StepKind::Idle)
            break;
    }
}

/** A one-turn session request (sessionId 0 marks no session). */
ServedRequest
sessionRequest(std::uint64_t id, std::uint64_t session,
               std::uint32_t prompt, std::uint32_t generate)
{
    ServedRequest request{id, 0.0, prompt, generate, 0};
    request.sessionId = session;
    return request;
}

} // namespace

TEST(Serving, SessionKvResidencyTracksRetirementAndLru)
{
    ServingSimulator simulator(fastConfig(4), model::opt13b(),
                               fastServing(1));
    simulator.beginSession();
    EXPECT_EQ(simulator.cachedSessionTokens(1), 0u);

    simulator.deliver(sessionRequest(0, 1, 256, 8));
    drainReplica(simulator);
    // The retired turn's whole context stays resident for its
    // session (prompt plus everything generated).
    const std::uint64_t resident = simulator.cachedSessionTokens(1);
    EXPECT_GE(resident, 256u);

    simulator.deliver(sessionRequest(1, 2, 256, 8));
    drainReplica(simulator);
    // Both sessions stay resident (their LRU order is pinned by
    // KvEvictionUnderMemoryPressureForcesRePrefill).
    EXPECT_EQ(simulator.cachedSessionTokens(1), resident);
    EXPECT_GE(simulator.cachedSessionTokens(2), 256u);

    // A follow-up turn consumes its session's residency at
    // admission (the entry is pinned in use), then re-caches the
    // grown context at retirement.
    simulator.deliver(sessionRequest(2, 1, 300, 8));
    simulator.startNextWork(simulator.clock());
    EXPECT_EQ(simulator.cachedSessionTokens(1), 0u);
    drainReplica(simulator);
    EXPECT_GT(simulator.cachedSessionTokens(1), resident);

    const ServingReport report = simulator.finishSession();
    EXPECT_EQ(report.completed, 3u);
}

TEST(Serving, KvEvictionUnderMemoryPressureForcesRePrefill)
{
    // Two sessions against a KV budget that holds only one
    // context: serving session 2 evicts session 1's residency
    // (LRU), so session 1's follow-up re-prefills its whole prompt
    // and finishes strictly later than with an unlimited budget.
    const auto follow_up_completed =
        [](std::uint64_t capacity_tokens) {
            ServingConfig config = fastServing(1);
            config.kvCapacityTokens = capacity_tokens;
            // Fine-grained cost buckets: the default 512-token
            // bucket would price a 64-token and a 328-token prefill
            // identically, hiding the re-prefill cost this test
            // pins.
            config.seqBucket = 64;
            ServingSimulator simulator(fastConfig(4),
                                       model::opt13b(), config);
            simulator.beginSession();
            simulator.deliver(sessionRequest(0, 1, 256, 8));
            drainReplica(simulator);
            simulator.deliver(sessionRequest(1, 2, 256, 8));
            drainReplica(simulator);
            if (capacity_tokens != 0) {
                // Session 2's retirement pushed session 1 out.
                EXPECT_EQ(simulator.cachedSessionTokens(1), 0u);
                EXPECT_GT(simulator.cachedSessionTokens(2), 0u);
            } else {
                EXPECT_GT(simulator.cachedSessionTokens(1), 0u);
            }
            // Session 1's follow-up: history (256 + 8) + fresh
            // message.
            simulator.deliver(sessionRequest(2, 1, 328, 8));
            drainReplica(simulator);
            const ServingReport report = simulator.finishSession();
            EXPECT_EQ(report.completed, 3u);
            for (const auto &request : report.requests) {
                if (request.id == 2)
                    return request.completed;
            }
            ADD_FAILURE() << "follow-up turn missing from report";
            return 0.0;
        };

    const Seconds warm = follow_up_completed(0);   // Unlimited.
    const Seconds cold = follow_up_completed(300); // One context.
    // Identical arrivals and decode work; the evicted run re-pays
    // the ~328-token prompt prefill the resident run skipped.
    EXPECT_LT(warm, cold);
}

namespace {

/**
 * A resumed request with tokensGenerated == 0: queued work taken
 * off a replica (takeQueued — the migrate verb's source for queued
 * requests) before it ever prefilled.  deliverResumed explicitly
 * allows this shape; the regression tests below pin that it is
 * treated as *resumed* (never shed at requeue, never stolen as a
 * plain request), not misclassified as fresh.
 */
ResumableRequest
zeroTokenResumable()
{
    ServingSimulator source(fastConfig(4), model::opt13b(),
                            fastServing(1));
    source.beginSession();
    source.deliver(ServedRequest{0, 0.0, 64, 8, 0});
    source.deliver(ServedRequest{1, 0.0, 64, 8, 0});
    source.startNextWork(0.0); // Admits 0; 1 stays queued.
    ResumableRequest moved = source.takeQueued(1);
    ++moved.migrations; // What the fleet's migrate verb records.
    return moved;
}

} // namespace

TEST(Serving, ZeroTokenResumedEntrySurvivesRequeueOverflow)
{
    const ResumableRequest moved = zeroTokenResumable();
    ASSERT_EQ(moved.tokensGenerated, 0u);

    // Destination under admission pressure: one slot, zero queue.
    // A fresh arrival past capacity is rejected; the resumed entry
    // held queue capacity once already and must never be.
    ServingConfig tight = fastServing(1);
    tight.maxQueue = 0;
    ServingSimulator replica(fastConfig(4), model::opt13b(),
                             tight);
    replica.beginSession();
    replica.deliver(ServedRequest{2, 0.0, 64, 8, 0});
    replica.startNextWork(0.0);
    replica.completeWork(); // Request 2 running.

    replica.deliver(ServedRequest{3, replica.clock(), 64, 8, 0});
    replica.deliverResumed(moved, replica.clock(), 0);
    for (;;) {
        if (replica.busy())
            replica.completeWork();
        if (replica.startNextWork(replica.clock()).kind ==
            StepKind::Idle)
            break;
    }
    const ServingReport report = replica.finishSession();
    // The fresh overflow (id 3) is shed; the zero-token resumed
    // entry (id 1) is not, and completes with all its tokens.
    EXPECT_EQ(report.completed, 2u);
    EXPECT_EQ(report.rejected, 1u);
    for (const auto &request : report.requests) {
        if (request.id == 1) {
            EXPECT_FALSE(request.rejected);
            EXPECT_EQ(request.tokens, 8u);
            EXPECT_EQ(request.migrations, 1u);
        }
        if (request.id == 3) {
            EXPECT_TRUE(request.rejected);
        }
    }
}

TEST(Serving, ZeroTokenResumedEntryIsNeverStolenWithoutItsKv)
{
    const ResumableRequest moved = zeroTokenResumable();

    ServingSimulator replica(fastConfig(4), model::opt13b(),
                             fastServing(1));
    replica.beginSession();
    replica.deliverResumed(moved, 0.0, 0);

    // stealQueued moves plain ServedRequests and drops resume
    // state; a resumed entry — zero-token included — must be
    // skipped.  (Use the migrate verb to move it with its KV.)
    const auto stolen = replica.stealQueued(4);
    EXPECT_TRUE(stolen.empty());

    // The migrate path round-trips it with counters intact and the
    // backlog counter returning exactly to zero (no wrap).
    const ResumableRequest again =
        replica.takeQueued(moved.request.id);
    EXPECT_EQ(again.tokensGenerated, 0u);
    EXPECT_EQ(again.migrations, 1u);
    EXPECT_DOUBLE_EQ(replica.observedBacklogTokens(), 0.0);

    ServingSimulator destination(fastConfig(4), model::opt13b(),
                                 fastServing(1));
    destination.beginSession();
    destination.deliverResumed(again, 0.0, 0);
    for (;;) {
        if (destination.busy())
            destination.completeWork();
        if (destination.startNextWork(destination.clock()).kind ==
            StepKind::Idle)
            break;
    }
    const ServingReport report = destination.finishSession();
    ASSERT_EQ(report.completed, 1u);
    EXPECT_EQ(report.requests.size(), 1u);
    EXPECT_EQ(report.requests[0].tokens, 8u);
    EXPECT_EQ(report.requests[0].migrations, 1u);
}

TEST(Serving, DegeneratePolicyValuesAreGuarded)
{
    System system(fastConfig(4));
    const auto workload = syntheticWorkload(3, 10.0, 64, 8, 3);
    ServingConfig config;
    config.maxBatch = 0;          // Clamped to 1.
    config.calibrationTokens = 0; // Clamped to 1.
    config.seqBucket = 0;         // Clamped to 1.
    const auto report =
        system.serve(model::opt13b(), workload, config);
    EXPECT_EQ(report.completed, 3u);
    EXPECT_EQ(report.peakBatch, 1u);
}

} // namespace
} // namespace hermes::serving
