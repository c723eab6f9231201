/**
 * @file
 * Workload scenario generator tests: determinism, every arrival
 * process, CSV replay, and the edge cases that bite in production
 * (zero-rate bursts, single requests, bursts past the admission
 * queue, bucket-boundary context lengths).
 */

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/hermes.hh"
#include "core/workload.hh"

namespace hermes::serving {
namespace {

ScenarioConfig
smallScenario(ArrivalProcess process, std::uint32_t requests,
              double rate)
{
    ScenarioConfig scenario;
    scenario.process = process;
    scenario.requests = requests;
    scenario.ratePerSecond = rate;
    scenario.prompt = {64, 16, 0.0, 1.0};
    scenario.generate = {8, 4, 0.0, 1.0};
    scenario.seed = 21;
    return scenario;
}

TEST(Workload, EveryProcessIsDeterministicAndSorted)
{
    for (const ArrivalProcess process :
         {ArrivalProcess::Poisson, ArrivalProcess::Bursty,
          ArrivalProcess::Diurnal}) {
        const auto scenario = smallScenario(process, 32, 4.0);
        const auto a = generateWorkload(scenario);
        const auto b = generateWorkload(scenario);
        ASSERT_EQ(a.size(), 32u)
            << arrivalProcessName(process);
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
            EXPECT_EQ(a[i].promptTokens, b[i].promptTokens);
            EXPECT_EQ(a[i].generateTokens, b[i].generateTokens);
            EXPECT_EQ(a[i].id, i);
            EXPECT_GE(a[i].promptTokens, 1u);
            if (i > 0) {
                EXPECT_GE(a[i].arrival, a[i - 1].arrival);
            }
        }
    }
}

TEST(Workload, DifferentSeedsDifferentTraces)
{
    auto scenario = smallScenario(ArrivalProcess::Poisson, 16, 4.0);
    const auto a = generateWorkload(scenario);
    scenario.seed = 22;
    const auto b = generateWorkload(scenario);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differs |= a[i].arrival != b[i].arrival;
    EXPECT_TRUE(differs);
}

TEST(Workload, BurstyHasHigherInterArrivalVariance)
{
    const auto poisson = generateWorkload(
        smallScenario(ArrivalProcess::Poisson, 512, 4.0));
    const auto bursty = generateWorkload(
        smallScenario(ArrivalProcess::Bursty, 512, 4.0));
    auto cv2 = [](const std::vector<ServedRequest> &trace) {
        double sum = 0.0;
        double sq = 0.0;
        const auto n = static_cast<double>(trace.size() - 1);
        for (std::size_t i = 1; i < trace.size(); ++i) {
            const double gap =
                trace[i].arrival - trace[i - 1].arrival;
            sum += gap;
            sq += gap * gap;
        }
        const double mean = sum / n;
        return (sq / n - mean * mean) / (mean * mean);
    };
    EXPECT_GT(cv2(bursty), 2.0 * cv2(poisson));
}

TEST(Workload, ZeroRateCollapsesToOneBurst)
{
    const auto trace = generateWorkload(
        smallScenario(ArrivalProcess::Poisson, 8, 0.0));
    ASSERT_EQ(trace.size(), 8u);
    for (const ServedRequest &request : trace)
        EXPECT_DOUBLE_EQ(request.arrival, 0.0);
}

TEST(Workload, SingleAndZeroRequestTraces)
{
    const auto one = generateWorkload(
        smallScenario(ArrivalProcess::Bursty, 1, 4.0));
    ASSERT_EQ(one.size(), 1u);
    EXPECT_DOUBLE_EQ(one[0].arrival, 0.0);
    const auto none = generateWorkload(
        smallScenario(ArrivalProcess::Diurnal, 0, 4.0));
    EXPECT_TRUE(none.empty());
}

TEST(Workload, LengthDistributionRespectsBoundsAndTail)
{
    Rng rng(5);
    const LengthDistribution plain{100, 20, 0.0, 1.0};
    for (int i = 0; i < 256; ++i) {
        const std::uint32_t tokens = plain.sample(rng);
        EXPECT_GE(tokens, 80u);
        EXPECT_LE(tokens, 120u);
    }
    const LengthDistribution tailed{100, 0, 1.0, 3.0};
    EXPECT_EQ(tailed.sample(rng), 300u);
    const LengthDistribution tiny{1, 16, 0.0, 1.0};
    for (int i = 0; i < 256; ++i)
        EXPECT_GE(tiny.sample(rng), 1u);
}

TEST(Workload, CsvRoundTripPreservesTrace)
{
    const auto trace = generateWorkload(
        smallScenario(ArrivalProcess::Bursty, 12, 4.0));
    const auto replayed = parseCsvTrace(toCsvTrace(trace));
    ASSERT_EQ(replayed.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_DOUBLE_EQ(replayed[i].arrival, trace[i].arrival);
        EXPECT_EQ(replayed[i].promptTokens,
                  trace[i].promptTokens);
        EXPECT_EQ(replayed[i].generateTokens,
                  trace[i].generateTokens);
    }
}

TEST(Workload, CsvParserSortsSkipsAndRejects)
{
    const auto trace = parseCsvTrace("# comment\n"
                                     "\n"
                                     "2.5, 64, 8\n"
                                     "0.5, 32, 4\n");
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_DOUBLE_EQ(trace[0].arrival, 0.5);
    EXPECT_EQ(trace[0].id, 0u);
    EXPECT_EQ(trace[1].promptTokens, 64u);

    EXPECT_THROW(parseCsvTrace("1.0 64 8\n"),
                 std::invalid_argument);
    EXPECT_THROW(parseCsvTrace("-1.0,64,8\n"),
                 std::invalid_argument);
    EXPECT_THROW(parseCsvTrace("1.0,0,8\n"),
                 std::invalid_argument);
    EXPECT_THROW(parseCsvTrace("bogus,64,8\n"),
                 std::invalid_argument);
    // Trailing garbage and out-of-range token counts must be loud,
    // not silently dropped or wrapped.
    EXPECT_THROW(parseCsvTrace("1.0,64,8junk\n"),
                 std::invalid_argument);
    EXPECT_THROW(parseCsvTrace("1.0,5000000000,8\n"),
                 std::invalid_argument);
}

TEST(Workload, CsvPriorityColumnRoundTripsWithLegacyDefault)
{
    // Old three-column rows parse with the default priority 0; the
    // optional fourth column carries it explicitly.
    const auto trace = parseCsvTrace("0.5, 32, 4\n"
                                     "1.5, 64, 8, 2\n");
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].priority, 0u);
    EXPECT_EQ(trace[1].priority, 2u);

    // A prioritized trace serializes with the column and survives
    // the round trip; an all-default trace keeps the legacy
    // three-column form old parsers accept.
    const std::string csv = toCsvTrace(trace);
    EXPECT_NE(csv.find("priority"), std::string::npos);
    const auto replayed = parseCsvTrace(csv);
    ASSERT_EQ(replayed.size(), 2u);
    EXPECT_EQ(replayed[0].priority, 0u);
    EXPECT_EQ(replayed[1].priority, 2u);

    auto plain = trace;
    plain[1].priority = 0;
    const std::string legacy = toCsvTrace(plain);
    EXPECT_EQ(legacy.find("priority"), std::string::npos);
    EXPECT_EQ(parseCsvTrace(legacy).size(), 2u);

    // A malformed fourth column is loud, like every other field.
    EXPECT_THROW(parseCsvTrace("1.0,64,8,\n"),
                 std::invalid_argument);
    EXPECT_THROW(parseCsvTrace("1.0,64,8,low\n"),
                 std::invalid_argument);
    EXPECT_THROW(parseCsvTrace("1.0,64,8,-1\n"),
                 std::invalid_argument);
    EXPECT_THROW(parseCsvTrace("1.0,64,8,1,junk\n"),
                 std::invalid_argument);
    EXPECT_THROW(parseCsvTrace("1.0,64,8,5000000000\n"),
                 std::invalid_argument);
}

TEST(Workload, PriorityStreamIsIndependentAndDeterministic)
{
    // Turning priorities on must not shift arrivals or lengths
    // (dedicated RNG stream), and the high-priority fraction is
    // reproducible for a seed.
    ScenarioConfig plain =
        smallScenario(ArrivalProcess::Bursty, 32, 4.0);
    ScenarioConfig prioritized = plain;
    prioritized.highPriorityFraction = 0.3;
    prioritized.highPriority = 7;

    const auto a = generateWorkload(plain);
    const auto b = generateWorkload(prioritized);
    const auto c = generateWorkload(prioritized);
    ASSERT_EQ(a.size(), b.size());
    std::size_t high = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].promptTokens, b[i].promptTokens);
        EXPECT_EQ(a[i].generateTokens, b[i].generateTokens);
        EXPECT_EQ(a[i].priority, 0u);
        EXPECT_TRUE(b[i].priority == 0 || b[i].priority == 7);
        EXPECT_EQ(b[i].priority, c[i].priority);
        high += b[i].priority != 0 ? 1 : 0;
    }
    EXPECT_GT(high, 0u);
    EXPECT_LT(high, a.size());
}

TEST(Workload, ScenarioByNameCoversStandardSetOnly)
{
    const auto set = standardScenarios(16, 2.0, 3);
    ASSERT_EQ(set.size(), 3u);
    EXPECT_EQ(set[0].name, "steady");
    EXPECT_EQ(set[1].name, "bursty");
    EXPECT_EQ(set[2].name, "diurnal");
    EXPECT_THROW(scenarioByName("lunar", 16, 2.0, 3),
                 std::invalid_argument);
    // The conversational scenario lives beside the standard sweep
    // (consumed through generateSessionWorkload, so it is not part
    // of the open-loop set).
    EXPECT_EQ(scenarioByName("multiturn", 16, 2.0, 3).name,
              "multiturn");
}

TEST(Workload, SessionGeneratorIsDeterministicAndWellFormed)
{
    ScenarioConfig scenario =
        smallScenario(ArrivalProcess::Poisson, 12, 2.0);
    scenario.turns = {3, 2, 0.0, 1.0}; // 1..5 turns per session.
    scenario.thinkMeanSeconds = 1.5;
    scenario.thinkSpreadSeconds = 0.5;

    const SessionTrace a = generateSessionWorkload(scenario);
    const SessionTrace b = generateSessionWorkload(scenario);
    ASSERT_EQ(a.turns.size(), b.turns.size());

    std::size_t sessions = 0;
    std::size_t multi_turn = 0;
    for (std::size_t i = 0; i < a.turns.size(); ++i) {
        const SessionTurn &turn = a.turns[i];
        // Bit-identical across runs of the same config + seed.
        EXPECT_DOUBLE_EQ(turn.request.arrival,
                         b.turns[i].request.arrival);
        EXPECT_EQ(turn.request.promptTokens,
                  b.turns[i].request.promptTokens);
        EXPECT_EQ(turn.request.generateTokens,
                  b.turns[i].request.generateTokens);
        EXPECT_EQ(turn.request.sessionId, b.turns[i].request.sessionId);
        EXPECT_EQ(turn.turn, b.turns[i].turn);
        EXPECT_EQ(turn.successor, b.turns[i].successor);
        EXPECT_DOUBLE_EQ(turn.thinkAfter, b.turns[i].thinkAfter);

        // Structure: dense ids, session ids from 1, chained
        // successors, nonnegative think gaps (0 on last turns).
        EXPECT_EQ(turn.request.id, i);
        EXPECT_GE(turn.request.sessionId, 1u);
        if (turn.turn == 0)
            ++sessions;
        else
            ++multi_turn;
        if (turn.successor >= 0) {
            const auto next =
                static_cast<std::size_t>(turn.successor);
            ASSERT_EQ(next, i + 1);
            const SessionTurn &follow = a.turns[next];
            EXPECT_EQ(follow.turn, turn.turn + 1);
            EXPECT_EQ(follow.request.sessionId,
                      turn.request.sessionId);
            EXPECT_GE(turn.thinkAfter, 0.0);
            // Context grows with the conversation: the follow-up
            // prompt replays the whole history plus a fresh
            // message.
            EXPECT_GT(follow.request.promptTokens,
                      turn.request.promptTokens +
                          turn.request.generateTokens);
        } else {
            EXPECT_DOUBLE_EQ(turn.thinkAfter, 0.0);
        }
    }
    EXPECT_EQ(sessions, 12u);
    EXPECT_GT(multi_turn, 0u); // Mean 3 turns: follow-ups exist.

    // First turns arrive in nondecreasing order (the fleet kernel
    // preloads them as a presorted stream).
    Seconds last_start = 0.0;
    for (const SessionTurn &turn : a.turns) {
        if (turn.turn != 0)
            continue;
        EXPECT_GE(turn.request.arrival, last_start);
        last_start = turn.request.arrival;
    }

    // A different seed moves the trace.
    scenario.seed = 22;
    const SessionTrace c = generateSessionWorkload(scenario);
    bool differs = c.turns.size() != a.turns.size();
    for (std::size_t i = 0; !differs && i < a.turns.size(); ++i)
        differs |= a.turns[i].request.arrival !=
                       c.turns[i].request.arrival ||
                   a.turns[i].request.promptTokens !=
                       c.turns[i].request.promptTokens;
    EXPECT_TRUE(differs);
}

TEST(Workload, MultiturnScenarioCountsSessionsNotTurns)
{
    const auto scenario = scenarioByName("multiturn", 8, 2.0, 7);
    const SessionTrace trace = generateSessionWorkload(scenario);

    std::size_t sessions = 0;
    for (const SessionTurn &turn : trace.turns) {
        if (turn.turn == 0)
            ++sessions;
        if (turn.successor < 0) {
            // 2-6 turns per conversation, per the scenario doc.
            EXPECT_GE(turn.turn + 1, 2u);
            EXPECT_LE(turn.turn + 1, 6u);
        }
    }
    EXPECT_EQ(sessions, 8u); // `requests` counts sessions here.
    EXPECT_GT(trace.turns.size(), 8u);
}

TEST(Workload, BurstPastQueueLimitAccountsEveryRequest)
{
    // Zero-rate scenario: 20 simultaneous arrivals against 2 batch
    // slots + 3 queue spots.  Every request must end up either
    // completed or rejected — nothing lost, nothing double-counted.
    auto scenario = smallScenario(ArrivalProcess::Poisson, 20, 0.0);
    scenario.generate = {4, 0, 0.0, 1.0};
    const auto trace = generateWorkload(scenario);

    System system(fastConfig(4));
    ServingConfig config;
    config.maxBatch = 2;
    config.maxQueue = 3;
    config.calibrationTokens = 4;
    const auto report =
        system.serve(model::opt13b(), trace, config);
    EXPECT_EQ(report.completed + report.rejected, 20u);
    EXPECT_EQ(report.completed, 5u); // 2 slots + 3 queued.
    EXPECT_EQ(report.rejected, 15u);
    for (const auto &request : report.requests) {
        if (request.rejected) {
            EXPECT_DOUBLE_EQ(request.admitted, 0.0);
            EXPECT_DOUBLE_EQ(request.firstToken, 0.0);
            EXPECT_DOUBLE_EQ(request.completed, 0.0);
            EXPECT_EQ(request.tokens, 0u);
        }
    }
}

TEST(Workload, BucketBoundaryContextLengthsServeCleanly)
{
    // Prompts straddling a cost-cache bucket edge must all serve,
    // and a longer prompt must never land in a shorter bucket.
    System system(fastConfig(4));
    ServingConfig config;
    config.maxBatch = 2;
    config.calibrationTokens = 4;
    config.seqBucket = 128;

    std::vector<ServedRequest> trace;
    std::uint64_t id = 0;
    for (const std::uint32_t prompt :
         {127u, 128u, 129u, 256u, 257u}) {
        ServedRequest request;
        request.id = id++;
        request.arrival = static_cast<double>(id) * 10.0;
        request.promptTokens = prompt;
        request.generateTokens = 4;
        trace.push_back(request);
    }
    const auto report =
        system.serve(model::opt13b(), trace, config);
    EXPECT_EQ(report.completed, trace.size());
    for (const auto &request : report.requests) {
        EXPECT_FALSE(request.rejected);
        EXPECT_GT(request.firstToken, request.arrival);
        EXPECT_GE(request.completed, request.firstToken);
    }
}

} // namespace
} // namespace hermes::serving
