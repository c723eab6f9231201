/**
 * @file
 * Unit tests for the common substrate: units, RNG, stats, tables,
 * worker-pool sizing clamps, the parallelFor pool and prefixSort.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/prefix_sort.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/threads.hh"
#include "common/units.hh"

namespace hermes {
namespace {

TEST(Units, GbpsConvertsDecimalGigabytes)
{
    EXPECT_DOUBLE_EQ(gbps(64.0), 64.0e9);
    EXPECT_DOUBLE_EQ(gbps(0.0), 0.0);
}

TEST(Units, TflopsConverts)
{
    EXPECT_DOUBLE_EQ(tflops(82.6), 82.6e12);
}

TEST(Units, CycleConversionRoundTrips)
{
    const double hz = 1.6e9;
    EXPECT_DOUBLE_EQ(cyclesToSeconds(1600, hz), 1e-6);
    EXPECT_EQ(secondsToCycles(1e-6, hz), 1600u);
}

TEST(Units, SecondsToCyclesRoundsUp)
{
    EXPECT_EQ(secondsToCycles(1.0001e-6, 1.0e9), 1001u);
    EXPECT_EQ(secondsToCycles(0.0, 1.0e9), 0u);
}

TEST(Units, BinarySizesAreExact)
{
    EXPECT_EQ(kKiB, 1024u);
    EXPECT_EQ(kMiB, 1024u * 1024u);
    EXPECT_EQ(kGiB, 1024ull * 1024 * 1024);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowStaysInBound)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.below(17);
        ASSERT_LT(v, 17u);
        seen.insert(v);
    }
    // All residues should appear over 2000 draws.
    EXPECT_EQ(seen.size(), 17u);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

/** a * b modulo Rng::kCharacteristic, one coefficient at a time. */
JumpPolynomial
slowMultiply(const JumpPolynomial &a, const JumpPolynomial &b)
{
    JumpPolynomial product{};
    for (int i = 255; i >= 0; --i) {
        const bool top = (product[3] >> 63) != 0;
        for (int w = 3; w > 0; --w)
            product[w] = (product[w] << 1) | (product[w - 1] >> 63);
        product[0] <<= 1;
        for (int w = 0; w < 4; ++w) {
            if (top)
                product[w] ^= Rng::kCharacteristic[w];
            if ((a[i / 64] >> (i % 64)) & 1)
                product[w] ^= b[w];
        }
    }
    return product;
}

TEST(Rng, JumpMatchesStepping)
{
    std::vector<std::uint64_t> distances = {0,   1,   255,
                                            256, 257, (1u << 20) + 3};
    Rng pick(2024);
    for (int i = 0; i < 3; ++i)
        distances.push_back(pick.below(10'000'000));
    for (const std::uint64_t k : distances) {
        Rng stepped(k + 17);
        Rng jumped = stepped;
        for (std::uint64_t i = 0; i < k; ++i)
            stepped.next();
        jumped.jump(Rng::jumpPolynomial(k));
        EXPECT_EQ(jumped.state(), stepped.state()) << "k = " << k;
        EXPECT_EQ(jumped.next(), stepped.next()) << "k = " << k;

        // The fast squaring agrees with plain square-and-multiply.
        JumpPolynomial slow{1, 0, 0, 0};
        for (int bit = 63; bit >= 0; --bit) {
            slow = slowMultiply(slow, slow);
            if ((k >> bit) & 1)
                slow = slowMultiply(slow, {2, 0, 0, 0});
        }
        EXPECT_EQ(Rng::jumpPolynomial(k), slow) << "k = " << k;
    }
}

TEST(Rng, CharacteristicPolynomialIsPinned)
{
    // Any one state bit obeys the transition's minimal recurrence;
    // Berlekamp-Massey over 512 of them recovers it, and for this
    // full-period generator it is the degree-256 characteristic
    // polynomial.
    Rng rng(7);
    std::vector<int> bits(512);
    for (int &bit : bits) {
        bit = static_cast<int>(rng.state()[0] & 1);
        rng.next();
    }
    std::vector<int> c(bits.size() + 1, 0);
    std::vector<int> b(bits.size() + 1, 0);
    c[0] = b[0] = 1;
    std::size_t length = 0;
    std::size_t shift = 1;
    for (std::size_t n = 0; n < bits.size(); ++n) {
        int discrepancy = bits[n];
        for (std::size_t i = 1; i <= length; ++i)
            discrepancy ^= c[i] & bits[n - i];
        if (discrepancy == 0) {
            ++shift;
            continue;
        }
        const std::vector<int> previous = c;
        for (std::size_t i = 0; i + shift < c.size(); ++i)
            c[i + shift] ^= b[i];
        if (2 * length <= n) {
            length = n + 1 - length;
            b = previous;
            shift = 1;
        } else {
            ++shift;
        }
    }
    ASSERT_EQ(length, 256u);
    // The connection polynomial is the characteristic one reversed.
    JumpPolynomial derived{};
    for (int j = 0; j < 256; ++j)
        derived[j / 64] |= static_cast<std::uint64_t>(c[256 - j])
                           << (j % 64);
    EXPECT_EQ(derived, Rng::kCharacteristic);

    // x^(2^128) modulo it is the reference implementation's jump().
    JumpPolynomial power{2, 0, 0, 0};
    for (int i = 0; i < 128; ++i)
        power = slowMultiply(power, power);
    const JumpPolynomial reference = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
        0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
    EXPECT_EQ(power, reference);
}

TEST(Stats, CounterAccumulates)
{
    Counter c;
    c.add(1.5);
    c.add(2.5);
    EXPECT_DOUBLE_EQ(c.value(), 4.0);
    EXPECT_EQ(c.samples(), 2u);
    EXPECT_DOUBLE_EQ(c.mean(), 2.0);
    c.reset();
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(Stats, DistributionMoments)
{
    Distribution d;
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 5u);
    EXPECT_DOUBLE_EQ(d.mean(), 3.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 5.0);
    EXPECT_NEAR(d.stddev(), std::sqrt(2.5), 1e-12);
}

TEST(Stats, EmptyDistributionIsZero)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(Stats, StatSetLazyCreation)
{
    StatSet set;
    set.counter("x").add(3.0);
    EXPECT_TRUE(set.hasCounter("x"));
    EXPECT_FALSE(set.hasCounter("y"));
    EXPECT_DOUBLE_EQ(set.counterValue("x"), 3.0);
}

TEST(Stats, UnknownCounterThrowsNamingIt)
{
    StatSet set;
    set.counter("x").add(1.0);
    try {
        set.counterValue("missing");
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &error) {
        EXPECT_STREQ(error.what(), "unknown counter 'missing'");
    }
}

TEST(Stats, StatSetResetClearsAll)
{
    StatSet set;
    set.counter("a").add(1.0);
    set.distribution("d").sample(2.0);
    set.reset();
    EXPECT_DOUBLE_EQ(set.counterValue("a"), 0.0);
    EXPECT_EQ(set.distribution("d").count(), 0u);
}

TEST(Table, RendersAlignedColumns)
{
    TextTable table({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "22"});
    const std::string out = table.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    // Header, rule, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, RowWidthMismatchThrows)
{
    TextTable table({"name", "value"});
    try {
        table.addRow({"alpha"});
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &error) {
        EXPECT_STREQ(error.what(),
                     "table row width 1 does not match header width 2");
    }
    table.addRow({"alpha", "1"}); // The table is still usable.
    EXPECT_NE(table.render().find("alpha"), std::string::npos);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

// The standard allows hardware_concurrency() to return 0 ("not
// computable").  Every pool in the simulator sizes itself through
// these helpers, so a zero probe must never produce a zero-thread
// pool or a zero divisor.  The probe value is a parameter exactly so
// this case is pinnable without mocking the standard library.
TEST(Threads, ZeroHardwareProbeNeverYieldsZeroThreads)
{
    EXPECT_EQ(effectiveThreads(0, 0), 1u);
    EXPECT_EQ(effectiveThreads(0, 8), 8u);
    // An explicit request wins over any probe value, including 0.
    EXPECT_EQ(effectiveThreads(4, 0), 4u);
    EXPECT_EQ(effectiveThreads(4, 64), 4u);
    EXPECT_GE(hardwareThreads(), 1u);
}

TEST(Threads, WorkerCountCappedByJobsAndNeverZeroWithWork)
{
    // Zero probe, no request: one worker as long as there is work.
    EXPECT_EQ(resolveWorkerCount(0, 0, 100), 1u);
    // No work at all is the only way to get zero workers (callers
    // treat <= 1 as "run serially").
    EXPECT_EQ(resolveWorkerCount(0, 0, 0), 0u);
    EXPECT_EQ(resolveWorkerCount(8, 4, 0), 0u);
    // Idle workers are never spawned: capped at the job count.
    EXPECT_EQ(resolveWorkerCount(8, 4, 5), 5u);
    EXPECT_EQ(resolveWorkerCount(2, 64, 100), 2u);
    // Fallback path follows the probe when no request is given.
    EXPECT_EQ(resolveWorkerCount(0, 6, 100), 6u);
}

TEST(Threads, ParallelForRunsEveryJobOnceAndRethrowsOnTheCaller)
{
    for (const std::size_t workers : {0u, 1u, 4u}) {
        std::vector<int> runs(100, 0);
        parallelFor(workers, runs.size(),
                    [&](std::size_t job) { ++runs[job]; });
        EXPECT_EQ(std::count(runs.begin(), runs.end(), 1), 100)
            << workers << " workers";
    }
    // Inline (<= 1 worker) the jobs run in order on the caller.
    std::vector<std::size_t> order;
    parallelFor(1, 5, [&](std::size_t job) { order.push_back(job); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

    for (const std::size_t workers : {1u, 4u}) {
        const auto failing = [](std::size_t job) {
            if (job == 7)
                throw std::runtime_error("job 7");
        };
        EXPECT_THROW(parallelFor(workers, 20, failing),
                     std::runtime_error)
            << workers << " workers";
    }
}

TEST(Threads, PipelineForHandsEveryLaneEveryItemInOrder)
{
    // Each slot holds the item it was produced for; a lane that saw
    // a slot before its item landed, or after the producer reused
    // it, would record a wrong value.
    for (const std::size_t lanes : {0u, 1u, 3u}) {
        for (const std::size_t depth : {1u, 2u, 3u}) {
            constexpr std::size_t kItems = 200;
            std::vector<std::size_t> slots(depth, 0);
            // At 0 or 1 lanes the one lane runs inline.
            std::vector<std::vector<std::size_t>> seen(
                std::max<std::size_t>(lanes, 1));
            pipelineFor(
                lanes, depth, kItems,
                [&](std::size_t item, std::size_t slot) {
                    slots[slot] = item;
                },
                [&](std::size_t lane, std::size_t item,
                    std::size_t slot) {
                    EXPECT_EQ(slots[slot], item);
                    seen[lane].push_back(item);
                });
            for (const std::vector<std::size_t> &items : seen) {
                ASSERT_EQ(items.size(), kItems);
                for (std::size_t i = 0; i < kItems; ++i)
                    EXPECT_EQ(items[i], i);
            }
        }
    }
}

TEST(Threads, PipelineForRethrowsProducerAndLaneErrorsOnTheCaller)
{
    for (const std::size_t lanes : {1u, 2u}) {
        const auto consume_all = [](std::size_t, std::size_t,
                                    std::size_t) {};
        EXPECT_THROW(
            pipelineFor(lanes, 2, 50,
                        [](std::size_t item, std::size_t) {
                            if (item == 7)
                                throw std::runtime_error("item 7");
                        },
                        consume_all),
            std::runtime_error)
            << lanes << " lanes";
        // A failed lane stops; the producer and the other lane run
        // to the end instead of waiting on it forever.
        std::size_t other_lane_items = 0;
        EXPECT_THROW(
            pipelineFor(lanes, 2, 50, [](std::size_t, std::size_t) {},
                        [&](std::size_t lane, std::size_t item,
                            std::size_t) {
                            if (lane == 0 && item == 7)
                                throw std::runtime_error("lane 0");
                            if (lane == 1)
                                ++other_lane_items;
                        }),
            std::runtime_error)
            << lanes << " lanes";
        if (lanes == 2) {
            EXPECT_EQ(other_lane_items, 50u);
        }
    }
}


// ---------------------------------------------------------------
// prefixSort against std::sort.

/** Keys pack (value << 32 | position); comparators read the value. */
std::uint32_t
valueOf(std::uint64_t key)
{
    return static_cast<std::uint32_t>(key >> 32);
}

/** Sort `keys` both ways and check every k-prefix of the result. */
void
expectPrefixesMatchStdSort(const std::vector<std::uint64_t> &keys)
{
    const auto ascending = [](std::uint64_t a, std::uint64_t b) {
        return valueOf(a) < valueOf(b);
    };
    const auto descending = [](std::uint64_t a, std::uint64_t b) {
        return valueOf(a) > valueOf(b);
    };
    std::vector<std::uint64_t> up = keys;
    std::sort(up.begin(), up.end(), ascending);
    std::vector<std::uint64_t> down = keys;
    std::sort(down.begin(), down.end(), descending);
    std::vector<std::uint64_t> all = keys;
    std::sort(all.begin(), all.end());
    for (const std::size_t k : {0u, 1u, 2u, 15u, 16u, 17u, 63u, 64u, 65u,
                                127u, 128u}) {
        const std::size_t shown = std::min(k, keys.size());
        std::vector<std::uint64_t> got = keys;
        prefixSort(got.begin(), got.end(), k, ascending);
        EXPECT_TRUE(std::equal(got.begin(), got.begin() + shown,
                               up.begin()))
            << "ascending, n=" << keys.size() << " k=" << k;
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, all) << "not a permutation, k=" << k;

        got = keys;
        prefixSort(got.data(), got.data() + got.size(), k, descending);
        EXPECT_TRUE(std::equal(got.begin(), got.begin() + shown,
                               down.begin()))
            << "descending, n=" << keys.size() << " k=" << k;
    }
}

TEST(PrefixSort, MatchesStdSortOnTiedKeys)
{
    // Few distinct values, so ties fill every prefix: only the exact
    // introsort steps put the same equal keys first.
    Rng rng(77);
    for (const std::uint32_t n : {0u, 1u, 2u, 3u, 15u, 16u, 17u, 18u, 33u,
                                  100u, 129u, 1000u, 7161u, 40000u}) {
        for (const std::uint32_t distinct : {1u, 2u, 5u, 28u, 1u << 30}) {
            std::vector<std::uint64_t> keys(n);
            for (std::uint32_t i = 0; i < n; ++i) {
                keys[i] = rng.below(distinct) << 32 | i;
            }
            SCOPED_TRACE(testing::Message()
                         << "n=" << n << " distinct=" << distinct);
            expectPrefixesMatchStdSort(keys);
        }
    }
}

TEST(PrefixSort, MatchesStdSortPastTheDepthLimit)
{
    // McIlroy's adversary ("A Killer Adversary for Quicksort", 1999)
    // fixes values only when the sort compares them, so that every
    // median-of-three pivot is among the smallest remaining: replayed,
    // its input drives introsort into its heap-sort fallback.
    constexpr std::uint32_t n = 3000;
    constexpr std::uint32_t gas = n;
    std::vector<std::uint32_t> value(n, gas);
    std::uint32_t solid = 0;
    std::uint32_t candidate = 0;
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                  if (value[x] == gas && value[y] == gas)
                      value[x == candidate ? x : y] = solid++;
                  if (value[x] == gas)
                      candidate = x;
                  else if (value[y] == gas)
                      candidate = y;
                  return value[x] < value[y];
              });
    std::vector<std::uint64_t> keys(n);
    for (std::uint32_t i = 0; i < n; ++i)
        keys[i] = static_cast<std::uint64_t>(value[i] / 2) << 32 | i;

    // Pairs of keys tie.  The replay degenerates: it makes more than
    // twice the comparisons std::sort makes on the same keys shuffled
    // (104933 against ~40000: 22 lopsided partitions, then a heap
    // sort of nearly all 3000 keys).
    const auto count_sort = [](std::vector<std::uint64_t> copy) {
        std::uint64_t calls = 0;
        std::sort(copy.begin(), copy.end(),
                  [&](std::uint64_t a, std::uint64_t b) {
                      ++calls;
                      return valueOf(a) < valueOf(b);
                  });
        return calls;
    };
    std::vector<std::uint64_t> shuffled = keys;
    Rng rng(5);
    for (std::size_t i = shuffled.size(); i > 1; --i)
        std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
    EXPECT_GT(count_sort(keys), 2 * count_sort(shuffled));
    expectPrefixesMatchStdSort(keys);
}

} // namespace
} // namespace hermes
