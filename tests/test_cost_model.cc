/**
 * @file
 * Tests for the calibrated step-cost surface: saturation handling,
 * engine pooling, parallel cache warming, the row engines' shared
 * DRAM bandwidth probe, and the overflow tail of the cost cache.
 */

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/hermes.hh"

namespace hermes::serving {
namespace {

ServingConfig
costServing(std::uint32_t seq_bucket = 256,
            std::uint32_t max_batch = 4)
{
    ServingConfig config;
    config.maxBatch = max_batch;
    config.calibrationTokens = 4;
    config.seqBucket = seq_bucket;
    return config;
}

TEST(CostModel, SaturatedBucketsTakeTheHalfBatchCosts)
{
    // Drive a big model toward its capacity cliff: the first bucket
    // past capacity is served at the half-batch bucket's costs
    // (flagged saturated) rather than at a corrupt zero.
    const auto llm = model::modelByName("OPT-30B");
    ServingSimulator simulator(fastConfig(4), llm,
                               costServing(512, 16));
    std::uint64_t seq = 512;
    for (; seq <= 512 * 40; seq += 512) {
        simulator.tokenSeconds(16, seq);
        if (simulator.saturated())
            break;
    }
    // The scenario must actually cross the cliff for this test to
    // mean anything; if the platform grows, raise the pressure.
    ASSERT_TRUE(simulator.saturated());
    EXPECT_DOUBLE_EQ(simulator.tokenSeconds(16, seq),
                     simulator.tokenSeconds(8, seq));
    EXPECT_DOUBLE_EQ(simulator.prefillSeconds(16, seq),
                     simulator.prefillSeconds(8, seq));
}

TEST(CostModel, EnginePoolingCountsOneRunPerColdBucket)
{
    // One engine simulation per cold bucket, zero per hit: the
    // pooled engine is constructed once and reused, and repeated
    // probes never re-simulate.
    ServingSimulator simulator(
        fastConfig(4), model::opt13b(),
        costServing(256));
    EXPECT_EQ(simulator.calibrationRuns(), 0u);
    simulator.tokenSeconds(1, 100);
    EXPECT_EQ(simulator.calibrationRuns(), 1u);
    EXPECT_GT(simulator.calibrationSeconds(), 0.0);
    // Same bucket (same column, same batch row): pure hit.
    simulator.tokenSeconds(1, 120);
    simulator.prefillSeconds(1, 101);
    EXPECT_EQ(simulator.calibrationRuns(), 1u);
    // New column: one more.
    simulator.tokenSeconds(1, 300);
    EXPECT_EQ(simulator.calibrationRuns(), 2u);
}

TEST(CostModel, SharedCacheOverflowIsOrderIndependent)
{
    // seqBucket 1 pushes columns past the dense cap into the
    // sorted per-row overflow tail.  Two simulators sharing one
    // cache and two independent simulators probing in opposite
    // orders must all agree — sorted insert + lookup, hit after
    // insert, no order sensitivity.
    const ServingConfig config =
        costServing(1, 2);
    const std::vector<std::uint64_t> seqs{
        6000, 4200, 5000, 4095, 4096, 6000, 4200};
    ServingSimulator forward(fastConfig(2), model::opt13b(),
                             config);
    ServingSimulator backward(fastConfig(2), model::opt13b(),
                              config);
    ServingSimulator sharer(fastConfig(2), model::opt13b(),
                            config);
    ASSERT_TRUE(sharer.shareCostsWith(forward));
    std::vector<double> first;
    for (const std::uint64_t seq : seqs)
        first.push_back(forward.tokenSeconds(1, seq));
    const std::uint64_t cold_runs = forward.calibrationRuns();
    for (std::size_t i = seqs.size(); i-- > 0;) {
        EXPECT_DOUBLE_EQ(backward.tokenSeconds(1, seqs[i]),
                         first[i])
            << "seq " << seqs[i];
        // The sharer hits the cache its sibling filled.
        EXPECT_DOUBLE_EQ(sharer.tokenSeconds(1, seqs[i]),
                         first[i])
            << "seq " << seqs[i];
    }
    // Hits after insert: re-probing filled buckets runs nothing,
    // on either member of the sharing group.
    EXPECT_EQ(forward.calibrationRuns(), cold_runs);
    EXPECT_EQ(sharer.calibrationRuns(), cold_runs);
    // 5 distinct buckets out of 7 probes (two repeats).
    EXPECT_EQ(cold_runs, 5u);
}

TEST(CostModel, WarmCostsIsInvisibleExceptForWallClock)
{
    // Warming fills the same cells lazy misses would, never
    // latches saturation, and leaves every subsequent probe a pure
    // hit — so a warmed simulator and a cold one agree bit for
    // bit, regardless of thread count.
    std::vector<CostProbe> probes;
    for (const std::uint32_t batch : {1u, 4u}) {
        for (std::uint64_t column = 0; column <= 9; ++column)
            probes.push_back(CostProbe{batch, column * 256});
    }
    ServingSimulator warmed(fastConfig(4), model::opt13b(),
                            costServing(256));
    ServingSimulator parallel_warmed(fastConfig(4), model::opt13b(),
                                     costServing(256));
    ServingSimulator cold(fastConfig(4), model::opt13b(),
                          costServing(256));
    warmed.warmCosts(probes, 1);
    parallel_warmed.warmCosts(probes, 4);
    EXPECT_FALSE(warmed.saturated());
    EXPECT_EQ(warmed.calibrationRuns(),
              parallel_warmed.calibrationRuns());
    const std::uint64_t warm_runs = warmed.calibrationRuns();
    for (const CostProbe &probe : probes) {
        const double expected =
            cold.tokenSeconds(probe.batch, probe.seq);
        EXPECT_DOUBLE_EQ(warmed.tokenSeconds(probe.batch, probe.seq),
                         expected);
        EXPECT_DOUBLE_EQ(
            parallel_warmed.tokenSeconds(probe.batch, probe.seq),
            expected);
    }
    // Every probe after warming was a pure hit.
    EXPECT_EQ(warmed.calibrationRuns(), warm_runs);
    EXPECT_EQ(parallel_warmed.calibrationRuns(), warm_runs);
}

TEST(CostModel, RowEnginesShareOneBandwidthProbe)
{
    // A Hermes surface whose first touch is a 4-thread warm-up of
    // all four rows: the row engines record concurrently against
    // one shared probe, which simulates the rank once per access
    // pattern they read (scattered rows for cold-neuron GEMVs,
    // sequential rows for attention and merges), not once per
    // engine.  Costs must be bitwise those of a serially warmed
    // surface and of engines that each probe on their own, with
    // one tape per row either way.
    const ServingConfig config = costServing(256, 8);
    std::vector<CostProbe> probes;
    for (const std::uint32_t batch : {1u, 2u, 4u, 8u}) {
        for (std::uint64_t column = 0; column <= 2; ++column)
            probes.push_back(CostProbe{batch, column * 256});
    }
    ServingSimulator parallel(fastConfig(4), model::opt13b(), config);
    ServingSimulator serial(fastConfig(4), model::opt13b(), config);
    EXPECT_EQ(parallel.calibrationRankSimulations(), 0u);
    parallel.warmCosts(probes, 4);
    serial.warmCosts(probes, 1);
    EXPECT_EQ(parallel.calibrationRankSimulations(), 2u);
    EXPECT_EQ(serial.calibrationRankSimulations(), 2u);
    EXPECT_EQ(parallel.calibrationTapes(), 4u);
    EXPECT_EQ(serial.calibrationTapes(), 4u);

    for (const std::uint32_t batch : {1u, 2u, 4u, 8u}) {
        // The unshared twin: a fresh engine per row with its own
        // probe, asked what the surface asks for each cell.
        auto engine =
            runtime::makeEngine(config.engine, fastConfig(4));
        for (const CostProbe &probe : probes) {
            if (probe.batch != batch)
                continue;
            runtime::InferenceRequest request;
            request.llm = model::opt13b();
            request.batch = batch;
            request.promptTokens = static_cast<std::uint32_t>(
                (probe.seq / config.seqBucket + 1) * config.seqBucket);
            request.generateTokens = config.calibrationTokens;
            request.profileTokens = 24;
            request.seed = config.seed;
            const runtime::InferenceResult result =
                engine->run(request);
            ASSERT_TRUE(result.supported);
            const double token =
                result.generateTime / config.calibrationTokens;
            for (ServingSimulator *surface : {&parallel, &serial}) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(
                              surface->tokenSeconds(batch, probe.seq)),
                          std::bit_cast<std::uint64_t>(token))
                    << "batch " << batch << " seq " << probe.seq;
                EXPECT_EQ(std::bit_cast<std::uint64_t>(
                              surface->prefillSeconds(batch, probe.seq)),
                          std::bit_cast<std::uint64_t>(
                              result.prefillTime))
                    << "batch " << batch << " seq " << probe.seq;
            }
        }
    }
    // Every probe above was a hit: no further rank simulations.
    EXPECT_EQ(parallel.calibrationRankSimulations(), 2u);
    EXPECT_EQ(parallel.calibrationTapes(), 4u);
}

} // namespace
} // namespace hermes::serving
