/**
 * @file
 * Calibration-pool stress tests, built for ThreadSanitizer.
 *
 * The only real threads in the simulator are the calibration pools:
 * parallel router calibration over cache-group leaders
 * (core/fleet.cc) and the shared cost-cache warming pool
 * (FleetSimulator::warmSessionCosts -> ServingSimulator::warmCosts).
 * These tests drive both pools at high thread counts
 * (calibrationThreads = 8, well past the CI runners' core counts)
 * so TSan sees real contention, and pin that the physics stays
 * byte-identical to the single-threaded run — the determinism
 * contract the pools were designed around.
 *
 * CI runs this binary twice: in the normal suites, and under
 * -fsanitize=thread in the dedicated `tsan` job (HERMES_TSAN=ON).
 */

#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/fleet.hh"
#include "core/serving.hh"
#include "core/hermes.hh"
#include "core/workload.hh"
#include "sched/control_policy.hh"

namespace hermes::fleet {
namespace {

serving::ServingConfig
fastServing(std::uint32_t max_batch)
{
    serving::ServingConfig config;
    config.maxBatch = max_batch;
    config.calibrationTokens = 4;
    return config;
}

/** A fleet where every replica is its own cache group (distinct
 *  serving config), so parallel router calibration has one leader
 *  per replica and the pool actually fans out. */
FleetConfig
heterogeneousFleet(std::uint32_t replicas)
{
    FleetConfig config = uniformFleet(
        replicas, fastConfig(4), fastServing(2),
        sched::controlPolicyByName("jsq"), 120.0);
    for (std::uint32_t i = 0; i < replicas; ++i) {
        // seqBucket (i % 4) splits the cost surfaces without
        // touching engine physics knobs shared by tests; maxBatch
        // (i % 3) varies within each surface.
        config.replicas[i].serving.seqBucket =
            192 + 64 * (i % 4);
        config.replicas[i].serving.maxBatch = 1 + (i % 3);
    }
    return config;
}

void
expectIdenticalReports(const FleetReport &a, const FleetReport &b)
{
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_DOUBLE_EQ(a.throughputTps, b.throughputTps);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.requests[i].latency(),
                         b.requests[i].latency())
            << "request " << i;
        EXPECT_DOUBLE_EQ(a.requests[i].ttft(),
                         b.requests[i].ttft())
            << "request " << i;
    }
}

TEST(CalibrationStress, ParallelRouterCalibrationManyGroups)
{
    // 4 cost surfaces (seqBucket varies with i % 4), each shared by
    // two replicas of differing maxBatch — replica 4's and 7's
    // exceed their leaders' — calibrated by pools of up to 8
    // threads: every worker claims whole leaders off the shared
    // atomic cursor, so each surface has exactly one writer.  Any
    // cross-thread write to a shared cost surface or model slot is
    // a TSan report; any physics difference fails the pin, and the
    // tape count must not depend on the thread count.
    serving::ScenarioConfig scenario;
    scenario.process = serving::ArrivalProcess::Poisson;
    scenario.requests = 24;
    scenario.ratePerSecond = 6.0;
    scenario.prompt = {64, 16, 0.0, 1.0};
    scenario.generate = {8, 4, 0.0, 1.0};
    scenario.seed = 21;
    const auto trace = serving::generateWorkload(scenario);

    FleetConfig config = heterogeneousFleet(8);
    config.calibrationThreads = 1;
    const auto serial =
        FleetSimulator(config, model::opt13b()).run(trace);
    for (const std::uint32_t threads : {4u, 8u}) {
        config.calibrationThreads = threads;
        const auto pooled =
            FleetSimulator(config, model::opt13b()).run(trace);
        expectIdenticalReports(serial, pooled);
        EXPECT_EQ(pooled.kernelStats.calibrationTapes,
                  serial.kernelStats.calibrationTapes)
            << threads << " threads";
    }
    EXPECT_EQ(serial.requests.size(), trace.size());
    EXPECT_GT(serial.completed, 0u);
}

TEST(CalibrationStress, SharedCacheSessionWarmingHighThreads)
{
    // Uniform fleet = one shared cost cache; warmSessionCosts fans
    // the distinct cost-surface rows of a known session trace out
    // over the pool, each worker owning the rows it claims, results
    // inserted sequentially afterwards.
    const auto trace = serving::generateSessionWorkload(
        serving::scenarioByName("multiturn", 8, 1.0, 17));
    FleetConfig config = uniformFleet(
        4, fastConfig(4), fastServing(2),
        sched::controlPolicyByName("jsq"), 120.0);
    config.calibrationThreads = 1;
    const auto lazy =
        FleetSimulator(config, model::opt13b()).run(trace);
    for (const std::uint32_t threads : {4u, 8u}) {
        config.calibrationThreads = threads;
        const auto warmed =
            FleetSimulator(config, model::opt13b()).run(trace);
        expectIdenticalReports(lazy, warmed);
    }
    EXPECT_EQ(lazy.completed, trace.turns.size());
}

TEST(CalibrationStress, ThreadsOversubscribedPastLeaderCount)
{
    // More threads than leaders (and than hardware): the pool must
    // cap at the job count, leave the surplus unspawned, and still
    // reproduce the serial run exactly.
    const auto trace = serving::generateSessionWorkload(
        serving::scenarioByName("multiturn", 4, 2.0, 29));
    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(2),
        sched::controlPolicyByName("jsq"), 120.0);
    config.calibrationThreads = 1;
    const auto serial =
        FleetSimulator(config, model::opt13b()).run(trace);
    config.calibrationThreads = 16;
    const auto flooded =
        FleetSimulator(config, model::opt13b()).run(trace);
    expectIdenticalReports(serial, flooded);
}

/** One probe per cell of a rows x columns exact grid. */
std::vector<serving::CostProbe>
gridProbes(std::uint32_t max_batch, std::uint64_t columns,
           std::uint32_t seq_bucket)
{
    std::vector<serving::CostProbe> probes;
    for (std::uint32_t batch = 1; batch <= max_batch; batch *= 2) {
        for (std::uint64_t column = 0; column < columns; ++column)
            probes.push_back({batch, column * seq_bucket});
    }
    return probes;
}

TEST(CalibrationStress, RowPartitionedWarmingThreadCountInvariant)
{
    // Exact-mode warming hands whole rows to the pool, each on the
    // row's pooled engine: the cost surface AND the number of tapes
    // recorded must not depend on the thread count.  One DIMM makes
    // the wide rows saturate past a few thousand tokens, so their
    // engines also record the batch-halving fallback tapes.
    for (const std::uint32_t dimms : {8u, 1u}) {
        runtime::SystemConfig system = fastConfig(2);
        system.numDimms = dimms;
        serving::ServingConfig config = fastServing(8);
        const auto probes = gridProbes(8, 9, config.seqBucket);

        struct Surface
        {
            std::vector<double> costs;
            std::uint64_t runs = 0;
            std::uint64_t tapes = 0;
            bool saturated = false;
        };
        const auto warm = [&](std::uint32_t threads) {
            serving::ServingSimulator simulator(system, model::opt13b(),
                                                config);
            simulator.warmCosts(probes, threads);
            Surface surface;
            surface.runs = simulator.calibrationRuns();
            surface.tapes = simulator.calibrationTapes();
            for (const serving::CostProbe &probe : probes) {
                surface.costs.push_back(simulator.prefillSeconds(
                    probe.batch, probe.seq + 1));
                surface.costs.push_back(
                    simulator.tokenSeconds(probe.batch, probe.seq));
            }
            // Reading the surface back ran nothing new.
            EXPECT_EQ(simulator.calibrationRuns(), surface.runs);
            surface.saturated = simulator.saturated();
            return surface;
        };
        const Surface serial = warm(1);
        EXPECT_EQ(serial.runs, probes.size());
        EXPECT_GE(serial.tapes, 4u);
        EXPECT_EQ(serial.saturated, dimms == 1) << dimms << " DIMMs";
        for (const std::uint32_t threads : {2u, 4u, 16u}) {
            const Surface pooled = warm(threads);
            EXPECT_EQ(pooled.costs, serial.costs) << threads;
            EXPECT_EQ(pooled.runs, serial.runs) << threads;
            EXPECT_EQ(pooled.tapes, serial.tapes) << threads;
        }

        // The same at fleet level: reports are identical lazy (one
        // thread) and warmed, and warming on 2/4/16 threads records
        // the same tapes.  (A lazy run computes only the cells it
        // touches, so its own tape count may be lower.)
        if (dimms != 1)
            continue;
        const auto trace = serving::generateSessionWorkload(
            serving::scenarioByName("multiturn", 6, 1.0, 23));
        FleetConfig fleet = uniformFleet(
            2, system, config, sched::controlPolicyByName("jsq"),
            120.0);
        fleet.calibrationThreads = 1;
        const auto lazy =
            FleetSimulator(fleet, model::opt13b()).run(trace);
        std::uint64_t warmed_tapes = 0;
        for (const std::uint32_t threads : {2u, 4u, 16u}) {
            fleet.calibrationThreads = threads;
            const auto warmed =
                FleetSimulator(fleet, model::opt13b()).run(trace);
            expectIdenticalReports(lazy, warmed);
            if (threads == 2)
                warmed_tapes = warmed.kernelStats.calibrationTapes;
            EXPECT_EQ(warmed.kernelStats.calibrationTapes, warmed_tapes)
                << threads;
        }
        EXPECT_EQ(warmed_tapes, serial.tapes);
    }
}

TEST(CalibrationStress, ChatSessionsGridBuildsOneTapePerRow)
{
    // The chat-sessions shape: two uniform OPT-13B replicas, maxBatch
    // 8, multi-turn sessions climbing a 4 x 9 exact grid.  36 cost
    // cells cost at most 8 full simulations, serial or pooled.
    serving::ServingConfig serving;
    serving.maxBatch = 8;
    serving.calibrationTokens = 6;
    serving::ScenarioConfig scenario =
        serving::scenarioByName("multiturn", 8, 0.6, 5);
    scenario.turns = {4, 0, 0.0, 1.0};
    scenario.prompt = {1024, 0, 0.0, 1.0};
    const auto trace = serving::generateSessionWorkload(scenario);
    FleetConfig fleet =
        uniformFleet(2, fastConfig(6), serving,
                     nullptr, 1.5);
    fleet.control = sched::controlPolicyByName("affinity");
    std::uint64_t tapes = 0;
    for (const std::uint32_t threads : {1u, 2u}) {
        fleet.calibrationThreads = threads;
        const auto report =
            FleetSimulator(fleet, model::opt13b()).run(trace);
        EXPECT_GE(report.kernelStats.calibrationTapes, 4u) << threads;
        EXPECT_LE(report.kernelStats.calibrationTapes, 8u) << threads;
        if (threads == 1)
            tapes = report.kernelStats.calibrationTapes;
        EXPECT_EQ(report.kernelStats.calibrationTapes, tapes);
    }
}

} // namespace
} // namespace hermes::fleet
