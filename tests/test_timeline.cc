/**
 * @file
 * Tests for the shared timeline / decode-pipeline layer: overlap and
 * critical-path invariants, plus the guarantee that the ported
 * engines reproduce the pre-refactor Hermes vs. baseline ordering.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "model/llm_config.hh"
#include "runtime/decode_pipeline.hh"
#include "runtime/factory.hh"
#include "runtime/timeline.hh"

namespace hermes::runtime {
namespace {

constexpr double kEps = 1e-12;

TEST(Timeline, SerialChainSums)
{
    Timeline timeline;
    const auto gpu = timeline.addResource("gpu");
    const auto a = timeline.post(gpu, CostCategory::Fc, 1.0);
    const auto b = timeline.post(gpu, CostCategory::Attention, 2.0);
    EXPECT_DOUBLE_EQ(timeline.startOf(b), timeline.endOf(a));
    EXPECT_DOUBLE_EQ(timeline.makespan(), 3.0);
    EXPECT_DOUBLE_EQ(timeline.busy(gpu), 3.0);
}

TEST(Timeline, UnknownResourceThrows)
{
    Timeline timeline;
    const auto gpu = timeline.addResource("gpu");
    EXPECT_THROW(timeline.post(gpu + 1, CostCategory::Fc, 1.0),
                 std::runtime_error);
    // The timeline stays usable after the rejected post.
    timeline.post(gpu, CostCategory::Fc, 1.0);
    EXPECT_DOUBLE_EQ(timeline.makespan(), 1.0);
}

TEST(Timeline, IndependentResourcesOverlap)
{
    Timeline timeline;
    const auto gpu = timeline.addResource("gpu");
    const auto pcie = timeline.addResource("pcie");
    timeline.post(gpu, CostCategory::Fc, 2.0);
    timeline.post(pcie, CostCategory::Communication, 5.0);
    EXPECT_DOUBLE_EQ(timeline.makespan(), 5.0);
}

TEST(Timeline, DependenciesGateStart)
{
    Timeline timeline;
    const auto gpu = timeline.addResource("gpu");
    const auto pcie = timeline.addResource("pcie");
    const auto sync =
        timeline.post(pcie, CostCategory::Communication, 1.0);
    const auto work =
        timeline.post(gpu, CostCategory::Fc, 2.0, {sync});
    EXPECT_DOUBLE_EQ(timeline.startOf(work), 1.0);
    EXPECT_DOUBLE_EQ(timeline.makespan(), 3.0);
}

TEST(Timeline, CriticalPathSumsToMakespan)
{
    Timeline timeline;
    const auto gpu = timeline.addResource("gpu");
    const auto pcie = timeline.addResource("pcie");
    const auto link = timeline.addResource("link");
    const auto sync =
        timeline.post(pcie, CostCategory::Communication, 1.0);
    const auto fc = timeline.post(gpu, CostCategory::Fc, 4.0, {sync});
    timeline.post(link, CostCategory::Communication, 2.0, {sync});
    timeline.post(gpu, CostCategory::Others, 0.5, {fc});

    const CategoryTimes path = timeline.criticalPath();
    EXPECT_NEAR(path.total(), timeline.makespan(), kEps);
    EXPECT_DOUBLE_EQ(path[CostCategory::Fc], 4.0);
    EXPECT_DOUBLE_EQ(path[CostCategory::Communication], 1.0);
    EXPECT_DOUBLE_EQ(path[CostCategory::Others], 0.5);
}

TEST(Timeline, NegativeDurationsClampToZero)
{
    Timeline timeline;
    const auto gpu = timeline.addResource("gpu");
    timeline.post(gpu, CostCategory::Fc, -1.0);
    EXPECT_DOUBLE_EQ(timeline.makespan(), 0.0);
}

TEST(Timeline, EmptyTimelineIsZero)
{
    Timeline timeline;
    timeline.addResource("gpu");
    EXPECT_DOUBLE_EQ(timeline.makespan(), 0.0);
    EXPECT_NEAR(timeline.criticalPath().total(), 0.0, kEps);
}

TEST(Pipeline, ShadowedMigrationHidesWhenSlackSuffices)
{
    // Migration shorter than the projection it shadows: the token is
    // exactly as long as without it, and no communication appears on
    // the critical path.
    DecodePipeline with(4);
    with.beginToken();
    with.gpuStage(CostCategory::Fc, 10.0e-3);
    with.shadowedDimmLink(5.0e-3);
    with.gpuStage(CostCategory::Fc, 2.0e-3);
    const Seconds with_time = with.endToken();

    DecodePipeline without(4);
    without.beginToken();
    without.gpuStage(CostCategory::Fc, 10.0e-3);
    without.gpuStage(CostCategory::Fc, 2.0e-3);
    const Seconds without_time = without.endToken();

    EXPECT_DOUBLE_EQ(with_time, without_time);
    EXPECT_DOUBLE_EQ(
        with.accumulated()[CostCategory::Communication], 0.0);
}

TEST(Pipeline, ShadowedMigrationExposesOnlySurplus)
{
    DecodePipeline pipeline(4);
    pipeline.beginToken();
    pipeline.gpuStage(CostCategory::Fc, 10.0e-3);
    pipeline.shadowedDimmLink(15.0e-3);
    pipeline.gpuStage(CostCategory::Fc, 2.0e-3);
    const Seconds token = pipeline.endToken();
    EXPECT_NEAR(token, 17.0e-3, kEps);
}

TEST(Pipeline, ExactlyShadowedTransferCreditsCompute)
{
    // Tie-break: a transfer finishing at the same instant as the
    // compute it hides behind must not steal the attribution.
    DecodePipeline pipeline(2);
    pipeline.beginToken();
    pipeline.gpuStage(CostCategory::Fc, 10.0e-3);
    pipeline.shadowedPcie(10.0e-3);
    pipeline.gpuStage(CostCategory::Others, 1.0e-3);
    pipeline.endToken();
    EXPECT_DOUBLE_EQ(
        pipeline.accumulated()[CostCategory::Communication], 0.0);
    EXPECT_DOUBLE_EQ(pipeline.accumulated()[CostCategory::Fc],
                     10.0e-3);
}

TEST(Pipeline, SplitStageJoinsOnSlowerSide)
{
    // GPU side: 1 + 4 + 1 = 6 ms; lanes: max 9 ms -> 9 ms total.
    DecodePipeline pipeline(3);
    pipeline.beginToken();
    pipeline.splitStage(CostCategory::Fc, 4.0e-3, 1.0e-3, 1.0e-3,
                        {3.0e-3, 9.0e-3, 2.0e-3});
    const Seconds dimm_bound = pipeline.endToken();
    EXPECT_NEAR(dimm_bound, 9.0e-3, kEps);

    pipeline.beginToken();
    pipeline.splitStage(CostCategory::Fc, 4.0e-3, 1.0e-3, 1.0e-3,
                        {3.0e-3, 2.0e-3, 2.0e-3});
    const Seconds gpu_bound = pipeline.endToken();
    EXPECT_NEAR(gpu_bound, 6.0e-3, kEps);
}

TEST(Pipeline, BackgroundTransferOverlapsWholeToken)
{
    // FlexGen shape: compute 6 ms, background stream 10 ms, epilogue
    // 1 ms after the join -> 11 ms.
    DecodePipeline pipeline(0);
    pipeline.beginToken();
    pipeline.backgroundPcie(10.0e-3);
    pipeline.gpuStage(CostCategory::Fc, 6.0e-3);
    pipeline.joinBackground();
    pipeline.gpuStage(CostCategory::Others, 1.0e-3);
    const Seconds token = pipeline.endToken();
    EXPECT_NEAR(token, 11.0e-3, kEps);
}

TEST(Pipeline, EndTokenScalesAndRepeats)
{
    DecodePipeline pipeline(0);
    pipeline.beginToken();
    pipeline.gpuStage(CostCategory::Fc, 2.0e-3);
    pipeline.endToken(/*scale=*/4.0, /*repeat=*/10);
    EXPECT_NEAR(pipeline.totalTime(), 80.0e-3, kEps);
    EXPECT_NEAR(pipeline.accumulated()[CostCategory::Fc], 80.0e-3,
                kEps);
    EXPECT_EQ(pipeline.tokensSimulated(), 10u);

    pipeline.addSerial(CostCategory::Others, 1.0e-3);
    EXPECT_NEAR(pipeline.totalTime(), 81.0e-3, kEps);
}

TEST(Pipeline, ZeroDimmConfigFallsBackToHost)
{
    // ndpStage on a lane-less pipeline must account the work rather
    // than dropping it (and must not crash).
    DecodePipeline pipeline(0);
    pipeline.beginToken();
    pipeline.ndpStage(CostCategory::Attention, 3.0e-3);
    EXPECT_NEAR(pipeline.endToken(), 3.0e-3, kEps);
}

// ---- Ported engines: breakdowns come from the timeline and the ----
// ---- pre-refactor orderings hold.                              ----

SystemConfig
fastPlatform()
{
    SystemConfig config;
    config.simulatedLayers = 4;
    return config;
}

InferenceRequest
smallRequest(const std::string &model, std::uint32_t batch = 1)
{
    InferenceRequest request;
    request.llm = model::modelByName(model);
    request.batch = batch;
    request.profileTokens = 24;
    request.generateTokens = 24;
    return request;
}

TEST(PortedEngines, BreakdownSumsToTotalForAllEngines)
{
    const SystemConfig config = fastPlatform();
    const InferenceRequest request = smallRequest("OPT-66B");
    for (const EngineKind kind : allEngineKinds()) {
        auto engine = makeEngine(kind, config);
        const InferenceResult result = engine->run(request);
        if (!result.supported)
            continue;
        const Seconds total =
            result.prefillTime + result.generateTime;
        EXPECT_NEAR(result.breakdown.total(), total,
                    1e-9 + 0.01 * total)
            << engineKindName(kind);
    }
}

TEST(PortedEngines, HermesOrderingSurvivesRefactor)
{
    const SystemConfig config = fastPlatform();
    const InferenceRequest request = smallRequest("OPT-66B");
    auto rate = [&](EngineKind kind) {
        return makeEngine(kind, config)->run(request).tokensPerSecond;
    };
    const double accelerate = rate(EngineKind::Accelerate);
    const double dejavu = rate(EngineKind::DejaVu);
    const double base = rate(EngineKind::HermesBase);
    const double hermes = rate(EngineKind::Hermes);
    EXPECT_LT(accelerate, dejavu);
    EXPECT_LT(dejavu, hermes);
    EXPECT_LT(base, hermes);
    EXPECT_GT(hermes / accelerate, 10.0);
}

TEST(PortedEngines, ZeroDimmPlatformIsUnsupportedNotFatal)
{
    SystemConfig config = fastPlatform();
    config.numDimms = 0;
    const InferenceRequest request = smallRequest("OPT-13B");
    EXPECT_FALSE(
        makeEngine(EngineKind::Hermes, config)->run(request).supported);
    EXPECT_FALSE(makeEngine(EngineKind::HermesBase, config)
                     ->run(request)
                     .supported);
}

TEST(PortedEngines, ZeroGenerateTokensIsWellDefined)
{
    const SystemConfig config = fastPlatform();
    InferenceRequest request = smallRequest("OPT-13B");
    request.generateTokens = 0;
    auto engine = makeEngine(EngineKind::Hermes, config);
    const InferenceResult result = engine->run(request);
    EXPECT_TRUE(result.supported);
    EXPECT_DOUBLE_EQ(result.generateTime, 0.0);
    EXPECT_DOUBLE_EQ(result.tokensPerSecond, 0.0);
}

} // namespace
} // namespace hermes::runtime
