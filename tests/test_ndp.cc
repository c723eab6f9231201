/**
 * @file
 * Unit tests for the NDP-DIMM device models: GEMV unit, activation
 * unit, and the composed NdpDimm kernels.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "dram/bandwidth_probe.hh"
#include "ndp/activation_unit.hh"
#include "ndp/gemv_unit.hh"
#include "ndp/ndp_dimm.hh"

namespace hermes::ndp {
namespace {

TEST(GemvUnitTest, TableIiThroughput)
{
    const GemvUnitConfig config;
    // 256 multipliers * 8 lanes / 16 bit-serial cycles = 128 MAC/cyc.
    EXPECT_DOUBLE_EQ(config.macsPerCycle(), 128.0);
    // = 256 GFLOP/s at 1 GHz: "hundreds of GFLOPS" (Sec. I).
    EXPECT_DOUBLE_EQ(config.sustainedFlops(), 256.0e9);
    // Weight demand 256 GB/s: beyond one DIMM's internal bandwidth,
    // so batch-1 GEMV is memory bound (Fig. 16's premise).
    EXPECT_DOUBLE_EQ(config.weightDemandBandwidth(), 256.0e9);
}

TEST(GemvUnitTest, ComputeCyclesScaleWithMacs)
{
    const GemvUnit unit;
    EXPECT_EQ(unit.computeCycles(0), 0u);
    const Cycles small = unit.computeCycles(128);
    const Cycles large = unit.computeCycles(128 * 1000);
    EXPECT_EQ(small, 1u + unit.config().pipelineDepth);
    EXPECT_EQ(large, 1000u + unit.config().pipelineDepth);
}

TEST(GemvUnitTest, MoreMultipliersFasterCompute)
{
    GemvUnitConfig narrow;
    narrow.multipliers = 32;
    GemvUnitConfig wide;
    wide.multipliers = 512;
    const GemvUnit a(narrow);
    const GemvUnit b(wide);
    EXPECT_GT(a.computeTime(1 << 20), b.computeTime(1 << 20));
}

TEST(GemvUnitTest, SpillOnlyBeyondBuffer)
{
    const GemvUnit unit;
    EXPECT_EQ(unit.spillBytes(1000), 0u);
    EXPECT_EQ(unit.spillBytes(256 * kKiB), 0u);
    EXPECT_EQ(unit.spillBytes(256 * kKiB + 100), 200u);
}

TEST(ActivationUnitTest, ReluLinearInValues)
{
    const ActivationUnit unit;
    EXPECT_EQ(unit.reluCycles(0), 0u);
    EXPECT_EQ(unit.reluCycles(1), 2u);
    EXPECT_EQ(unit.reluCycles(256), 2u);
    EXPECT_EQ(unit.reluCycles(257), 3u);
}

TEST(ActivationUnitTest, SoftmaxThreePassStructure)
{
    const ActivationUnit unit;
    EXPECT_EQ(unit.softmaxCycles(0, 128), 0u);
    const Cycles one = unit.softmaxCycles(1, 256);
    // max pass (1) + exp/sum (1 + tree 8) + divide (1 + 12) = 23.
    EXPECT_EQ(one, 23u);
    EXPECT_EQ(unit.softmaxCycles(10, 256), 10 * one);
}

TEST(NdpDimmTest, InternalBandwidthNearTableIiPeak)
{
    NdpDimm dimm;
    const double bw = dimm.internalBandwidth();
    // 4 ranks x 25.6 GB/s peak, ~94% achievable for row streams.
    EXPECT_GT(bw, 0.85 * 4 * 25.6e9);
    EXPECT_LE(bw, 4 * 25.6e9);
}

TEST(NdpDimmTest, SparseGemvMemoryBoundAtBatchOne)
{
    NdpDimm dimm;
    const auto time = dimm.sparseGemv(1024, 8192, 1);
    EXPECT_TRUE(time.memoryBound());
    EXPECT_GT(time.total, time.memory * 0.99);
}

TEST(NdpDimmTest, SparseGemvComputeBoundAtLargeBatch)
{
    NdpDimm dimm;
    const auto time = dimm.sparseGemv(1024, 8192, 16);
    EXPECT_FALSE(time.memoryBound());
    // Memory time is batch independent (weights read once).
    const auto b1 = dimm.sparseGemv(1024, 8192, 1);
    EXPECT_NEAR(time.memory, b1.memory, 1e-12);
}

TEST(NdpDimmTest, ZeroWorkIsFree)
{
    NdpDimm dimm;
    EXPECT_DOUBLE_EQ(dimm.sparseGemv(0, 8192, 1).total, 0.0);
    EXPECT_DOUBLE_EQ(dimm.attention(0, 8, 128, 128, 8).total, 0.0);
    EXPECT_DOUBLE_EQ(dimm.merge(0).total, 0.0);
    EXPECT_DOUBLE_EQ(dimm.relu(0).total, 0.0);
}

TEST(NdpDimmTest, AttentionScalesWithSequence)
{
    NdpDimm dimm;
    const auto short_seq = dimm.attention(1, 8, 128, 128, 8);
    const auto long_seq = dimm.attention(1, 8, 128, 1024, 8);
    EXPECT_GT(long_seq.total, 4.0 * short_seq.total);
}

TEST(NdpDimmTest, MergeIsCheap)
{
    NdpDimm dimm;
    // Merging a token's hidden state (16 KB) should take ~ a command
    // overhead, far below a GEMV over megabytes.
    const auto merge = dimm.merge(16 * kKiB);
    const auto gemv = dimm.sparseGemv(1024, 8192, 1);
    EXPECT_LT(merge.total, 0.05 * gemv.total);
}

/** Fig. 16 DSE invariant: batch-1 saturates early, batch-16 late. */
class GemvDseTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(GemvDseTest, MultiplierScalingRespectsRoofline)
{
    const std::uint32_t batch = GetParam();
    Seconds prev = 1e30;
    for (std::uint32_t mult : {32u, 64u, 128u, 256u, 512u}) {
        NdpDimmConfig config;
        config.gemv.multipliers = mult;
        NdpDimm dimm(config);
        const Seconds t = dimm.sparseGemv(2048, 8192, batch).total;
        EXPECT_LE(t, prev * (1.0 + 1e-9));
        prev = t;
    }
}

INSTANTIATE_TEST_SUITE_P(Batches, GemvDseTest,
                         ::testing::Values(1, 4, 16));

TEST(GemvDseTest, Batch1SaturatesBy128Multipliers)
{
    NdpDimmConfig small;
    small.gemv.multipliers = 128;
    NdpDimmConfig large;
    large.gemv.multipliers = 512;
    NdpDimm a(small);
    NdpDimm b(large);
    const Seconds t_small = a.sparseGemv(2048, 8192, 1).total;
    const Seconds t_large = b.sparseGemv(2048, 8192, 1).total;
    // Memory bound: no more than a few percent improvement.
    EXPECT_LT(t_small, 1.05 * t_large);
}

TEST(GemvDseTest, Batch16KeepsScalingTo512)
{
    NdpDimmConfig small;
    small.gemv.multipliers = 128;
    NdpDimmConfig large;
    large.gemv.multipliers = 512;
    NdpDimm a(small);
    NdpDimm b(large);
    const Seconds t_small = a.sparseGemv(2048, 8192, 16).total;
    const Seconds t_large = b.sparseGemv(2048, 8192, 16).total;
    EXPECT_GT(t_small, 1.5 * t_large);
}

TEST(NdpDimmTest, SharedProbeIsUsedAndMustMatchTheDimm)
{
    // Two devices on one probe simulate the rank once between them
    // and agree with a device that probes on its own; a probe of
    // another DIMM configuration is rejected.
    auto probe =
        std::make_shared<dram::BandwidthProbe>(dram::DimmConfig{});
    NdpDimm a(NdpDimmConfig{}, probe);
    NdpDimm b(NdpDimmConfig{}, probe);
    NdpDimm own;
    EXPECT_DOUBLE_EQ(a.sparseGemv(2048, 8192, 4).total,
                     own.sparseGemv(2048, 8192, 4).total);
    EXPECT_DOUBLE_EQ(b.internalBandwidth(), own.internalBandwidth());
    EXPECT_EQ(probe->simulations(), 1u);

    dram::DimmConfig other;
    other.rankParallelism = 2;
    EXPECT_THROW(
        NdpDimm(NdpDimmConfig{},
                std::make_shared<dram::BandwidthProbe>(other)),
        std::invalid_argument);
}

} // namespace
} // namespace hermes::ndp
