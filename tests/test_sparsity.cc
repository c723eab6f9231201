/**
 * @file
 * Tests for the synthetic activation-sparsity substrate: the three
 * Fig. 4 / Sec. III statistical properties every Hermes mechanism
 * relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "model/llm_config.hh"
#include "sparsity/stats.hh"
#include "sparsity/trace.hh"

namespace hermes::sparsity {
namespace {

model::LlmConfig
smallModel(std::uint32_t layers = 6)
{
    model::LlmConfig llm = model::llama2_13b();
    llm.layers = layers;
    return llm;
}

TEST(Trace, MeanActiveFractionMatchesConfig)
{
    ActivationTrace trace(smallModel(), SparsityConfig{}, 1);
    double sum = 0.0;
    const int tokens = 64;
    for (int t = 0; t < tokens; ++t) {
        trace.nextToken();
        sum += trace.currentActiveFraction();
    }
    EXPECT_NEAR(sum / tokens, 0.2, 0.02);
}

TEST(Trace, HotNeuronsCarry80PercentOfMass)
{
    ActivationTrace trace(smallModel(), SparsityConfig{}, 1);
    const auto profile = profileTrace(trace, 96, 16, 2);
    EXPECT_NEAR(profile.hotMassCoverage, 0.8, 0.08);
}

TEST(Trace, AdjacentTokenSimilarityExceeds90Percent)
{
    ActivationTrace trace(smallModel(), SparsityConfig{}, 1);
    const auto profile = profileTrace(trace, 96, 16, 2);
    EXPECT_GT(profile.similarity.byDistance[0], 0.90);
}

TEST(Trace, SimilarityDecaysThenPlateaus)
{
    // Fig. 4a is a within-context property; hold the context fixed.
    SparsityConfig config;
    config.phaseTokens = 0;
    ActivationTrace trace(smallModel(), config, 1);
    const auto profile = profileTrace(trace, 128, 50, 2);
    const auto &sim = profile.similarity.byDistance;
    EXPECT_GT(sim[0], sim[9]);   // Decay over 10 tokens...
    EXPECT_GT(sim[9], sim[24]);  // ... and further to 25 ...
    EXPECT_NEAR(sim[24], sim[49], 0.06); // ... then flat (Fig. 4a).
    EXPECT_GT(sim[49], 0.55);    // Plateau from the frequency skew.
}

TEST(Trace, LayerCorrelationBoostsChildProbability)
{
    ActivationTrace trace(smallModel(), SparsityConfig{}, 1);
    const auto profile = profileTrace(trace, 96, 16, 2);
    // Fig. 4b: conditioned on the sampled parent, activation
    // probability rises far above the ~0.2 marginal.
    EXPECT_GT(profile.parentConditional, 0.80);
    EXPECT_GT(profile.parentConditional,
              3.0 * profile.childMarginal);
}

TEST(Trace, DeterministicForSameSeed)
{
    ActivationTrace a(smallModel(), SparsityConfig{}, 1);
    ActivationTrace b(smallModel(), SparsityConfig{}, 1);
    for (int t = 0; t < 5; ++t) {
        a.nextToken();
        b.nextToken();
    }
    EXPECT_EQ(a.mlp(2).activeList, b.mlp(2).activeList);
    EXPECT_EQ(a.attn(1).activeList, b.attn(1).activeList);
}

/** FNV-1a over raw bytes, chained through `hash`. */
std::uint64_t
fnv1a(std::uint64_t hash, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** Hash of every block's mask, active list and private latents. */
std::uint64_t
hashBlocks(std::uint64_t hash, const ActivationTrace &trace)
{
    auto block = [&](const BlockTrace &b) {
        hash = fnv1a(hash, b.mask.data(), b.mask.size());
        hash = fnv1a(hash, b.activeList.data(),
                     b.activeList.size() * sizeof(std::uint32_t));
        hash = fnv1a(hash, b.ownLatent.data(),
                     b.ownLatent.size() * sizeof(double));
    };
    for (std::uint32_t l = 0; l < trace.llm().layers; ++l) {
        block(trace.attn(l));
        block(trace.mlp(l));
    }
    return hash;
}

/** Pinned hash of a 100-token stream on one block geometry. */
struct StreamPin
{
    std::uint32_t attnNeurons;
    std::uint32_t mlpNeurons;
    std::uint32_t batch;
    std::uint64_t hash;
};

// Blocks of 1, 1023, 1025 and 4096 neurons straddle the stepping
// chunk boundaries; 100 tokens cross two phase shifts.  Regenerate
// with HERMES_UPDATE_GOLDEN=1 only after an intentional trace change.
constexpr StreamPin kStreamPins[] = {
    // clang-format off
    {1, 1023, 1, 0x3447cada79bf9d06ULL},
    {1, 1023, 8, 0xdb44e62b6f3f3141ULL},
    {1025, 4096, 1, 0x4997eeb0f0e20e4dULL},
    {1025, 4096, 8, 0x64c1c76be966bc39ULL},
    // clang-format on
};

TEST(Trace, StepStreamIsPinned)
{
    const bool update = std::getenv("HERMES_UPDATE_GOLDEN") != nullptr;
    if (update)
        std::printf("constexpr StreamPin kStreamPins[] = {\n"
                    "    // clang-format off\n");
    for (const StreamPin &pin : kStreamPins) {
        model::LlmConfig llm = smallModel(3);
        llm.hidden = pin.attnNeurons;
        llm.ffnHidden = pin.mlpNeurons;
        llm.heads = 1;
        llm.kvHeads = 1;
        ActivationTrace trace(llm, SparsityConfig{}, pin.batch);
        std::uint64_t hash = hashBlocks(0xcbf29ce484222325ULL, trace);
        for (int t = 0; t < 100; ++t) {
            trace.nextToken();
            hash = hashBlocks(hash, trace);
        }
        if (update) {
            std::printf("    {%u, %u, %u, 0x%016llxULL},\n",
                        pin.attnNeurons, pin.mlpNeurons, pin.batch,
                        static_cast<unsigned long long>(hash));
            continue;
        }
        SCOPED_TRACE(testing::Message()
                     << pin.attnNeurons << "/" << pin.mlpNeurons
                     << " neurons, batch " << pin.batch);
        EXPECT_EQ(hash, pin.hash);
    }
    if (update) {
        std::printf("    // clang-format on\n};\n");
        GTEST_SKIP() << "printed fresh kStreamPins; paste them into "
                        "tests/test_sparsity.cc";
    }
}

/** A model of `layers` layers with blocks of the given sizes. */
model::LlmConfig
geometry(std::uint32_t layers, std::uint32_t attn_neurons,
         std::uint32_t mlp_neurons)
{
    model::LlmConfig llm = smallModel(layers);
    llm.hidden = attn_neurons;
    llm.ffnHidden = mlp_neurons;
    llm.heads = 1;
    llm.kvHeads = 1;
    return llm;
}

/** Whether two blocks hold bitwise the same stepping state and wiring. */
bool
sameBlock(const BlockTrace &a, const BlockTrace &b)
{
    return a.mask == b.mask && a.activeList == b.activeList &&
           a.parent1 == b.parent1 && a.parent2 == b.parent2 &&
           a.idOfRank == b.idOfRank && a.follower == b.follower &&
           a.ownLatent.size() == b.ownLatent.size() &&
           std::memcmp(a.ownLatent.data(), b.ownLatent.data(),
                       a.ownLatent.size() * sizeof(double)) == 0;
}

/** Every block of `got`'s layers equals the same block of `want`. */
void
expectSameLayers(const ActivationTrace &got, const ActivationTrace &want,
                 const std::string &where)
{
    ASSERT_EQ(got.tokenIndex(), want.tokenIndex()) << where;
    for (std::uint32_t l = 0; l < got.layers(); ++l) {
        EXPECT_TRUE(sameBlock(got.attn(l), want.attn(l)))
            << where << " attn " << l;
        EXPECT_TRUE(sameBlock(got.mlp(l), want.mlp(l)))
            << where << " mlp " << l;
    }
}

/** Hash of one layer's masks and active lists. */
std::uint64_t
layerPrint(const ActivationTrace &trace, std::uint32_t layer)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const BlockTrace *b : {&trace.attn(layer), &trace.mlp(layer)}) {
        hash = fnv1a(hash, b->mask.data(), b->mask.size());
        hash = fnv1a(hash, b->activeList.data(),
                     b->activeList.size() * sizeof(std::uint32_t));
    }
    return hash;
}

TEST(Trace, LayerParallelStepMatchesSerial)
{
    // Lanes jump over each other's layers of the one stream: every
    // lane count must leave every block bitwise where nextToken()
    // does, and show each visit the layer as the serial trace had it
    // after that token.  Blocks of 1/1023/1025/4096 neurons straddle
    // the stepping chunks; a one-layer model and five layers (which
    // no lane count from 2 to 4 divides) vary the lane shapes; a
    // phase shift every third token reorders ranks over and over.
    SparsityConfig config;
    config.phaseTokens = 3;
    const std::vector<std::uint32_t> chunks = {1, 2, 3, 5, 13};
    const std::uint32_t tokens = 24;
    for (const auto &[attn_n, mlp_n] :
         {std::pair{1u, 1023u}, std::pair{1025u, 4096u}}) {
        for (const std::uint32_t layers : {1u, 5u}) {
            for (const std::uint32_t batch : {1u, 8u}) {
                const model::LlmConfig llm =
                    geometry(layers, attn_n, mlp_n);
                // The serial trace at each chunk boundary, and what
                // each (token, layer) looked like.
                ActivationTrace serial(llm, config, batch);
                std::vector<ActivationTrace> at_boundary = {serial};
                std::vector<std::uint64_t> prints;
                for (const std::uint32_t chunk : chunks) {
                    for (std::uint32_t t = 0; t < chunk; ++t) {
                        serial.nextToken();
                        for (std::uint32_t l = 0; l < layers; ++l)
                            prints.push_back(layerPrint(serial, l));
                    }
                    at_boundary.push_back(serial);
                }
                for (std::uint32_t lanes = 1; lanes <= 8; ++lanes) {
                    const std::string where =
                        std::to_string(attn_n) + "/" +
                        std::to_string(mlp_n) + " x" +
                        std::to_string(layers) + " b" +
                        std::to_string(batch) + " lanes " +
                        std::to_string(lanes);
                    ActivationTrace trace(llm, config, batch, lanes);
                    expectSameLayers(trace, at_boundary[0],
                                     where + " built");
                    std::vector<std::uint64_t> seen(prints.size());
                    std::uint32_t done = 0;
                    for (std::size_t c = 0; c < chunks.size(); ++c) {
                        trace.stepTokens(
                            chunks[c], lanes,
                            [&](std::uint32_t t, std::uint32_t l) {
                                seen[(done + t) * layers + l] =
                                    layerPrint(trace, l);
                            });
                        done += chunks[c];
                        expectSameLayers(trace, at_boundary[c + 1],
                                         where + " token " +
                                             std::to_string(done));
                    }
                    ASSERT_EQ(done, tokens);
                    EXPECT_EQ(seen, prints) << where;
                    // Both go on from the same stream position.
                    trace.nextToken();
                    ActivationTrace next = serial;
                    next.nextToken();
                    expectSameLayers(trace, next, where + " after");
                }
            }
        }
    }
}

TEST(Trace, PrefixLayersMatchTheFullTrace)
{
    // A prefix builds only the first layers of a model's trace and
    // skips the rest of the stream: its layers must stay bitwise the
    // full trace's, token after token, across phase shifts, on one
    // lane or several, and again after a reset.
    SparsityConfig config;
    config.phaseTokens = 5;
    const model::LlmConfig llm = geometry(4, 320, 1280);
    for (const std::uint32_t batch : {1u, 8u}) {
        ActivationTrace full(llm, config, batch);
        struct Prefix
        {
            std::uint32_t threads;
            ActivationTrace trace;
        };
        std::vector<Prefix> prefixes;
        for (std::uint32_t layers = 1; layers < 4; ++layers) {
            for (const std::uint32_t threads : {1u, 2u, 3u}) {
                prefixes.push_back(
                    {threads, ActivationTrace(llm, config, batch,
                                              threads, layers)});
                EXPECT_EQ(prefixes.back().trace.layers(), layers);
                EXPECT_EQ(prefixes.back().trace.llm().layers, 4u);
            }
        }
        auto compare = [&](const std::string &when) {
            for (const Prefix &prefix : prefixes) {
                std::string where = "batch ";
                where += std::to_string(batch) + ", ";
                where += std::to_string(prefix.trace.layers()) +
                         " layers, ";
                where += std::to_string(prefix.threads) + " threads, ";
                expectSameLayers(prefix.trace, full, where + when);
            }
        };
        compare("built");
        for (std::uint32_t t = 1; t <= 100; ++t) {
            full.nextToken();
            for (Prefix &prefix : prefixes)
                prefix.trace.stepTokens(1, prefix.threads, {});
            compare("token " + std::to_string(t));
        }
        full.reset(3);
        for (Prefix &prefix : prefixes)
            prefix.trace.reset(3);
        compare("reset");
        full.nextToken();
        for (Prefix &prefix : prefixes)
            prefix.trace.nextToken();
        compare("reset + 1 token");
    }
}

TEST(Trace, BadInputThrowsNamingTheValue)
{
    auto message = [](auto &&build) {
        try {
            build();
        } catch (const std::invalid_argument &error) {
            return std::string(error.what());
        }
        return std::string("no throw");
    };
    EXPECT_THROW(ActivationTrace(smallModel(), SparsityConfig{}, 0),
                 std::invalid_argument);
    EXPECT_NE(message([] {
                  ActivationTrace(smallModel(), SparsityConfig{}, 0);
              }).find("got 0"),
              std::string::npos);
    for (const double fraction : {0.0, 1.0, -0.5, 1.5}) {
        SparsityConfig config;
        config.activeFraction = fraction;
        EXPECT_THROW(ActivationTrace(smallModel(), config, 1),
                     std::invalid_argument)
            << fraction;
        EXPECT_NE(message([&] {
                      ActivationTrace(smallModel(), config, 1);
                  }).find(std::to_string(fraction)),
                  std::string::npos)
            << fraction;
    }
    EXPECT_THROW(ActivationTrace(smallModel(2), SparsityConfig{}, 1, 1, 3),
                 std::invalid_argument);

    ActivationTrace trace(smallModel(3), SparsityConfig{}, 1);
    // Layer 2 is the last: its MLP feeds no next attention block.
    EXPECT_THROW(profileTrace(trace, 96, 16, 2), std::invalid_argument);
    EXPECT_NE(message([&] { profileTrace(trace, 96, 16, 2); })
                  .find("probe layer 2"),
              std::string::npos);
    EXPECT_THROW(profileTrace(trace, 16, 16, 0), std::invalid_argument);
    EXPECT_NE(message([&] { profileTrace(trace, 16, 16, 0); })
                  .find("16 tokens"),
              std::string::npos);
}

TEST(Trace, ExponentCacheKeysOnHotFraction)
{
    // Calibrated exponents are cached per thread.  A config that
    // differs only in hotFraction must not reuse another's exponent:
    // its probabilities match a trace built on a fresh thread.
    SparsityConfig wide;
    wide.hotFraction = 0.2;
    SparsityConfig narrow;
    narrow.hotFraction = 0.1;

    std::vector<double> fresh;
    std::thread([&] {
        fresh = ActivationTrace(smallModel(1), narrow, 1).mlp(0).probability;
    }).join();

    std::vector<double> after_wide;
    std::thread([&] {
        const ActivationTrace first(smallModel(1), wide, 1);
        after_wide =
            ActivationTrace(smallModel(1), narrow, 1).mlp(0).probability;
    }).join();
    EXPECT_EQ(after_wide, fresh);
}

TEST(Trace, DifferentSeedsDiffer)
{
    SparsityConfig other;
    other.seed = 99;
    ActivationTrace a(smallModel(), SparsityConfig{}, 1);
    ActivationTrace b(smallModel(), other, 1);
    a.nextToken();
    b.nextToken();
    EXPECT_NE(a.mlp(2).activeList, b.mlp(2).activeList);
}

TEST(Trace, ResetRestartsSequence)
{
    ActivationTrace trace(smallModel(), SparsityConfig{}, 1);
    trace.nextToken();
    const auto first = trace.mlp(1).activeList;
    trace.reset(0);
    trace.nextToken();
    EXPECT_EQ(trace.mlp(1).activeList, first);
    EXPECT_EQ(trace.tokenIndex(), 1u);
}

TEST(Trace, BatchUnionRaisesActiveFraction)
{
    ActivationTrace b1(smallModel(), SparsityConfig{}, 1);
    ActivationTrace b8(smallModel(), SparsityConfig{}, 8);
    double f1 = 0.0, f8 = 0.0;
    for (int t = 0; t < 16; ++t) {
        b1.nextToken();
        b8.nextToken();
        f1 += b1.currentActiveFraction();
        f8 += b8.currentActiveFraction();
    }
    EXPECT_GT(f8 / 16, 1.8 * (f1 / 16));
    EXPECT_LT(f8 / 16, 0.9); // Union never saturates fully.
}

TEST(Trace, MaskAndActiveListConsistent)
{
    ActivationTrace trace(smallModel(), SparsityConfig{}, 1);
    trace.nextToken();
    const BlockTrace &block = trace.mlp(3);
    std::uint64_t mask_count = 0;
    for (const auto bit : block.mask)
        mask_count += bit;
    EXPECT_EQ(mask_count, block.activeCount());
    for (const auto id : block.activeList)
        EXPECT_TRUE(block.mask[id]);
}

TEST(Trace, ParentsPointIntoParentBlock)
{
    ActivationTrace trace(smallModel(), SparsityConfig{}, 1);
    // MLP parents live in the same layer's attention block.
    const BlockTrace &mlp = trace.mlp(2);
    const BlockTrace &attn = trace.attn(2);
    for (std::uint32_t i = 0; i < mlp.neurons(); ++i) {
        EXPECT_LT(mlp.parent1[i], attn.neurons());
        EXPECT_LT(mlp.parent2[i], attn.neurons());
    }
}

TEST(Trace, CalibratedExponentHitsTarget)
{
    SparsityConfig config;
    const double exponent =
        ActivationTrace::calibrateExponent(16384, config);
    EXPECT_GT(exponent, 0.3);
    EXPECT_LT(exponent, 2.5);
}

TEST(Trace, ParallelExponentCalibrationMatchesSerial)
{
    // Three threads take two halvings of the bisection per round; the
    // exponent must come out bitwise as one thread's 40 halvings.
    SparsityConfig steep;
    steep.activeFraction = 0.1;
    steep.targetHotMass = 0.9;
    steep.hotFraction = 0.15;
    SparsityConfig flat;
    flat.activeFraction = 0.35;
    flat.targetHotMass = 0.6;
    flat.hotFraction = 0.3;
    for (const SparsityConfig &config : {steep, flat}) {
        for (const std::uint32_t neurons :
             {1u, 7u, 100u, 5120u, 9216u, 20480u, 36864u}) {
            const double serial =
                ActivationTrace::calibrateExponent(neurons, config, 1);
            for (const std::uint32_t threads : {3u, 4u}) {
                const double parallel = ActivationTrace::calibrateExponent(
                    neurons, config, threads);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel),
                          std::bit_cast<std::uint64_t>(serial))
                    << neurons << " neurons, " << threads << " threads, "
                    << "target " << config.targetHotMass;
            }
        }
    }
    // A trace built on four threads by a thread whose exponent cache
    // is empty takes the parallel calibration.
    std::vector<double> serial_probability;
    std::vector<double> parallel_probability;
    std::thread([&] {
        serial_probability =
            ActivationTrace(smallModel(2), flat, 3, 1).mlp(1).probability;
    }).join();
    std::thread([&] {
        parallel_probability =
            ActivationTrace(smallModel(2), flat, 3, 4).mlp(1).probability;
    }).join();
    EXPECT_EQ(parallel_probability, serial_probability);
}

TEST(Trace, PhaseDriftChangesHotMembership)
{
    // Sec. III-B/IV-C: ~52% of the initially hot neurons change
    // activity during inference.  With the default drift, a large
    // minority of the hot set must change identity over ~150 tokens
    // while the marginal statistics stay put.
    model::LlmConfig llm = smallModel(3);
    ActivationTrace trace(llm, SparsityConfig{}, 1);

    auto hot_set = [&] {
        const BlockTrace &block = trace.mlp(1);
        const std::size_t hot =
            static_cast<std::size_t>(0.2 * block.neurons());
        std::vector<std::uint32_t> ids(block.idOfRank.begin(),
                                       block.idOfRank.begin() +
                                           static_cast<std::ptrdiff_t>(
                                               hot));
        std::sort(ids.begin(), ids.end());
        return ids;
    };

    const auto before = hot_set();
    for (int t = 0; t < 150; ++t)
        trace.nextToken();
    const auto after = hot_set();

    std::vector<std::uint32_t> common;
    std::set_intersection(before.begin(), before.end(), after.begin(),
                          after.end(), std::back_inserter(common));
    const double retained = static_cast<double>(common.size()) /
                            static_cast<double>(before.size());
    EXPECT_LT(retained, 0.9);
    EXPECT_GT(retained, 0.2);

    // Marginals survive the drift.
    double fraction = 0.0;
    for (int t = 0; t < 16; ++t) {
        trace.nextToken();
        fraction += trace.currentActiveFraction();
    }
    EXPECT_NEAR(fraction / 16, 0.2, 0.03);
}

TEST(Trace, DriftDisabledKeepsHotSetFixed)
{
    model::LlmConfig llm = smallModel(3);
    SparsityConfig config;
    config.phaseTokens = 0;
    ActivationTrace trace(llm, config, 1);
    const auto before = trace.mlp(1).idOfRank;
    for (int t = 0; t < 150; ++t)
        trace.nextToken();
    EXPECT_EQ(trace.mlp(1).idOfRank, before);
}

TEST(Stats, MaskSimilarityBasics)
{
    std::vector<std::uint8_t> a = {1, 1, 0, 0};
    std::vector<std::uint8_t> b = {1, 0, 1, 0};
    EXPECT_DOUBLE_EQ(maskSimilarity(a, a), 1.0);
    EXPECT_DOUBLE_EQ(maskSimilarity(a, b), 0.5);
    std::vector<std::uint8_t> empty = {0, 0, 0, 0};
    EXPECT_DOUBLE_EQ(maskSimilarity(empty, b), 0.0);
}

TEST(Stats, HotMassCoverageBasics)
{
    // One neuron holds everything.
    EXPECT_DOUBLE_EQ(hotMassCoverage({1.0, 0.0, 0.0, 0.0, 0.0}, 0.2),
                     1.0);
    // Uniform: top 20% holds 20%.
    EXPECT_NEAR(hotMassCoverage(std::vector<double>(10, 0.1), 0.2),
                0.2, 1e-9);
    EXPECT_DOUBLE_EQ(hotMassCoverage({}, 0.2), 0.0);
}

/** The Fig. 4 statistics hold across models and batch sizes. */
struct TraceParam
{
    const char *model;
    std::uint32_t batch;
};

class TraceSweepTest : public ::testing::TestWithParam<TraceParam>
{
};

TEST_P(TraceSweepTest, CoreStatisticsHold)
{
    model::LlmConfig llm = model::modelByName(GetParam().model);
    llm.layers = 4;
    ActivationTrace trace(llm, SparsityConfig{}, GetParam().batch);
    const auto profile = profileTrace(trace, 64, 10, 1);
    EXPECT_GT(profile.similarity.byDistance[0], 0.85);
    EXPECT_GT(profile.parentConditional, 2.0 * profile.childMarginal);
    EXPECT_GT(profile.meanActiveFraction, 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndBatches, TraceSweepTest,
    ::testing::Values(TraceParam{"OPT-13B", 1},
                      TraceParam{"LLaMA2-13B", 4},
                      TraceParam{"Falcon-40B", 1},
                      TraceParam{"OPT-66B", 2}));

} // namespace
} // namespace hermes::sparsity
