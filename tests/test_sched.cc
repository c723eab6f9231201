/**
 * @file
 * Tests for the scheduling stack: offline ILP partitioner (validated
 * against exhaustive optima), the lightweight predictor, the online
 * mapper, and the window-based rebalancer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "model/llm_config.hh"
#include "sched/ilp_partition.hh"
#include "sched/mapper.hh"
#include "sched/placement.hh"
#include "sched/predictor.hh"
#include "sched/router.hh"
#include "sched/window_scheduler.hh"

namespace hermes::sched {
namespace {

// ---------------------------------------------------------------
// Placement.
// ---------------------------------------------------------------

TEST(Placement, RoundRobinSpreadsNeurons)
{
    model::LlmConfig llm = model::llama2_13b();
    llm.layers = 2;
    const ModelPlacement placement =
        makeRoundRobinPlacement(llm, 4);
    const auto counts = placement.mlp[0].dimmCounts();
    const std::uint64_t expected = llm.mlpNeuronsPerLayer() / 4;
    for (const auto count : counts)
        EXPECT_NEAR(static_cast<double>(count),
                    static_cast<double>(expected), 1.0);
    EXPECT_EQ(placement.mlp[0].gpuResidentCount(), 0u);
}

TEST(Placement, GpuBytesTrackResidents)
{
    model::LlmConfig llm = model::llama2_13b();
    llm.layers = 1;
    ModelPlacement placement = makeRoundRobinPlacement(llm, 2);
    placement.mlp[0].setOnGpu(0, true);
    placement.mlp[0].setOnGpu(5, true);
    placement.attn[0].setOnGpu(1, true);
    EXPECT_EQ(placement.gpuBytesUsed(llm),
              2 * llm.mlpNeuronBytes() + llm.attnNeuronBytes());
}

// ---------------------------------------------------------------
// ILP partitioner.
// ---------------------------------------------------------------

PartitionProblem
tinyProblem(std::vector<double> freq, Bytes gpu_budget,
            std::uint32_t dimms = 2)
{
    PartitionProblem problem;
    BlockProblem block;
    block.frequency = std::move(freq);
    block.neuronBytes = 100;
    block.gpuTimePerNeuron = 1.0e-6;
    block.dimmTimePerNeuron = 8.0e-6;
    problem.blocks.push_back(std::move(block));
    problem.syncTime = 1.0e-6;
    problem.gpuBudget = gpu_budget;
    problem.dimmBudgets.assign(dimms, 1 * kMiB);
    return problem;
}

TEST(IlpPartition, ObjectiveMatchesHandComputation)
{
    const PartitionProblem problem =
        tinyProblem({1.0, 0.5, 0.25}, 1000);
    PartitionAssignment assignment;
    assignment.location = {{-1, 0, 1}};
    // GPU: 1.0*1us + 2*1us = 3us; DIMM0: 0.5*8us = 4us; DIMM1: 2us.
    EXPECT_NEAR(IlpPartitioner::objective(problem, assignment), 4.0e-6,
                1e-12);
}

TEST(IlpPartition, FeasibilityChecksBudgets)
{
    const PartitionProblem problem = tinyProblem({1.0, 0.5}, 100);
    PartitionAssignment too_hot;
    too_hot.location = {{-1, -1}}; // 200 B > 100 B GPU budget.
    EXPECT_FALSE(IlpPartitioner::feasible(problem, too_hot));
    PartitionAssignment fits;
    fits.location = {{-1, 0}};
    EXPECT_TRUE(IlpPartitioner::feasible(problem, fits));
}

TEST(IlpPartition, SolverMatchesExhaustiveOnTinyInstances)
{
    const IlpPartitioner solver;
    // Several shapes: skewed, uniform, tight and loose budgets.
    const std::vector<std::vector<double>> shapes = {
        {0.9, 0.7, 0.5, 0.3, 0.1, 0.05},
        {0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
        {1.0, 0.02, 0.02, 0.02, 0.02, 0.02},
    };
    for (const auto &shape : shapes) {
        for (const Bytes budget : {0ull, 200ull, 600ull}) {
            const PartitionProblem problem =
                tinyProblem(shape, budget);
            const PartitionResult greedy = solver.solve(problem);
            const PartitionResult exact =
                solver.solveExhaustive(problem);
            EXPECT_TRUE(IlpPartitioner::feasible(
                problem, greedy.assignment));
            // LPT + waterline is near-optimal; allow 15% slack.
            EXPECT_LE(greedy.objective, 1.15 * exact.objective + 1e-12)
                << "budget=" << budget;
        }
    }
}

TEST(IlpPartition, HotNeuronsGoToGpuFirst)
{
    // Budget for exactly two neurons: the two most frequent must be
    // the ones promoted.
    const PartitionProblem problem =
        tinyProblem({0.9, 0.1, 0.8, 0.2}, 200);
    const PartitionResult result = IlpPartitioner().solve(problem);
    const auto &loc = result.assignment.location[0];
    EXPECT_EQ(loc[0], -1);
    EXPECT_EQ(loc[2], -1);
    EXPECT_GE(loc[1], 0);
    EXPECT_GE(loc[3], 0);
}

TEST(IlpPartition, ZeroBudgetKeepsEverythingCold)
{
    const PartitionProblem problem =
        tinyProblem({0.9, 0.8, 0.7}, 0);
    const PartitionResult result = IlpPartitioner().solve(problem);
    for (const auto loc : result.assignment.location[0])
        EXPECT_GE(loc, 0);
}

TEST(IlpPartition, ColdNeuronsBalancedAcrossDimms)
{
    std::vector<double> freq(64, 0.0);
    for (std::size_t i = 0; i < freq.size(); ++i)
        freq[i] = 1.0 / static_cast<double>(i + 1);
    const PartitionProblem problem = tinyProblem(freq, 0, 4);
    const PartitionResult result = IlpPartitioner().solve(problem);
    std::vector<double> mass(4, 0.0);
    for (std::size_t i = 0; i < freq.size(); ++i)
        mass[static_cast<std::size_t>(
            result.assignment.location[0][i])] += freq[i];
    const double max_mass = *std::max_element(mass.begin(), mass.end());
    const double min_mass = *std::min_element(mass.begin(), mass.end());
    EXPECT_LT(max_mass / min_mass, 1.25);
}

TEST(IlpPartition, RespectsDimmCapacity)
{
    PartitionProblem problem = tinyProblem({0.5, 0.5, 0.5, 0.5}, 0);
    problem.dimmBudgets = {200, 200}; // Two neurons per DIMM max.
    const PartitionResult result = IlpPartitioner().solve(problem);
    EXPECT_TRUE(IlpPartitioner::feasible(problem, result.assignment));
}

TEST(IlpPartition, ColdOverflowThrowsNamingBlockAndBudget)
{
    // Four cold neurons, room for two: a library error, not an exit.
    PartitionProblem problem = tinyProblem({0.5, 0.5, 0.5, 0.5}, 0);
    problem.dimmBudgets = {100, 100};
    EXPECT_THROW(IlpPartitioner().solve(problem), std::runtime_error);
    try {
        IlpPartitioner().solve(problem);
    } catch (const std::runtime_error &error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("block 0"), std::string::npos) << message;
        EXPECT_NE(message.find("200 bytes"), std::string::npos)
            << message;
    }
}

TEST(IlpPartition, NoDimmBudgetThrowsNamingTheCount)
{
    PartitionProblem problem = tinyProblem({0.5, 0.25}, 100);
    problem.dimmBudgets.clear();
    EXPECT_THROW(IlpPartitioner().solve(problem), std::invalid_argument);
    try {
        IlpPartitioner().solve(problem);
        ADD_FAILURE() << "solve accepted a problem with no DIMM budget";
    } catch (const std::invalid_argument &error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("got 0"), std::string::npos) << message;
    }
}

TEST(IlpPartition, ParallelSolveMatchesSerial)
{
    // Twelve blocks whose frequencies tie heavily, so each block's
    // hot order is std::sort's tie order: the per-block sorts on four
    // threads must leave every assignment as one thread does.
    Rng rng(12);
    PartitionProblem problem;
    for (std::uint32_t b = 0; b < 12; ++b) {
        BlockProblem block;
        block.frequency.resize(500 + 37 * b);
        for (double &f : block.frequency)
            f = static_cast<double>(rng.below(6)) / 8.0;
        block.neuronBytes = b % 2 == 0 ? 100 : 300;
        block.gpuTimePerNeuron = 1.0e-6;
        block.dimmTimePerNeuron = (4.0 + b % 3) * 1.0e-6;
        problem.blocks.push_back(std::move(block));
    }
    problem.syncTime = 1.0e-6;
    problem.gpuBudget = 200000;
    problem.dimmBudgets.assign(4, 1 * kMiB);
    const PartitionResult serial = IlpPartitioner().solve(problem);
    for (const std::uint32_t threads : {2u, 4u, 16u}) {
        const PartitionResult parallel =
            IlpPartitioner().solve(problem, threads);
        EXPECT_EQ(parallel.assignment.location,
                  serial.assignment.location)
            << threads << " threads";
        EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel.objective),
                  std::bit_cast<std::uint64_t>(serial.objective))
            << threads << " threads";
    }
}

TEST(IlpPartition, MoreGpuBudgetNeverHurts)
{
    std::vector<double> freq(32);
    for (std::size_t i = 0; i < freq.size(); ++i)
        freq[i] = std::pow(0.8, static_cast<double>(i));
    Seconds prev = 1e30;
    for (const Bytes budget : {0ull, 400ull, 800ull, 1600ull}) {
        const PartitionResult result =
            IlpPartitioner().solve(tinyProblem(freq, budget));
        EXPECT_LE(result.objective, prev + 1e-15);
        prev = result.objective;
    }
}

// ---------------------------------------------------------------
// Predictor.
// ---------------------------------------------------------------

TEST(Predictor, FrequencyInitBucketsInto16Stages)
{
    BlockPredictor predictor(4, PredictorConfig{});
    predictor.initFromFrequency({0.95, 0.5, 0.1, 0.0});
    EXPECT_EQ(predictor.state(0), 15);
    EXPECT_EQ(predictor.state(1), 8);
    EXPECT_EQ(predictor.state(2), 1);
    EXPECT_EQ(predictor.state(3), 0);
}

TEST(Predictor, FsmUpdatePlusFourMinusOne)
{
    BlockPredictor predictor(2, PredictorConfig{});
    predictor.initFromFrequency({0.5, 0.7}); // States 8 and 11.
    predictor.update({1, 0});
    EXPECT_EQ(predictor.state(0), 12); // 8 + 4 (Fig. 7a example).
    EXPECT_EQ(predictor.state(1), 10); // 11 - 1.
}

TEST(Predictor, FsmSaturatesAtBounds)
{
    BlockPredictor predictor(2, PredictorConfig{});
    predictor.initFromFrequency({0.99, 0.0});
    for (int t = 0; t < 10; ++t)
        predictor.update({1, 0});
    EXPECT_EQ(predictor.state(0), 15);
    EXPECT_EQ(predictor.state(1), 0);
}

TEST(Predictor, DecisionRuleCombinesTokenAndLayer)
{
    PredictorConfig config; // lambda=6, T=15.
    BlockPredictor predictor(3, config);
    predictor.initFromFrequency({0.25, 0.65, 0.99}); // s1 = 4, 10, 15.
    predictor.setCorrelation({0, 1, 2}, {1, 2, 0});

    // Parents 0 and 1 active, parent 2 idle.
    std::vector<std::uint8_t> parent_mask = {1, 1, 0};
    std::vector<std::uint8_t> out;
    predictor.predict(&parent_mask, out);
    // Neuron 0: 4 + 6*2 = 16 >= 15 -> active.
    EXPECT_TRUE(out[0]);
    // Neuron 1: 10 + 6*1 = 16 >= 15 -> active.
    EXPECT_TRUE(out[1]);
    // Neuron 2: 15 + 6*1 (parent2=0 active) -> active.
    EXPECT_TRUE(out[2]);

    std::vector<std::uint8_t> idle_parents = {0, 0, 0};
    predictor.predict(&idle_parents, out);
    EXPECT_FALSE(out[0]); // 4 < 15.
    EXPECT_FALSE(out[1]); // 10 < 15.
    EXPECT_TRUE(out[2]);  // Saturated state alone suffices (>=).
}

TEST(Predictor, HotClassificationUsesTh)
{
    PredictorConfig config; // Th = 10.
    BlockPredictor predictor(2, config);
    predictor.initFromFrequency({0.65, 0.6}); // States 10, 9.
    EXPECT_TRUE(predictor.isHot(0));
    EXPECT_FALSE(predictor.isHot(1));
}

TEST(Predictor, StorageMatchesPaperClaims)
{
    // LLaMA-7B: 32 layers x (4K attn + 10.5K MLP) at 4 bits ~ 232 KB.
    model::LlmConfig llm = model::llama2_13b();
    llm.layers = 32;
    llm.hidden = 4096;
    llm.ffnHidden = 11008;
    llm.heads = 32;
    llm.kvHeads = 32;
    const ModelPredictor predictor(llm, PredictorConfig{});
    EXPECT_NEAR(static_cast<double>(predictor.stateTableBytes()),
                232.0 * 1024, 0.05 * 232 * 1024);
    EXPECT_LT(predictor.totalBytes(), 1 * kMiB);
}

TEST(Predictor, HighAccuracyOnSyntheticTrace)
{
    model::LlmConfig llm = model::llama2_13b();
    llm.layers = 6;
    sparsity::ActivationTrace trace(llm, sparsity::SparsityConfig{}, 1);
    ModelPredictor predictor(llm, PredictorConfig{});
    predictor.calibrate(trace, 64);
    trace.reset(1);
    std::vector<std::vector<std::uint8_t>> attn_masks, mlp_masks;
    for (int t = 0; t < 64; ++t) {
        trace.nextToken();
        predictor.stepToken(trace, attn_masks, mlp_masks);
    }
    // Sec. IV-C1 claims ~98%; require >= 94% on the synthetic trace.
    EXPECT_GT(predictor.metrics().accuracy(), 0.94);
    EXPECT_GT(predictor.metrics().recall(), 0.85);
}

TEST(Predictor, ProfileOfMoreLayersThanTheTraceThrows)
{
    model::LlmConfig llm = model::llama2_13b();
    llm.layers = 2;
    sparsity::ActivationTrace trace(llm, sparsity::SparsityConfig{}, 1);
    EXPECT_THROW(profileActivations(trace, 4, 3), std::invalid_argument);
    try {
        profileActivations(trace, 4, 3);
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("3 layers"),
                  std::string::npos)
            << error.what();
    }
    EXPECT_EQ(profileActivations(trace, 4, 2).mlp.size(), 2u);
}

TEST(Predictor, SampledCorrelationIsPredictive)
{
    // Neighboring ranks share latent slots, so several parents are
    // statistically interchangeable; the estimator must find parents
    // whose conditional predictive power matches the true wiring
    // (identity recovery is ill-posed by design).
    model::LlmConfig llm = model::llama2_13b();
    llm.layers = 3;
    llm.hidden = 512;
    llm.ffnHidden = 1024;
    llm.heads = 8;
    llm.kvHeads = 8;
    // Correlation sampling happens offline within one context.
    sparsity::SparsityConfig sparsity_config;
    sparsity_config.phaseTokens = 0;
    sparsity::ActivationTrace trace(llm, sparsity_config, 1);
    const auto [parent1, parent2] =
        sampleCorrelation(trace, 1, /*child_is_mlp=*/true, 256);

    // Fresh evaluation segment: compare P(child | sampled parent)
    // against P(child | true parent).
    trace.reset(7);
    const auto &mlp = trace.mlp(1);
    const auto &attn = trace.attn(1);
    std::uint64_t sampled_joint = 0, sampled_parent = 0;
    std::uint64_t true_joint = 0, true_parent = 0;
    for (int t = 0; t < 128; ++t) {
        trace.nextToken();
        for (std::uint32_t i = 0; i < mlp.neurons(); ++i) {
            const bool child = mlp.mask[i] != 0;
            if (attn.mask[parent1[i]]) {
                ++sampled_parent;
                sampled_joint += child;
            }
            if (attn.mask[mlp.parent1[i]]) {
                ++true_parent;
                true_joint += child;
            }
        }
    }
    const double sampled_cond =
        static_cast<double>(sampled_joint) / sampled_parent;
    const double true_cond =
        static_cast<double>(true_joint) / true_parent;
    EXPECT_GT(sampled_cond, 0.9 * true_cond);
    EXPECT_GT(sampled_cond, 0.5); // Far above the ~0.2 marginal.
}

/** Slow reference of BlockPredictor: the scalar per-neuron loops. */
struct ReferencePredictor
{
    PredictorConfig config;
    std::vector<std::uint8_t> states;
    std::vector<std::uint8_t> initialStates;
    std::vector<std::uint32_t> parent1;
    std::vector<std::uint32_t> parent2;

    void
    initFromFrequency(const std::vector<double> &frequency)
    {
        for (std::size_t i = 0; i < frequency.size(); ++i) {
            const double f = std::clamp(frequency[i], 0.0, 1.0);
            states[i] = static_cast<std::uint8_t>(std::min<std::uint32_t>(
                config.maxState,
                static_cast<std::uint32_t>(f * (config.maxState + 1))));
        }
        initialStates = states;
    }

    std::uint32_t
    activeParents(const std::vector<std::uint8_t> &mask,
                  std::size_t i) const
    {
        std::uint32_t s2 = 0;
        if (parent1[i] < mask.size() && mask[parent1[i]])
            ++s2;
        if (parent2[i] < mask.size() && mask[parent2[i]])
            ++s2;
        return s2;
    }

    std::vector<std::uint8_t>
    predict(const std::vector<std::uint8_t> *parent_mask) const
    {
        std::vector<std::uint8_t> out(states.size());
        const bool have_parents =
            parent_mask != nullptr && !parent1.empty();
        for (std::size_t i = 0; i < states.size(); ++i) {
            if (have_parents) {
                const std::uint32_t score =
                    states[i] +
                    config.lambda * activeParents(*parent_mask, i);
                out[i] = score >= config.threshold;
            } else {
                out[i] = states[i] >= config.hotThreshold;
            }
        }
        return out;
    }

    void
    update(const std::vector<std::uint8_t> &actual)
    {
        for (std::size_t i = 0; i < states.size(); ++i) {
            if (actual[i]) {
                states[i] = static_cast<std::uint8_t>(
                    std::min<std::uint32_t>(config.maxState,
                                            states[i] +
                                                config.activateStep));
            } else {
                states[i] = static_cast<std::uint8_t>(
                    states[i] >= config.decayStep
                        ? states[i] - config.decayStep
                        : 0);
            }
        }
    }

    std::vector<std::uint32_t>
    hotScores(const std::vector<std::uint8_t> *parent_mask,
              bool use_token, bool use_layer) const
    {
        std::vector<std::uint32_t> out(states.size());
        const bool have_parents =
            use_layer && parent_mask != nullptr && !parent1.empty();
        const auto &base = use_token ? states : initialStates;
        for (std::size_t i = 0; i < states.size(); ++i) {
            std::uint32_t score = base.empty() ? 0 : base[i];
            if (have_parents)
                score += config.lambda * activeParents(*parent_mask, i);
            out[i] = score;
        }
        return out;
    }
};

/** Random mask whose active entries are arbitrary nonzero bytes. */
std::vector<std::uint8_t>
randomMask(Rng &rng, std::size_t n, double active)
{
    std::vector<std::uint8_t> mask(n);
    for (auto &bit : mask)
        bit = rng.chance(active)
                  ? static_cast<std::uint8_t>(1 + rng.below(255))
                  : 0;
    return mask;
}

TEST(Predictor, KernelsMatchScalarReference)
{
    PredictorConfig odd;
    odd.activateStep = 3;
    odd.decayStep = 2;
    odd.lambda = 4;
    odd.threshold = 11;
    odd.hotThreshold = 7;
    Rng rng(99);
    for (const PredictorConfig &config : {PredictorConfig{}, odd}) {
        for (const std::uint32_t n : {1u, 33u, 1500u}) {
            // Parent masks: empty, smaller than the parent ids reach
            // (out-of-range ids count as idle), and covering them.
            for (const std::uint32_t parent_n : {0u, n / 2 + 1, n + 8}) {
                for (const bool with_init : {false, true}) {
                    for (const bool with_tables : {false, true}) {
                        SCOPED_TRACE(testing::Message()
                                     << "n=" << n
                                     << " parent_n=" << parent_n
                                     << " init=" << with_init
                                     << " tables=" << with_tables
                                     << " lambda=" << config.lambda);
                        BlockPredictor fast(n, config);
                        ReferencePredictor slow{
                            config, std::vector<std::uint8_t>(n, 0),
                            {}, {}, {}};
                        if (with_init) {
                            std::vector<double> frequency(n);
                            for (auto &f : frequency)
                                f = rng.uniform() * 1.1 - 0.05;
                            fast.initFromFrequency(frequency);
                            slow.initFromFrequency(frequency);
                        }
                        if (with_tables) {
                            std::vector<std::uint32_t> p1(n), p2(n);
                            for (std::uint32_t i = 0; i < n; ++i) {
                                p1[i] = static_cast<std::uint32_t>(
                                    rng.below(n + 8));
                                p2[i] = static_cast<std::uint32_t>(
                                    rng.below(n + 8));
                            }
                            slow.parent1 = p1;
                            slow.parent2 = p2;
                            fast.setCorrelation(std::move(p1),
                                                std::move(p2));
                        }
                        std::vector<std::uint8_t> predicted;
                        std::vector<std::uint32_t> scores;
                        for (int token = 0; token < 6; ++token) {
                            const auto parents =
                                randomMask(rng, parent_n, 0.5);
                            for (const auto *mask :
                                 {static_cast<decltype(&parents)>(
                                      nullptr),
                                  &parents}) {
                                fast.predict(mask, predicted);
                                EXPECT_EQ(predicted, slow.predict(mask));
                                for (const bool use_token :
                                     {false, true}) {
                                    for (const bool use_layer :
                                         {false, true}) {
                                        fast.hotScores(mask, use_token,
                                                       use_layer, scores);
                                        EXPECT_EQ(scores,
                                                  slow.hotScores(
                                                      mask, use_token,
                                                      use_layer));
                                    }
                                }
                            }
                            const auto actual = randomMask(rng, n, 0.3);
                            fast.update(actual);
                            slow.update(actual);
                            for (std::uint32_t i = 0; i < n; ++i)
                                ASSERT_EQ(fast.state(i), slow.states[i]);
                        }
                    }
                }
            }
        }
    }
}

TEST(PredictionMetricsTest, BulkTallyMatchesPerElement)
{
    Rng rng(17);
    for (const std::size_t n : {0u, 1u, 7u, 64u, 1000u, 4099u}) {
        std::vector<std::uint8_t> predicted(n);
        std::vector<std::uint8_t> actual(n);
        for (std::size_t i = 0; i < n; ++i) {
            // Any nonzero byte counts as active.
            predicted[i] = rng.chance(0.4)
                               ? static_cast<std::uint8_t>(
                                     1 + rng.below(255))
                               : 0;
            actual[i] = rng.chance(0.3) ? 1 : 0;
        }
        PredictionMetrics bulk;
        bulk.tally(true, false); // Bulk tallies accumulate.
        PredictionMetrics reference = bulk;
        bulk.tallyMasks(predicted, actual);
        for (std::size_t i = 0; i < n; ++i)
            reference.tally(predicted[i] != 0, actual[i] != 0);
        SCOPED_TRACE(n);
        EXPECT_EQ(bulk.truePositive, reference.truePositive);
        EXPECT_EQ(bulk.trueNegative, reference.trueNegative);
        EXPECT_EQ(bulk.falsePositive, reference.falsePositive);
        EXPECT_EQ(bulk.falseNegative, reference.falseNegative);
    }
}

TEST(PredictionMetricsTest, CountsAndRates)
{
    PredictionMetrics metrics;
    metrics.tally(true, true);
    metrics.tally(true, false);
    metrics.tally(false, true);
    metrics.tally(false, false);
    EXPECT_EQ(metrics.total(), 4u);
    EXPECT_DOUBLE_EQ(metrics.accuracy(), 0.5);
    EXPECT_DOUBLE_EQ(metrics.recall(), 0.5);
    EXPECT_DOUBLE_EQ(metrics.precision(), 0.5);
}

// ---------------------------------------------------------------
// Mapper.
// ---------------------------------------------------------------

TEST(Mapper, PromotesHotAndEvictsColdest)
{
    // Scores: 12 (hot, off-GPU), 3 (cold resident), 11 (hot
    // resident), 2 (cold, off-GPU).
    const std::vector<std::uint32_t> scores = {12, 3, 11, 2};
    BlockPlacement placement(4, 2);
    placement.setOnGpu(1, true);
    placement.setOnGpu(2, true);

    const AdjustmentResult result =
        NeuronMapper::adjustBlock(placement, scores, 100);
    EXPECT_EQ(result.promotions, 1u);
    EXPECT_EQ(result.evictions, 1u);
    EXPECT_EQ(result.pcieBytes, 100u);
    EXPECT_TRUE(placement.onGpu(0));  // Promoted.
    EXPECT_FALSE(placement.onGpu(1)); // Evicted (lowest score).
    EXPECT_TRUE(placement.onGpu(2));  // Untouched.
}

TEST(Mapper, NoChurnWhenResidentsAreHotter)
{
    const std::vector<std::uint32_t> scores = {10, 15};
    BlockPlacement placement(2, 1);
    placement.setOnGpu(1, true);
    const AdjustmentResult result =
        NeuronMapper::adjustBlock(placement, scores, 100);
    EXPECT_EQ(result.promotions, 0u);
    EXPECT_TRUE(placement.onGpu(1));
}

TEST(Mapper, HysteresisSuppressesMarginalSwaps)
{
    // Score difference of 1 is inside the default hysteresis of 2.
    const std::vector<std::uint32_t> scores = {12, 11};
    BlockPlacement placement(2, 1);
    placement.setOnGpu(1, true);
    const AdjustmentResult result =
        NeuronMapper::adjustBlock(placement, scores, 100);
    EXPECT_EQ(result.promotions, 0u);

    AdjustmentPolicy eager;
    eager.hysteresis = 0;
    const AdjustmentResult eager_result =
        NeuronMapper::adjustBlock(placement, scores, 100, eager);
    EXPECT_EQ(eager_result.promotions, 1u);
}

TEST(Mapper, SwapCapBoundsChurn)
{
    std::vector<std::uint32_t> scores(64, 15);
    for (std::uint32_t i = 32; i < 64; ++i)
        scores[i] = 0;
    BlockPlacement placement(64, 2);
    for (std::uint32_t i = 32; i < 64; ++i)
        placement.setOnGpu(i, true);
    AdjustmentPolicy policy;
    policy.maxSwaps = 4;
    const AdjustmentResult result =
        NeuronMapper::adjustBlock(placement, scores, 10, policy);
    EXPECT_EQ(result.promotions, 4u);
    EXPECT_EQ(placement.gpuResidentCount(), 32u);
}

TEST(Mapper, QuotaStaysConstant)
{
    std::vector<std::uint32_t> scores = {14, 14, 14, 14, 1, 1, 1, 1};
    BlockPlacement placement(8, 2);
    for (std::uint32_t i = 4; i < 8; ++i)
        placement.setOnGpu(i, true);
    NeuronMapper::adjustBlock(placement, scores, 10);
    EXPECT_EQ(placement.gpuResidentCount(), 4u);
}

TEST(Predictor, HotScoresCombineSignals)
{
    PredictorConfig config; // lambda = 6.
    BlockPredictor predictor(3, config);
    predictor.initFromFrequency({0.5, 0.9, 0.1}); // 8, 14, 1.
    predictor.setCorrelation({0, 1, 2}, {1, 2, 0});
    predictor.update({1, 0, 0}); // Live: 12, 13, 0.

    std::vector<std::uint8_t> parents = {1, 0, 0};
    std::vector<std::uint32_t> scores;
    // Token only: live states.
    predictor.hotScores(nullptr, true, false, scores);
    EXPECT_EQ(scores[0], 12u);
    EXPECT_EQ(scores[1], 13u);
    // Layer only: frozen initial + parent bonus.
    predictor.hotScores(&parents, false, true, scores);
    EXPECT_EQ(scores[0], 8u + 6u); // parent1 = 0 active.
    EXPECT_EQ(scores[1], 14u);     // parents 1 and 2 idle.
    EXPECT_EQ(scores[2], 1u + 6u); // parent2 = 0 active.
    // Both: live + bonus.
    predictor.hotScores(&parents, true, true, scores);
    EXPECT_EQ(scores[0], 12u + 6u);
}

/**
 * Slow reference of NeuronMapper::adjustBlock: an index sort keyed on
 * scores[id], the pre-packing implementation.
 */
AdjustmentResult
referenceAdjustBlock(BlockPlacement &placement,
                     const std::vector<std::uint32_t> &scores,
                     Bytes neuron_bytes, AdjustmentPolicy policy)
{
    std::vector<std::uint32_t> promote;
    std::vector<std::uint32_t> residents;
    for (std::uint32_t i = 0; i < placement.neurons(); ++i) {
        if (placement.onGpu(i))
            residents.push_back(i);
        else if (scores[i] >= policy.hotThreshold)
            promote.push_back(i);
    }
    std::sort(promote.begin(), promote.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return scores[a] > scores[b];
              });
    std::sort(residents.begin(), residents.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return scores[a] < scores[b];
              });
    AdjustmentResult result;
    std::size_t out = 0;
    for (const std::uint32_t in : promote) {
        if (out >= residents.size() ||
            result.promotions >= policy.maxSwaps)
            break;
        const std::uint32_t victim = residents[out];
        if (scores[in] < scores[victim] + policy.hysteresis)
            break;
        placement.setOnGpu(victim, false);
        placement.setOnGpu(in, true);
        ++out;
        ++result.promotions;
        ++result.evictions;
        result.pcieBytes += neuron_bytes;
    }
    return result;
}

TEST(Mapper, AdjustBlockMatchesIndirectSortReference)
{
    // Scores in 0..27 tie heavily, so which equal-score neurons sit at
    // the swap boundary depends on std::sort's exact comparisons.
    Rng rng(2024);
    for (const std::uint32_t n : {0u, 1u, 16u, 17u, 5003u, 36864u}) {
        for (const std::uint32_t max_swaps : {0u, 1u, 5u, 64u, 100000u}) {
            for (const std::uint32_t hysteresis : {0u, 1u, 2u, 7u}) {
                AdjustmentPolicy policy;
                policy.maxSwaps = max_swaps;
                policy.hysteresis = hysteresis;
                policy.hotThreshold =
                    static_cast<std::uint32_t>(rng.below(28));
                std::vector<std::uint32_t> scores(n);
                BlockPlacement fast(n, 4);
                const double resident_share = rng.uniform();
                for (std::uint32_t i = 0; i < n; ++i) {
                    scores[i] = static_cast<std::uint32_t>(rng.below(28));
                    fast.setOnGpu(i, rng.chance(resident_share));
                }
                BlockPlacement slow = fast;
                SCOPED_TRACE(testing::Message()
                             << "n=" << n << " maxSwaps=" << max_swaps
                             << " hysteresis=" << hysteresis
                             << " hot=" << policy.hotThreshold);
                const AdjustmentResult got =
                    NeuronMapper::adjustBlock(fast, scores, 96, policy);
                const AdjustmentResult want =
                    referenceAdjustBlock(slow, scores, 96, policy);
                EXPECT_EQ(got.promotions, want.promotions);
                EXPECT_EQ(got.evictions, want.evictions);
                EXPECT_EQ(got.pcieBytes, want.pcieBytes);
                EXPECT_EQ(fast.gpuFlags(), slow.gpuFlags());
            }
        }
    }
}

TEST(Mapper, ApplyPartitionSetsHomesAndResidents)
{
    model::LlmConfig llm = model::llama2_13b();
    llm.layers = 1;
    llm.hidden = 4;
    llm.ffnHidden = 8;
    llm.heads = 2;
    llm.kvHeads = 2;
    ModelPlacement placement = makeRoundRobinPlacement(llm, 2);
    PartitionAssignment assignment;
    assignment.location = {
        {-1, 0, 1, 0},                 // attn
        {-1, -1, 0, 0, 1, 1, 0, 1},    // mlp
    };
    NeuronMapper::applyPartition(placement, assignment);
    EXPECT_TRUE(placement.attn[0].onGpu(0));
    EXPECT_FALSE(placement.attn[0].onGpu(1));
    EXPECT_EQ(placement.attn[0].homeDimm(2), 1u);
    EXPECT_EQ(placement.mlp[0].gpuResidentCount(), 2u);
}

// ---------------------------------------------------------------
// Window scheduler (Algorithm 1).
// ---------------------------------------------------------------

TEST(WindowSchedulerTest, WindowCompletesAfterFiveTokens)
{
    WindowScheduler scheduler(16, 2, 5);
    for (int t = 0; t < 4; ++t) {
        scheduler.observe({0, 1});
        EXPECT_FALSE(scheduler.windowComplete());
    }
    scheduler.observe({0});
    EXPECT_TRUE(scheduler.windowComplete());
}

TEST(WindowSchedulerTest, RebalanceMovesFromOverloadedToUnderloaded)
{
    // All activity on DIMM 0; rebalance must move some to DIMM 1.
    WindowScheduler scheduler(8, 2, 1);
    BlockPlacement placement(8, 2);
    for (std::uint32_t i = 0; i < 8; ++i)
        placement.setHomeDimm(i, 0);
    scheduler.observe({0, 1, 2, 3, 4, 5});

    const auto transfers = scheduler.rebalance(placement, 100);
    ASSERT_EQ(transfers.size(), 1u);
    EXPECT_EQ(transfers[0].fromDimm, 0u);
    EXPECT_EQ(transfers[0].toDimm, 1u);
    std::uint32_t moved = 0;
    for (std::uint32_t i = 0; i < 8; ++i)
        moved += placement.homeDimm(i) == 1;
    EXPECT_GT(moved, 0u);
}

TEST(WindowSchedulerTest, BalancedLoadNeedsNoMigration)
{
    WindowScheduler scheduler(8, 2, 1);
    BlockPlacement placement(8, 2);
    for (std::uint32_t i = 0; i < 8; ++i)
        placement.setHomeDimm(i, static_cast<std::uint16_t>(i % 2));
    scheduler.observe({0, 1, 2, 3});
    const auto transfers = scheduler.rebalance(placement, 100);
    EXPECT_TRUE(transfers.empty());
}

TEST(WindowSchedulerTest, GpuResidentNeuronsDoNotCount)
{
    WindowScheduler scheduler(4, 2, 1);
    BlockPlacement placement(4, 2);
    for (std::uint32_t i = 0; i < 4; ++i)
        placement.setHomeDimm(i, 0);
    placement.setOnGpu(0, true);
    placement.setOnGpu(1, true);
    scheduler.observe({0, 1, 2});
    const auto loads = scheduler.dimmLoads(placement);
    EXPECT_EQ(loads[0], 1u); // Only neuron 2 counts.
}

TEST(WindowSchedulerTest, RebalanceImprovesMakespan)
{
    WindowScheduler scheduler(64, 4, 1);
    BlockPlacement placement(64, 4);
    // Skewed placement: most neurons on DIMMs 0 and 1.
    for (std::uint32_t i = 0; i < 64; ++i)
        placement.setHomeDimm(i, static_cast<std::uint16_t>(
                                     i < 48 ? i % 2 : 2 + i % 2));
    std::vector<std::uint32_t> all(64);
    std::iota(all.begin(), all.end(), 0);
    scheduler.observe(all);

    const auto before = scheduler.dimmLoads(placement);
    const std::uint64_t before_max =
        *std::max_element(before.begin(), before.end());

    WindowScheduler fresh(64, 4, 1);
    fresh.observe(all);
    fresh.rebalance(placement, 10);

    WindowScheduler check(64, 4, 1);
    check.observe(all);
    const auto after = check.dimmLoads(placement);
    const std::uint64_t after_max =
        *std::max_element(after.begin(), after.end());
    EXPECT_LT(after_max, before_max);
}

TEST(WindowSchedulerTest, OracleAtLeastAsBalancedAsGreedy)
{
    auto skewed_placement = [] {
        BlockPlacement placement(64, 4);
        for (std::uint32_t i = 0; i < 64; ++i)
            placement.setHomeDimm(
                i, static_cast<std::uint16_t>(i % 4 == 0 ? 0 : 1));
        return placement;
    };
    std::vector<std::uint32_t> all(64);
    std::iota(all.begin(), all.end(), 0);

    BlockPlacement greedy_placement = skewed_placement();
    WindowScheduler greedy(64, 4, 1);
    greedy.observe(all);
    greedy.rebalance(greedy_placement, 10);

    BlockPlacement oracle_placement = skewed_placement();
    WindowScheduler oracle(64, 4, 1);
    oracle.observe(all);
    oracle.rebalanceOracle(oracle_placement, 10);

    WindowScheduler probe(64, 4, 1);
    probe.observe(all);
    const auto greedy_loads = probe.dimmLoads(greedy_placement);
    WindowScheduler probe2(64, 4, 1);
    probe2.observe(all);
    const auto oracle_loads = probe2.dimmLoads(oracle_placement);
    EXPECT_LE(*std::max_element(oracle_loads.begin(),
                                oracle_loads.end()),
              *std::max_element(greedy_loads.begin(),
                                greedy_loads.end()));
}

TEST(WindowSchedulerTest, ZeroDimmsOrZeroWindowThrow)
{
    EXPECT_THROW(WindowScheduler(8, 0, 5), std::invalid_argument);
    EXPECT_THROW(WindowScheduler(8, 2, 0), std::invalid_argument);
    try {
        WindowScheduler(8, 0, 5);
    } catch (const std::invalid_argument &error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("0 DIMMs"), std::string::npos) << message;
    }
}

/**
 * Algorithm 1 as first written: every DIMM's cold list built and
 * sorted, though only the heavy half's lists are read.
 */
std::vector<interconnect::Transfer>
referenceRebalance(BlockPlacement &placement,
                   const std::vector<std::uint32_t> &activity,
                   std::uint32_t num_dimms, Bytes neuron_bytes)
{
    std::vector<interconnect::Transfer> transfers;
    std::vector<std::uint64_t> loads(num_dimms, 0);
    for (std::uint32_t i = 0; i < placement.neurons(); ++i)
        if (!placement.onGpu(i))
            loads[placement.homeDimm(i)] += activity[i];
    std::vector<std::uint32_t> order(num_dimms);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return loads[a] > loads[b];
              });
    std::vector<std::vector<std::uint32_t>> per_dimm(num_dimms);
    for (std::uint32_t i = 0; i < placement.neurons(); ++i)
        if (!placement.onGpu(i) && activity[i] > 0)
            per_dimm[placement.homeDimm(i)].push_back(i);
    for (auto &list : per_dimm)
        std::sort(list.begin(), list.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return activity[a] > activity[b];
                  });
    for (std::uint32_t pair = 0; pair < num_dimms / 2; ++pair) {
        const std::uint32_t heavy = order[pair];
        const std::uint32_t light = order[num_dimms - 1 - pair];
        Bytes moved_bytes = 0;
        for (const std::uint32_t h : per_dimm[heavy]) {
            const std::uint64_t a = activity[h];
            if (loads[heavy] < loads[light] + 2 * a)
                break;
            placement.setHomeDimm(h, static_cast<std::uint16_t>(light));
            loads[heavy] -= a;
            loads[light] += a;
            moved_bytes += neuron_bytes;
        }
        if (moved_bytes > 0)
            transfers.push_back(
                interconnect::Transfer{heavy, light, moved_bytes});
    }
    return transfers;
}

TEST(WindowSchedulerTest, RebalanceMatchesAllListsReference)
{
    // Few activity levels and skewed homes, so lists tie and most
    // pairs move several neurons.
    Rng rng(31);
    for (const std::uint32_t dimms : {2u, 3u, 4u, 7u, 8u}) {
        for (int trial = 0; trial < 20; ++trial) {
            const std::uint32_t neurons = 64 + 61 * trial;
            WindowScheduler scheduler(neurons, dimms, 5);
            BlockPlacement fast(neurons, dimms);
            for (std::uint32_t i = 0; i < neurons; ++i) {
                fast.setHomeDimm(i, static_cast<std::uint16_t>(
                                        rng.below(1 + rng.below(dimms))));
                fast.setOnGpu(i, rng.chance(0.2));
            }
            for (int token = 0; token < 5; ++token) {
                std::vector<std::uint32_t> active;
                for (std::uint32_t i = 0; i < neurons; ++i)
                    if (rng.chance(0.3))
                        active.push_back(i);
                scheduler.observe(active);
            }
            std::vector<std::uint32_t> activity(neurons);
            for (std::uint32_t i = 0; i < neurons; ++i)
                activity[i] = scheduler.activity(i);
            BlockPlacement slow = fast;
            const auto want =
                referenceRebalance(slow, activity, dimms, 64);
            const auto got = scheduler.rebalance(fast, 64);
            ASSERT_EQ(got.size(), want.size())
                << dimms << " DIMMs, trial " << trial;
            for (std::size_t t = 0; t < got.size(); ++t) {
                EXPECT_EQ(got[t].fromDimm, want[t].fromDimm);
                EXPECT_EQ(got[t].toDimm, want[t].toDimm);
                EXPECT_EQ(got[t].bytes, want[t].bytes);
            }
            EXPECT_EQ(fast.homeDimms(), slow.homeDimms())
                << dimms << " DIMMs, trial " << trial;
        }
    }
}

TEST(WindowSchedulerTest, SingleDimmIsNoop)
{
    WindowScheduler scheduler(8, 1, 1);
    BlockPlacement placement(8, 1);
    scheduler.observe({0, 1, 2});
    EXPECT_TRUE(scheduler.rebalance(placement, 10).empty());
}

} // namespace
} // namespace hermes::sched

namespace hermes::sched {
namespace {

TEST(WindowSchedulerTest, LargerWindowSmoothsNoise)
{
    // A window of 1 token reacts to noise; a window of 5 (the paper's
    // choice) accumulates activity before moving anything.  With the
    // same observations, the 5-token scheduler must not have
    // completed its window after 3 tokens.
    WindowScheduler fast(16, 2, 1);
    WindowScheduler slow(16, 2, 5);
    for (int t = 0; t < 3; ++t) {
        fast.observe({0, 1, 2});
        slow.observe({0, 1, 2});
    }
    EXPECT_TRUE(fast.windowComplete());
    EXPECT_FALSE(slow.windowComplete());
    // Activity accumulates across the window.
    EXPECT_EQ(slow.activity(0), 3u);
}

TEST(WindowSchedulerTest, RebalanceClearsTheWindow)
{
    WindowScheduler scheduler(8, 2, 1);
    BlockPlacement placement(8, 2);
    scheduler.observe({0, 1});
    scheduler.rebalance(placement, 10);
    EXPECT_FALSE(scheduler.windowComplete());
    EXPECT_EQ(scheduler.activity(0), 0u);
}

// ---------------------------------------------------------------
// Router.
// ---------------------------------------------------------------

TEST(Router, FeedbackPoliciesThrowWithoutOneObservationPerReplica)
{
    // A feedback policy ranks by observed state; routing it without
    // exactly one observation per replica is a caller bug, never a
    // silent fallback to the estimate twin.
    const std::vector<ReplicaModel> models(3);
    const std::vector<ReplicaObservation> too_few(2);
    for (const RouterPolicy policy :
         {RouterPolicy::TrueJsq, RouterPolicy::LeastActualBacklog}) {
        Router router(policy, models);
        EXPECT_THROW(router.route(0.0, 8), std::invalid_argument)
            << routerPolicyName(policy);
        EXPECT_THROW(router.route(0.0, 8, &too_few),
                     std::invalid_argument)
            << routerPolicyName(policy);
    }

    // With observations the feedback policy ranks by them.
    std::vector<ReplicaObservation> observed(3);
    observed[0].outstanding = 4;
    observed[1].outstanding = 1;
    observed[2].outstanding = 2;
    Router router(RouterPolicy::TrueJsq, models);
    EXPECT_EQ(router.route(0.0, 8, &observed).replica, 1);

    // Estimate policies ignore observations entirely.
    Router estimate(RouterPolicy::JoinShortestQueue, models);
    EXPECT_EQ(estimate.route(0.0, 8).replica, 0);
}

TEST(Router, RoutingSkipsUnroutableReplicasAndShedsWhenNoneRemain)
{
    // Round-robin's cursor never lands on an unroutable replica: a
    // position it would take falls through to the next routable
    // one, so with replica 1 unroutable the cursor 0, 1, 2, 0 picks
    // 0, 2, 2, 0.
    Router router(RouterPolicy::RoundRobin,
                  std::vector<ReplicaModel>(3));
    router.setRoutable(1, false);
    std::vector<int> picks;
    for (int k = 0; k < 4; ++k)
        picks.push_back(router.route(0.0, 8).replica);
    EXPECT_EQ(picks, (std::vector<int>{0, 2, 2, 0}));

    // Routable again: the cursor lands on it.
    router.setRoutable(1, true);
    EXPECT_EQ(router.route(0.0, 8).replica, 1);

    // Nothing routable: every policy sheds, with an infinite TTFT.
    for (const RouterPolicy policy : allRouterPolicies()) {
        Router none(policy, std::vector<ReplicaModel>(2));
        none.setRoutable(0, false);
        none.setRoutable(1, false);
        const std::vector<ReplicaObservation> observed(2);
        const RouteDecision decision = none.route(0.0, 8, &observed);
        EXPECT_LT(decision.replica, 0) << routerPolicyName(policy);
        EXPECT_EQ(decision.estimatedTtft,
                  std::numeric_limits<double>::infinity());
    }
}

} // namespace
} // namespace hermes::sched
