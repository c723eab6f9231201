#include "sched/predictor.hh"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace hermes::sched {

namespace {

/** Stands in for an empty parent mask, so every load stays legal. */
constexpr std::uint8_t kIdleParent = 0;

/**
 * Branch-free count of a neuron's active correlated parents.  Parent
 * ids outside the mask count as idle.
 */
class ParentView
{
  public:
    ParentView(const std::vector<std::uint8_t> &mask,
               const std::vector<std::uint32_t> &parent1,
               const std::vector<std::uint32_t> &parent2)
        : mask_(mask.empty() ? &kIdleParent : mask.data()),
          size_(mask.size()), parent1_(parent1.data()),
          parent2_(parent2.data())
    {
    }

    std::uint32_t
    activeParents(std::size_t i) const
    {
        return active(parent1_[i]) + active(parent2_[i]);
    }

  private:
    std::uint32_t
    active(std::uint32_t id) const
    {
        // Clamp the load to a legal index; the range bit masks it.
        const bool in_range = id < size_;
        return in_range & (mask_[in_range ? id : 0] != 0);
    }

    const std::uint8_t *mask_;
    std::size_t size_;
    const std::uint32_t *parent1_;
    const std::uint32_t *parent2_;
};

} // namespace

void
PredictionMetrics::tallyMasks(const std::vector<std::uint8_t> &predicted,
                              const std::vector<std::uint8_t> &actual)
{
    hermes_assert(predicted.size() == actual.size(),
                  "predicted/actual mask size mismatch");
    const std::size_t n = actual.size();
    const std::uint8_t *const p = predicted.data();
    const std::uint8_t *const a = actual.data();
    std::uint64_t predicted_on = 0;
    std::uint64_t actual_on = 0;
    std::uint64_t both = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t pi = p[i] != 0;
        const std::uint32_t ai = a[i] != 0;
        predicted_on += pi;
        actual_on += ai;
        both += pi & ai;
    }
    truePositive += both;
    falsePositive += predicted_on - both;
    falseNegative += actual_on - both;
    trueNegative += n - predicted_on - actual_on + both;
}

BlockPredictor::BlockPredictor(std::uint32_t neurons,
                               PredictorConfig config)
    : config_(config), states_(neurons, 0)
{
    hermes_assert(config_.threshold <=
                  config_.maxState + 2 * config_.lambda,
                  "threshold unreachable even with two active parents");
}

void
BlockPredictor::initFromFrequency(const std::vector<double> &frequency)
{
    hermes_assert(frequency.size() == states_.size(),
                  "frequency table size mismatch");
    for (std::size_t i = 0; i < frequency.size(); ++i) {
        const double f = std::clamp(frequency[i], 0.0, 1.0);
        // 16 stages over the frequency range (Fig. 7a).
        states_[i] = static_cast<std::uint8_t>(std::min<std::uint32_t>(
            config_.maxState,
            static_cast<std::uint32_t>(f * (config_.maxState + 1))));
    }
    initialStates_ = states_;
}

void
BlockPredictor::setCorrelation(std::vector<std::uint32_t> parent1,
                               std::vector<std::uint32_t> parent2)
{
    hermes_assert(parent1.size() == states_.size() &&
                  parent2.size() == states_.size(),
                  "correlation table size mismatch");
    parent1_ = std::move(parent1);
    parent2_ = std::move(parent2);
}

void
BlockPredictor::predict(const std::vector<std::uint8_t> *parent_mask,
                        std::vector<std::uint8_t> &out) const
{
    const std::size_t n = states_.size();
    out.resize(n);
    std::uint8_t *const decision = out.data();
    const std::uint8_t *const state = states_.data();
    if (parent_mask == nullptr || parent1_.empty()) {
        // First block of the model: token-wise evidence only, so the
        // hot cut substitutes for the combined threshold.
        const std::uint32_t hot = config_.hotThreshold;
        for (std::size_t i = 0; i < n; ++i)
            decision[i] = state[i] >= hot;
        return;
    }
    const ParentView parents(*parent_mask, parent1_, parent2_);
    const std::uint32_t lambda = config_.lambda;
    const std::uint32_t threshold = config_.threshold;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t score =
            state[i] + lambda * parents.activeParents(i);
        decision[i] = score >= threshold;
    }
}

void
BlockPredictor::update(const std::vector<std::uint8_t> &actual)
{
    hermes_assert(actual.size() == states_.size(),
                  "actual mask size mismatch");
    const std::size_t n = states_.size();
    const std::uint8_t *const active = actual.data();
    std::uint8_t *const state = states_.data();
    const std::uint32_t step = config_.activateStep;
    const std::uint32_t decay = config_.decayStep;
    const std::uint32_t ceiling = config_.maxState;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t s = state[i];
        const std::uint32_t up = std::min(ceiling, s + step);
        const std::uint32_t down = s >= decay ? s - decay : 0;
        state[i] = static_cast<std::uint8_t>(active[i] ? up : down);
    }
}

void
BlockPredictor::hotScores(const std::vector<std::uint8_t> *parent_mask,
                          bool use_token, bool use_layer,
                          std::vector<std::uint32_t> &out) const
{
    const auto &base = use_token ? states_ : initialStates_;
    if (base.empty())
        out.assign(states_.size(), 0);
    else
        out.assign(base.begin(), base.end());
    if (!use_layer || parent_mask == nullptr || parent1_.empty())
        return;
    const ParentView parents(*parent_mask, parent1_, parent2_);
    const std::uint32_t lambda = config_.lambda;
    std::uint32_t *const score = out.data();
    for (std::size_t i = 0; i < out.size(); ++i)
        score[i] += lambda * parents.activeParents(i);
}

ModelPredictor::ModelPredictor(const model::LlmConfig &llm,
                               PredictorConfig config)
    : llm_(llm), config_(config)
{
    attn_.reserve(llm.layers);
    mlp_.reserve(llm.layers);
    for (std::uint32_t l = 0; l < llm.layers; ++l) {
        attn_.emplace_back(
            static_cast<std::uint32_t>(llm.attnNeuronsPerLayer()),
            config);
        mlp_.emplace_back(
            static_cast<std::uint32_t>(llm.mlpNeuronsPerLayer()),
            config);
    }
}

BlockPredictor &
ModelPredictor::attn(std::uint32_t layer)
{
    hermes_assert(layer < attn_.size());
    return attn_[layer];
}

BlockPredictor &
ModelPredictor::mlp(std::uint32_t layer)
{
    hermes_assert(layer < mlp_.size());
    return mlp_[layer];
}

ActivationProfile
profileActivations(sparsity::ActivationTrace &trace,
                   std::uint32_t tokens, std::uint32_t layers,
                   std::uint32_t threads)
{
    if (layers > trace.layers())
        throw std::invalid_argument(
            "profileActivations: " + std::to_string(layers) +
            " layers asked of a trace of " +
            std::to_string(trace.layers()));
    tokens = std::max<std::uint32_t>(tokens, 1);
    ActivationProfile profile;
    profile.attn.resize(layers);
    profile.mlp.resize(layers);
    for (std::uint32_t l = 0; l < layers; ++l) {
        profile.attn[l].assign(trace.attn(l).neurons(), 0.0);
        profile.mlp[l].assign(trace.mlp(l).neurons(), 0.0);
    }
    // Each lane counts the layers it steps, token by token.
    trace.stepTokens(tokens, threads,
                     [&](std::uint32_t, std::uint32_t l) {
                         if (l >= layers)
                             return;
                         for (const auto id : trace.attn(l).activeList)
                             profile.attn[l][id] += 1.0;
                         for (const auto id : trace.mlp(l).activeList)
                             profile.mlp[l][id] += 1.0;
                     });
    for (std::uint32_t l = 0; l < layers; ++l) {
        for (auto &f : profile.attn[l])
            f /= tokens;
        for (auto &f : profile.mlp[l])
            f /= tokens;
    }
    return profile;
}

ActivationProfile
ModelPredictor::calibrate(sparsity::ActivationTrace &trace,
                          std::uint32_t prefill_tokens,
                          std::uint32_t threads)
{
    ActivationProfile profile = profileActivations(
        trace, prefill_tokens, llm_.layers, threads);
    for (std::uint32_t l = 0; l < llm_.layers; ++l) {
        attn_[l].initFromFrequency(profile.attn[l]);
        mlp_[l].initFromFrequency(profile.mlp[l]);
        // Offline-sampled correlation tables: the trace exposes its
        // wiring, standing in for the paper's profiling pass (the
        // sampling estimator is validated separately in the tests).
        attn_[l].setCorrelation(trace.attn(l).parent1,
                                trace.attn(l).parent2);
        mlp_[l].setCorrelation(trace.mlp(l).parent1,
                               trace.mlp(l).parent2);
    }
    return profile;
}

void
ModelPredictor::stepToken(
    const sparsity::ActivationTrace &trace,
    std::vector<std::vector<std::uint8_t>> &attn_masks,
    std::vector<std::vector<std::uint8_t>> &mlp_masks)
{
    attn_masks.resize(llm_.layers);
    mlp_masks.resize(llm_.layers);
    for (std::uint32_t l = 0; l < llm_.layers; ++l) {
        // Prediction order mirrors execution: the parent block's
        // actual activations are known by the time the child block's
        // computation is scheduled.
        const std::vector<std::uint8_t> *attn_parent =
            l == 0 ? nullptr : &trace.mlp(l - 1).mask;
        attn_[l].predict(attn_parent, attn_masks[l]);
        mlp_[l].predict(&trace.attn(l).mask, mlp_masks[l]);

        const auto &attn_actual = trace.attn(l).mask;
        const auto &mlp_actual = trace.mlp(l).mask;
        metrics_.tallyMasks(attn_masks[l], attn_actual);
        metrics_.tallyMasks(mlp_masks[l], mlp_actual);

        attn_[l].update(attn_actual);
        mlp_[l].update(mlp_actual);
    }
}

Bytes
ModelPredictor::totalBytes() const
{
    Bytes bytes = 0;
    for (const auto &predictor : attn_)
        bytes += predictor.stateTableBytes() +
                 predictor.correlationTableBytes();
    for (const auto &predictor : mlp_)
        bytes += predictor.stateTableBytes() +
                 predictor.correlationTableBytes();
    return bytes;
}

Bytes
ModelPredictor::stateTableBytes() const
{
    Bytes bytes = 0;
    for (const auto &predictor : attn_)
        bytes += predictor.stateTableBytes();
    for (const auto &predictor : mlp_)
        bytes += predictor.stateTableBytes();
    return bytes;
}

std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
sampleCorrelation(sparsity::ActivationTrace &trace,
                  std::uint32_t child_layer, bool child_is_mlp,
                  std::uint32_t tokens, std::uint32_t pool)
{
    hermes_assert(child_is_mlp || child_layer > 0,
                  "first attention block has no parent");
    trace.reset(0);

    const sparsity::BlockTrace &child =
        child_is_mlp ? trace.mlp(child_layer) : trace.attn(child_layer);
    const sparsity::BlockTrace &parent =
        child_is_mlp ? trace.attn(child_layer)
                     : trace.mlp(child_layer - 1);

    const std::uint32_t child_n = child.neurons();
    const std::uint32_t parent_n = parent.neurons();

    // Candidate pool per child: parents in the same frequency-rank
    // neighborhood (co-activation outside it is noise by design of
    // the power law).
    std::vector<std::vector<std::uint32_t>> candidates(child_n);
    std::vector<std::vector<std::uint32_t>> co_counts(child_n);
    for (std::uint32_t id = 0; id < child_n; ++id) {
        const std::uint64_t r = child.rankOf[id];
        const auto center =
            static_cast<std::int64_t>(r * parent_n / child_n);
        for (std::uint32_t k = 0; k < pool; ++k) {
            const std::int64_t pr =
                center - static_cast<std::int64_t>(pool / 2) + k;
            if (pr < 0 || pr >= static_cast<std::int64_t>(parent_n))
                continue;
            candidates[id].push_back(
                parent.idOfRank[static_cast<std::size_t>(pr)]);
        }
        co_counts[id].assign(candidates[id].size(), 0);
    }

    std::vector<std::uint32_t> parent_counts(parent_n, 0);
    for (std::uint32_t t = 0; t < tokens; ++t) {
        trace.nextToken();
        for (const auto p : parent.activeList)
            ++parent_counts[p];
        for (const auto id : child.activeList) {
            for (std::size_t k = 0; k < candidates[id].size(); ++k) {
                if (parent.mask[candidates[id][k]])
                    ++co_counts[id][k];
            }
        }
    }

    std::vector<std::uint32_t> parent1(child_n, 0);
    std::vector<std::uint32_t> parent2(child_n, 0);
    for (std::uint32_t id = 0; id < child_n; ++id) {
        // Rank candidates by P(child | candidate) estimate.
        double best_score = -1.0;
        double second_score = -1.0;
        std::uint32_t best = 0;
        std::uint32_t second = 0;
        for (std::size_t k = 0; k < candidates[id].size(); ++k) {
            const std::uint32_t cand = candidates[id][k];
            if (parent_counts[cand] == 0)
                continue;
            const double score =
                static_cast<double>(co_counts[id][k]) /
                static_cast<double>(parent_counts[cand]);
            if (score > best_score) {
                second_score = best_score;
                second = best;
                best_score = score;
                best = cand;
            } else if (score > second_score) {
                second_score = score;
                second = cand;
            }
        }
        parent1[id] = best;
        parent2[id] = second;
    }
    return {std::move(parent1), std::move(parent2)};
}

} // namespace hermes::sched
