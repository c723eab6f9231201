/**
 * @file
 * The lightweight online activation predictor (Sec. IV-C1, Fig. 7).
 *
 * Token-wise prediction: a 4-bit saturating state per neuron,
 * initialized from prefill activation frequency (16 stages), bumped
 * +s on activation and -1 on inactivity each token — a branch-
 * predictor-style exploitation of the temporal locality of Fig. 4a.
 *
 * Layer-wise prediction: an offline-sampled table of the top-2
 * correlated neurons in the preceding block; the number of active
 * parents s2 boosts the decision.
 *
 * Decision rule: predict active iff  s1 + lambda*s2 >= T  (the paper
 * prints a strict ">" with T = 15, which would exclude even fully
 * saturated neurons with idle parents; we use ">=" so a state-15
 * neuron predicts active on token-wise evidence alone).
 *
 * Storage matches the paper's accounting: 4 bits per neuron of state
 * (232 KB for LLaMA-7B) and two 8-bit rank-relative parent offsets
 * per neuron, keeping the whole predictor under ~1 MB per model.
 */

#ifndef HERMES_SCHED_PREDICTOR_HH
#define HERMES_SCHED_PREDICTOR_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.hh"
#include "sparsity/trace.hh"

namespace hermes::sched {

/** Tunable predictor constants (paper values as defaults). */
struct PredictorConfig
{
    std::uint32_t activateStep = 4;  ///< s: state bump on activation.
    std::uint32_t decayStep = 1;     ///< State decay when inactive.
    std::uint32_t lambda = 6;        ///< Layer-correlation weight.
    std::uint32_t threshold = 15;    ///< T: decision threshold.
    std::uint32_t hotThreshold = 10; ///< Th: hot-neuron cut (IV-C2).
    std::uint32_t maxState = 15;     ///< 4-bit saturating ceiling.
};

/** Aggregate prediction-quality metrics. */
struct PredictionMetrics
{
    std::uint64_t truePositive = 0;
    std::uint64_t trueNegative = 0;
    std::uint64_t falsePositive = 0;
    std::uint64_t falseNegative = 0;

    void
    tally(bool predicted, bool actual)
    {
        if (predicted && actual)
            ++truePositive;
        else if (predicted && !actual)
            ++falsePositive;
        else if (!predicted && actual)
            ++falseNegative;
        else
            ++trueNegative;
    }

    /**
     * Tally every neuron of a predicted/actual mask pair (equal
     * sizes; nonzero = active), as tally() per element would.
     */
    void tallyMasks(const std::vector<std::uint8_t> &predicted,
                    const std::vector<std::uint8_t> &actual);

    PredictionMetrics &
    operator+=(const PredictionMetrics &other)
    {
        truePositive += other.truePositive;
        trueNegative += other.trueNegative;
        falsePositive += other.falsePositive;
        falseNegative += other.falseNegative;
        return *this;
    }

    std::uint64_t
    total() const
    {
        return truePositive + trueNegative + falsePositive +
               falseNegative;
    }
    double
    accuracy() const
    {
        return total() == 0
                   ? 0.0
                   : static_cast<double>(truePositive + trueNegative) /
                         static_cast<double>(total());
    }
    double
    recall() const
    {
        const auto actual = truePositive + falseNegative;
        return actual == 0 ? 1.0
                           : static_cast<double>(truePositive) /
                                 static_cast<double>(actual);
    }
    double
    precision() const
    {
        const auto predicted = truePositive + falsePositive;
        return predicted == 0 ? 1.0
                              : static_cast<double>(truePositive) /
                                    static_cast<double>(predicted);
    }
};

/** Predictor state for one block of one layer. */
class BlockPredictor
{
  public:
    BlockPredictor(std::uint32_t neurons, PredictorConfig config);

    /**
     * Initialize states from prefill activation frequency, bucketed
     * into the 16 state stages (Fig. 7a).
     */
    void initFromFrequency(const std::vector<double> &frequency);

    /** Install the offline-sampled correlation table. */
    void setCorrelation(std::vector<std::uint32_t> parent1,
                        std::vector<std::uint32_t> parent2);

    /**
     * Predict the activation mask for the next token.
     *
     * @param parent_mask  Actual activations of the preceding block
     *                     (already computed when this block is
     *                     scheduled), or nullptr for the first block.
     * @param out          Output mask (resized to the block).
     */
    void predict(const std::vector<std::uint8_t> *parent_mask,
                 std::vector<std::uint8_t> &out) const;

    /** FSM update with the token's actual activations (Fig. 7a). */
    void update(const std::vector<std::uint8_t> &actual);

    /**
     * Hot-scores for the online mapper (Fig. 13 ablation hooks):
     * s1 taken live (token-wise) or frozen at initialization, plus
     * the lambda-weighted active-parent bonus (layer-wise).
     *
     * @param parent_mask Current activations of the parent block, or
     *                    nullptr to skip the layer term.
     * @param use_token   Use the live FSM state (else the initial).
     * @param use_layer   Add the correlated-parent bonus.
     */
    void hotScores(const std::vector<std::uint8_t> *parent_mask,
                   bool use_token, bool use_layer,
                   std::vector<std::uint32_t> &out) const;

    std::uint8_t state(std::uint32_t i) const { return states_[i]; }

    /** Hot-neuron classification for the online mapper (IV-C2). */
    bool
    isHot(std::uint32_t i) const
    {
        return states_[i] >= config_.hotThreshold;
    }

    std::uint32_t
    neurons() const
    {
        return static_cast<std::uint32_t>(states_.size());
    }
    const PredictorConfig &config() const { return config_; }

    /** 4-bit packed state-table footprint. */
    Bytes stateTableBytes() const { return (states_.size() + 1) / 2; }

    /**
     * Correlation-table footprint: parents are offline-sampled from
     * a rank-neighborhood pool of 8 (sampleCorrelation), so each of
     * the two parents encodes as a 4-bit rank-relative offset —
     * one byte per neuron.
     */
    Bytes correlationTableBytes() const { return states_.size(); }

  private:
    PredictorConfig config_;
    std::vector<std::uint8_t> states_;
    std::vector<std::uint8_t> initialStates_;
    std::vector<std::uint32_t> parent1_;
    std::vector<std::uint32_t> parent2_;
};

/**
 * Per-neuron activation frequencies of a profiling pass, one vector
 * per layer and block kind: what the predictor's state tables, the
 * offline partition and hot-set sizing are built from.
 */
struct ActivationProfile
{
    std::vector<std::vector<double>> attn;
    std::vector<std::vector<double>> mlp;
};

/**
 * The frequency-profiling pass: runs the next `tokens` tokens of the
 * trace (at least one — a profile of no tokens has no frequencies; a
 * fresh trace starts at its first token) and returns the activation
 * frequency of every block of the first `layers` layers.  The later
 * built layers still step, the trace being one RNG stream, but go
 * uncounted.  The trace steps on up to `threads` lanes
 * (ActivationTrace::stepTokens), each counting its own layers; the
 * profile never depends on the thread count.
 *
 * @throws std::invalid_argument if `layers` exceeds trace.layers().
 */
ActivationProfile profileActivations(sparsity::ActivationTrace &trace,
                                     std::uint32_t tokens,
                                     std::uint32_t layers,
                                     std::uint32_t threads = 1);

/**
 * Whole-model predictor: one BlockPredictor per block, chained so
 * each block's prediction consumes the previous block's actuals.
 */
class ModelPredictor
{
  public:
    ModelPredictor(const model::LlmConfig &llm, PredictorConfig config);

    /**
     * Offline setup: profiles the next `prefill_tokens` tokens of the
     * trace (profileActivations, on up to `threads` threads),
     * installs the state tables from each block's activation
     * frequency and wires correlations from the trace's offline
     * tables.  Returns the frequencies for the other offline
     * consumers (the partition, hot-set sizing).
     */
    ActivationProfile calibrate(sparsity::ActivationTrace &trace,
                                std::uint32_t prefill_tokens,
                                std::uint32_t threads = 1);

    BlockPredictor &attn(std::uint32_t layer);
    BlockPredictor &mlp(std::uint32_t layer);

    /**
     * Predict all blocks for the current token of the trace, then
     * update the FSMs with the trace's actuals and tally metrics.
     * Masks are written into the caller-provided buffers.
     */
    void stepToken(const sparsity::ActivationTrace &trace,
                   std::vector<std::vector<std::uint8_t>> &attn_masks,
                   std::vector<std::vector<std::uint8_t>> &mlp_masks);

    const PredictionMetrics &metrics() const { return metrics_; }
    void resetMetrics() { metrics_ = PredictionMetrics{}; }

    /** Whole-model predictor footprint (state + correlation tables). */
    Bytes totalBytes() const;
    Bytes stateTableBytes() const;

  private:
    model::LlmConfig llm_;
    PredictorConfig config_;
    std::vector<BlockPredictor> attn_;
    std::vector<BlockPredictor> mlp_;
    PredictionMetrics metrics_;
};

/**
 * Offline correlation sampling (Sec. IV-C1): estimate the top-2
 * correlated parents of each child neuron by counting co-activations
 * over `tokens` trace tokens, searching a rank-neighborhood candidate
 * pool.  Returns {parent1, parent2} for the child block.
 */
std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
sampleCorrelation(sparsity::ActivationTrace &trace,
                  std::uint32_t child_layer, bool child_is_mlp,
                  std::uint32_t tokens, std::uint32_t pool = 8);

} // namespace hermes::sched

#endif // HERMES_SCHED_PREDICTOR_HH
