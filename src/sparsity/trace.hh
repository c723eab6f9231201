/**
 * @file
 * Synthetic activation-sparsity traces.
 *
 * The paper drives Hermes with activation traces of ReLU-fied LLMs on
 * real datasets.  Those models/datasets are not available here, so
 * this generator synthesizes traces exhibiting the three measured
 * statistical properties every Hermes mechanism consumes
 * (Sec. III-B, Fig. 4):
 *
 *  1. Power-law activation frequency: ~20 % of neurons (hot) carry
 *     ~80 % of activation mass (Sec. I).  Per-neuron frequencies
 *     follow a power law whose exponent is calibrated, per block
 *     size, so the top-20 % mass coverage hits the configured target
 *     after capping and renormalization.
 *  2. Token-wise similarity (Fig. 4a): activations derive from
 *     persistent latent values that survive from token to token with
 *     probability `persistence`, so adjacent tokens overlap heavily
 *     and similarity decays to a plateau set by the frequency skew.
 *  3. Layer-wise correlation (Fig. 4b): a neuron is a "follower" with
 *     probability `couplingMix`; followers of the same frequency rank
 *     in different layers read the same master latent slot, so when a
 *     follower's rank-matched parent in the previous layer fires, the
 *     follower fires with probability ~>= parent coupling.
 *
 * The activation rule is threshold-based: neuron i is active at token
 * t iff u_i(t) < p_i, where p_i is its stationary probability and
 * u_i(t) is the (persistent) latent.  This preserves exact marginals
 * under any mixing of latent sources.
 *
 * Batched inference unions the activations of the batch's sequences:
 * a neuron must be computed when any sequence activates it, so the
 * per-neuron probability becomes 1-(1-p)^batch.
 */

#ifndef HERMES_SPARSITY_TRACE_HH
#define HERMES_SPARSITY_TRACE_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "model/llm_config.hh"

namespace hermes::sparsity {

/** Statistical knobs of the synthetic trace. */
struct SparsityConfig
{
    /** Mean fraction of neurons active per token (batch 1). */
    double activeFraction = 0.2;

    /** Activation mass the top `hotFraction` of neurons must carry. */
    double targetHotMass = 0.8;

    /** Fraction of neurons counted as hot for the mass target. */
    double hotFraction = 0.2;

    /** Per-token survival probability of latent values (Fig. 4a). */
    double persistence = 0.90;

    /** Fraction of neurons that follow the shared master latent. */
    double couplingMix = 0.8;

    /** Per-token probability a follower ignores the master latent. */
    double followerNoise = 0.05;

    /**
     * Context drift (Sec. III-B, IV-C): activation sparsity is
     * input-specific — "approximately 52 % of the initialized hot
     * neurons exhibit varied activity during inference".  Every
     * `phaseTokens` tokens, a `phaseDrift` fraction of frequency
     * ranks swap owners consistently across all blocks, so hot/cold
     * membership drifts while every stationary statistic (power law,
     * similarity, correlation) is preserved.  Set phaseTokens = 0 to
     * disable.
     */
    double phaseDrift = 0.25;
    std::uint32_t phaseTokens = 48;

    /** Master seed; sequences derive sub-seeds from it. */
    std::uint64_t seed = 1;

    bool operator==(const SparsityConfig &) const = default;
};

/** Activation state of one block (attention or MLP) of one layer. */
struct BlockTrace
{
    /** Stationary activation probability per neuron (batch-unioned). */
    std::vector<double> probability;

    /**
     * Expected per-sequence activations divided by expected unioned
     * activations: multiplying (union rows x batch) MACs by this
     * factor yields the true per-element sparse compute (a batched
     * sparse GEMV masks inactive elements per row; only the weight
     * *reads* follow the union).  Equals 1 for batch 1.
     */
    double computeScale = 1.0;

    /** Current token's activation mask (1 = active). */
    std::vector<std::uint8_t> mask;

    /** Indices of currently active neurons. */
    std::vector<std::uint32_t> activeList;

    /** Rank-matched primary / secondary parent in the parent block. */
    std::vector<std::uint32_t> parent1;
    std::vector<std::uint32_t> parent2;

    /** Whether the neuron follows the master latent (correlated). */
    std::vector<std::uint8_t> follower;

    /** Neuron id holding each frequency rank (rank 0 = hottest). */
    std::vector<std::uint32_t> idOfRank;

    /** Frequency rank of each neuron id. */
    std::vector<std::uint32_t> rankOf;

    /** Master-latent slot per neuron (rank quantile). */
    std::vector<std::uint32_t> slot;

    /** Private latent per neuron. */
    std::vector<double> ownLatent;

    std::uint64_t activeCount() const { return activeList.size(); }
    std::uint32_t
    neurons() const
    {
        return static_cast<std::uint32_t>(probability.size());
    }
};

/**
 * One layer's activations of one token, held apart from the trace
 * (ActivationTrace::swapActivations).
 */
struct LayerActivations
{
    std::vector<std::uint8_t> attnMask;
    std::vector<std::uint32_t> attnActive;
    std::vector<std::uint8_t> mlpMask;
    std::vector<std::uint32_t> mlpActive;
};

/**
 * Streaming trace generator: one instance produces the activation
 * masks of every layer, one token at a time.
 */
class ActivationTrace
{
  public:
    ActivationTrace(const model::LlmConfig &model, SparsityConfig config,
                    std::uint32_t batch = 1);

    /** Restart with a fresh sequence (new sub-seed). */
    void reset(std::uint64_t sequence_id = 0);

    /** Advance every layer to the next token. */
    void nextToken();

    /**
     * Hand the current token's activations of `layer` to the caller
     * without copying: swaps both blocks' masks and active lists with
     * `out`'s (a mask of the wrong size is resized first).  Until the
     * next nextToken() — which overwrites every entry it receives —
     * the layer's `mask` and `activeList` hold what `out` held.
     */
    void swapActivations(std::uint32_t layer, LayerActivations &out);

    /** Tokens generated since reset(). */
    std::uint64_t tokenIndex() const { return tokenIndex_; }

    const BlockTrace &attn(std::uint32_t layer) const;
    const BlockTrace &mlp(std::uint32_t layer) const;

    const model::LlmConfig &llm() const { return model_; }
    const SparsityConfig &config() const { return config_; }
    std::uint32_t batch() const { return batch_; }

    /** Mean active fraction over both blocks of all layers (current). */
    double currentActiveFraction() const;

    /**
     * Power-law exponent calibrated so the top `hotFraction` of a
     * block of `neurons` covers `targetHotMass` of the activation
     * mass (exposed for tests).
     */
    static double calibrateExponent(std::uint32_t neurons,
                                    const SparsityConfig &config);

  private:
    /** Per-rank statistics shared by every block of one size. */
    struct RankProfile
    {
        std::vector<double> probability; ///< Batch-unioned, by rank.
        double computeScale = 1.0;
    };

    RankProfile rankProfile(std::uint32_t neurons) const;
    void initBlock(BlockTrace &block, const RankProfile &profile,
                   std::uint64_t salt);
    void wireParents(BlockTrace &child, const BlockTrace &parent);
    void rewireAllParents();
    void stepBlock(BlockTrace &block);
    void applyPhaseShift();
    static void swapRanks(BlockTrace &block, std::uint64_t rank_a,
                          std::uint64_t rank_b);

    model::LlmConfig model_;
    SparsityConfig config_;
    std::uint32_t batch_;
    Rng rng_;
    std::uint64_t tokenIndex_ = 0;
    std::uint32_t masterSlots_ = 0;
    std::vector<double> masterLatent_;
    std::vector<BlockTrace> attnBlocks_;
    std::vector<BlockTrace> mlpBlocks_;
};

} // namespace hermes::sparsity

#endif // HERMES_SPARSITY_TRACE_HH
