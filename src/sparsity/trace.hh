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
#include <functional>
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
 *
 * The trace is one RNG stream per sequence (reset()).  Each token
 * draws, in order: the phase shift's quantiles (on shift tokens),
 * one value per master-latent slot, then each layer's attention and
 * MLP blocks, one value per neuron plus one per follower.  Phase
 * shifts only swap follower flags within a block, so every layer's
 * draws per token are fixed for the trace's lifetime and each
 * layer's slice of the stream sits at a known offset.  stepTokens()
 * uses that: its lanes each walk the stream, draw the shared values
 * themselves, step the layers they own and jump (Rng::jump) over the
 * slices of all other layers, so the trace is bitwise the same
 * however many lanes step it.
 */
class ActivationTrace
{
  public:
    /** Build every layer of the model (the `layers` default). */
    static constexpr std::uint32_t kAllLayers = ~std::uint32_t{0};

    /** Called with (token, layer) once a lane has stepped a layer. */
    using LayerVisit =
        std::function<void(std::uint32_t token, std::uint32_t layer)>;

    /**
     * @param threads Threads the construction may use (<= 1: the
     *        calling thread only); the trace never depends on it.
     * @param layers  Build only the first `layers` layers: a prefix
     *        of `model`'s trace, bitwise equal to the full trace's
     *        first layers.  The layers past it are never built; the
     *        stream skips their draws.
     * @throws std::invalid_argument on batch 0, an active fraction
     *         outside (0, 1), or more layers than `model` has.
     */
    ActivationTrace(const model::LlmConfig &model, SparsityConfig config,
                    std::uint32_t batch = 1, std::uint32_t threads = 1,
                    std::uint32_t layers = kAllLayers);

    /** Restart with a fresh sequence (new sub-seed). */
    void reset(std::uint64_t sequence_id = 0);

    /** Advance every layer to the next token. */
    void nextToken();

    /**
     * Advance `tokens` tokens on min(threads, layers()) lanes, each
     * owning a contiguous run of layers, with one parallelFor and no
     * synchronization between tokens.  A lane calls visit(t, layer)
     * on its own thread right after it steps `layer` for the t-th of
     * these tokens, in token order for each layer, so `visit` may
     * read attn(layer) and mlp(layer) but must touch only state no
     * other layer's visit touches.  A lane's first attention block
     * gets its parents (parent1/parent2) rewired only when every
     * lane is done.  At one lane this is `tokens` calls of
     * nextToken().  If `visit` throws, the exception reaches the
     * caller and the trace is left in an unspecified state.
     */
    void stepTokens(std::uint32_t tokens, std::uint32_t threads,
                    const LayerVisit &visit);

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

    /** The model whose trace this is (every layer of its stream). */
    const model::LlmConfig &llm() const { return model_; }
    /** Layers built: llm().layers, or the prefix asked for. */
    std::uint32_t layers() const { return layers_; }
    const SparsityConfig &config() const { return config_; }
    std::uint32_t batch() const { return batch_; }

    /** Mean active fraction over both blocks of all layers (current). */
    double currentActiveFraction() const;

    /**
     * Power-law exponent calibrated so the top `hotFraction` of a
     * block of `neurons` covers `targetHotMass` of the activation
     * mass (exposed for tests).  `threads` >= 3 evaluates two
     * halvings of the bisection per round on three threads; the
     * result never depends on it.
     */
    static double calibrateExponent(std::uint32_t neurons,
                                    const SparsityConfig &config,
                                    std::uint32_t threads = 1);

  private:
    /** Per-rank statistics shared by every block of one size. */
    struct RankProfile
    {
        std::vector<double> probability; ///< Batch-unioned, by rank.
        double computeScale = 1.0;
    };

    /** A run of draws a lane jumps over. */
    struct Gap
    {
        std::uint64_t draws = 0;
        JumpPolynomial poly{};

        explicit Gap(std::uint64_t count = 0);
        void skip(Rng &rng) const;
    };

    /**
     * One lane of stepTokens(): the layers [first, last) and the
     * token's draws before and after them (past the master latent).
     */
    struct Lane
    {
        std::uint32_t first = 0;
        std::uint32_t last = 0;
        Gap before;
        Gap after;
    };

    /**
     * One lane of a reset: the sequence's attention blocks ahead of
     * the lane's, the blocks between its attention and MLP runs, and
     * the MLP blocks after them.
     */
    struct ResetLane
    {
        std::uint32_t first = 0;
        std::uint32_t last = 0;
        Gap attnBefore;
        Gap between;
        Gap mlpAfter;
    };

    std::uint32_t laneCount(std::uint32_t threads) const;
    Rng initRng(std::uint64_t salt) const;
    RankProfile rankProfile(std::uint32_t neurons,
                            std::uint32_t threads) const;
    void initBlock(BlockTrace &block, const RankProfile &profile,
                   std::uint64_t salt);
    std::uint64_t unbuiltFollowers(std::uint32_t neurons,
                                   std::uint64_t salt) const;
    void wireParents(BlockTrace &child, const BlockTrace &parent);
    void rewireAllParents();
    void resetLanes(std::uint64_t sequence_id, std::uint32_t lanes,
                    const std::function<void(std::uint32_t)> &build);
    void resetBlock(BlockTrace &block, Rng &rng,
                    const std::vector<double> &master);
    const std::vector<Lane> &lanePlan(std::uint32_t lanes);
    void stepLane(const Lane &lane, Rng &rng, std::vector<double> &master,
                  std::uint32_t tokens, const LayerVisit &visit);
    void evolveMaster(Rng &stream, std::vector<double> &master) const;
    void stepBlock(BlockTrace &block, Rng &stream,
                   const std::vector<double> &master_latent);
    void applyPhaseShift(Rng &rng, std::uint32_t first,
                         std::uint32_t last);
    static void swapRanks(BlockTrace &block, std::uint64_t rank_a,
                          std::uint64_t rank_b);

    model::LlmConfig model_;
    SparsityConfig config_;
    std::uint32_t batch_;
    std::uint32_t layers_;
    Rng rng_;
    std::uint64_t tokenIndex_ = 0;
    std::uint32_t masterSlots_ = 0;
    std::vector<double> masterLatent_;
    std::vector<BlockTrace> attnBlocks_;
    std::vector<BlockTrace> mlpBlocks_;
    /** Draws per token of each built layer's two blocks. */
    std::vector<std::uint64_t> layerDraws_;
    /** Draws per token of the layers past the built prefix. */
    std::uint64_t unbuiltDraws_ = 0;
    /** stepTokens() lanes for the last lane count asked for. */
    std::vector<Lane> lanes_;
};

} // namespace hermes::sparsity

#endif // HERMES_SPARSITY_TRACE_HH
