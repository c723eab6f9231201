#include "sparsity/trace.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/threads.hh"

namespace hermes::sparsity {

namespace {

/**
 * Fill `prob` (one entry per neuron) with per-rank probabilities: a
 * power law with exponent s, scaled by water-filling so the mean
 * equals `mean` with every entry capped at `cap`.
 */
void
rankProbabilities(double exponent, double mean, double cap,
                  std::vector<double> &prob)
{
    const auto neurons = static_cast<std::uint32_t>(prob.size());
    for (std::uint32_t r = 0; r < neurons; ++r)
        prob[r] = std::pow(static_cast<double>(r + 1), -exponent);

    // Water-filling: repeatedly rescale the un-capped tail so the
    // total mass matches mean * neurons.
    const double target = mean * neurons;
    for (int iter = 0; iter < 32; ++iter) {
        double capped_mass = 0.0;
        double free_mass = 0.0;
        for (double p : prob) {
            if (p >= cap)
                capped_mass += cap;
            else
                free_mass += p;
        }
        if (free_mass <= 0.0)
            break;
        const double scale = (target - capped_mass) / free_mass;
        bool changed = false;
        for (double &p : prob) {
            if (p < cap) {
                p *= scale;
                if (p > cap) {
                    p = cap;
                    changed = true;
                }
            } else {
                p = cap;
            }
        }
        if (!changed)
            break;
    }
    for (double &p : prob)
        p = std::clamp(p, 1e-6, cap);
}

/** Mass share of the top `hot_fraction` ranks. */
double
topMassShare(const std::vector<double> &rank_prob, double hot_fraction)
{
    const auto hot = static_cast<std::size_t>(
        hot_fraction * static_cast<double>(rank_prob.size()));
    double top = 0.0;
    double total = 0.0;
    for (std::size_t r = 0; r < rank_prob.size(); ++r) {
        total += rank_prob[r];
        if (r < hot)
            top += rank_prob[r];
    }
    return total <= 0.0 ? 0.0 : top / total;
}

constexpr double kProbabilityCap = 0.98;

/**
 * Branch-free `condition ? if_true : if_false` on doubles: compilers
 * turn the plain ternary into a jump, which mispredicts on random
 * masks.
 */
double
pick(bool condition, double if_true, double if_false)
{
    const std::uint64_t take = 0 - static_cast<std::uint64_t>(condition);
    return std::bit_cast<double>(
        (std::bit_cast<std::uint64_t>(if_true) & take) |
        (std::bit_cast<std::uint64_t>(if_false) & ~take));
}

/** Size every per-neuron vector of a fresh block (all zero). */
void
allocateBlock(BlockTrace &block, std::uint32_t neurons)
{
    block.probability.resize(neurons);
    block.mask.resize(neurons);
    block.parent1.resize(neurons);
    block.parent2.resize(neurons);
    block.follower.resize(neurons);
    block.slot.resize(neurons);
    block.ownLatent.resize(neurons);
    block.idOfRank.resize(neurons);
    block.rankOf.resize(neurons);
}

} // namespace

double
ActivationTrace::calibrateExponent(std::uint32_t neurons,
                                   const SparsityConfig &config,
                                   std::uint32_t threads)
{
    // Monotone in the exponent: steeper power law concentrates more
    // mass on the head.  40 halvings of a bisection to the configured
    // target.  On three threads or more each round also evaluates
    // both midpoints the next halving can pick, so it takes two: the
    // next midpoint, 0.5 * (lo + hi) after the first halving, is
    // bitwise 0.5 * (mid + hi) or 0.5 * (lo + mid).  One scratch
    // vector per candidate, allocated on this thread.
    const bool speculate = threads >= 3;
    const std::size_t candidates = speculate ? 3 : 1;
    std::vector<std::vector<double>> scratch(
        candidates, std::vector<double>(neurons));
    double lo = 0.1;
    double hi = 3.0;
    for (int halving = 0; halving < 40; halving += speculate ? 2 : 1) {
        const double mid = 0.5 * (lo + hi);
        const std::array<double, 3> exponent{mid, 0.5 * (lo + mid),
                                             0.5 * (mid + hi)};
        std::array<bool, 3> below{};
        parallelFor(candidates, candidates, [&](std::size_t c) {
            rankProbabilities(exponent[c], config.activeFraction,
                              kProbabilityCap, scratch[c]);
            below[c] = topMassShare(scratch[c], config.hotFraction) <
                       config.targetHotMass;
        });
        (below[0] ? lo : hi) = mid;
        if (speculate) {
            const std::size_t next = below[0] ? 2 : 1;
            (below[next] ? lo : hi) = exponent[next];
        }
    }
    return 0.5 * (lo + hi);
}

ActivationTrace::ActivationTrace(const model::LlmConfig &model,
                                 SparsityConfig config,
                                 std::uint32_t batch,
                                 std::uint32_t threads,
                                 std::uint32_t layers)
    : model_(model), config_(config), batch_(batch),
      layers_(layers == kAllLayers ? model.layers : layers),
      rng_(config.seed)
{
    if (batch_ < 1)
        throw std::invalid_argument(
            "ActivationTrace: batch must be at least 1, got 0");
    if (!(config_.activeFraction > 0.0 && config_.activeFraction < 1.0))
        throw std::invalid_argument(
            "ActivationTrace: activeFraction must be in (0, 1), got " +
            std::to_string(config_.activeFraction));
    if (layers_ > model_.layers)
        throw std::invalid_argument(
            "ActivationTrace: " + std::to_string(layers_) +
            " layers asked of a " + std::to_string(model_.layers) +
            "-layer model");

    const auto attn_neurons =
        static_cast<std::uint32_t>(model_.attnNeuronsPerLayer());
    const auto mlp_neurons =
        static_cast<std::uint32_t>(model_.mlpNeuronsPerLayer());
    masterSlots_ = std::max(attn_neurons, mlp_neurons);
    masterLatent_.assign(masterSlots_, 0.0);

    // The per-neuron vectors are allocated on this thread and the
    // lanes below only fill them: what a worker thread allocates
    // stays in its malloc arena, where the next trace cannot reuse
    // it.
    attnBlocks_.resize(layers_);
    mlpBlocks_.resize(layers_);
    for (std::uint32_t l = 0; l < layers_; ++l) {
        allocateBlock(attnBlocks_[l], attn_neurons);
        allocateBlock(mlpBlocks_[l], mlp_neurons);
    }
    // Every block of one kind shares its per-rank profile; only the
    // rank-to-id permutation differs between layers.  The profiles
    // are made here: their exponent cache is per thread.
    const RankProfile attn_profile = rankProfile(attn_neurons, threads);
    const RankProfile mlp_profile = rankProfile(mlp_neurons, threads);
    // Each lane builds its layers' blocks, then draws their reset.
    resetLanes(0, laneCount(threads), [&](std::uint32_t l) {
        initBlock(attnBlocks_[l], attn_profile, 0x1000 + l);
        initBlock(mlpBlocks_[l], mlp_profile, 0x2000 + l);
    });

    const auto followers = [](const BlockTrace &block) {
        return static_cast<std::uint64_t>(
            std::count(block.follower.begin(), block.follower.end(), 1));
    };
    layerDraws_.resize(layers_);
    for (std::uint32_t l = 0; l < layers_; ++l) {
        layerDraws_[l] = attn_neurons + followers(attnBlocks_[l]) +
                         mlp_neurons + followers(mlpBlocks_[l]);
    }
    for (std::uint32_t l = layers_; l < model_.layers; ++l) {
        unbuiltDraws_ += attn_neurons +
                         unbuiltFollowers(attn_neurons, 0x1000 + l) +
                         mlp_neurons +
                         unbuiltFollowers(mlp_neurons, 0x2000 + l);
    }
    // Rank-matched correlation wiring in execution order: the
    // attention block of layer l couples to the MLP of layer l-1, the
    // MLP block couples to its own layer's attention block.
    rewireAllParents();
}

ActivationTrace::Gap::Gap(std::uint64_t count) : draws(count)
{
    if (draws > 0)
        poly = Rng::jumpPolynomial(draws);
}

void
ActivationTrace::Gap::skip(Rng &rng) const
{
    if (draws > 0)
        rng.jump(poly);
}

std::uint32_t
ActivationTrace::laneCount(std::uint32_t threads) const
{
    return std::max<std::uint32_t>(std::min(threads, layers_), 1);
}

Rng
ActivationTrace::initRng(std::uint64_t salt) const
{
    return Rng(config_.seed ^ (salt * 0x9e3779b97f4a7c15ULL));
}

ActivationTrace::RankProfile
ActivationTrace::rankProfile(std::uint32_t neurons,
                             std::uint32_t threads) const
{
    // Cache exponents per (block size, calibration targets): the
    // calibration reads nothing else, and the exact tuple keeps
    // configs that differ in any target from sharing an exponent.
    struct CachedExponent
    {
        std::uint32_t neurons;
        double activeFraction;
        double targetHotMass;
        double hotFraction;
        double exponent;
    };
    static thread_local std::vector<CachedExponent> exponent_cache;
    double exponent = -1.0;
    for (const CachedExponent &cached : exponent_cache) {
        if (cached.neurons == neurons &&
            cached.activeFraction == config_.activeFraction &&
            cached.targetHotMass == config_.targetHotMass &&
            cached.hotFraction == config_.hotFraction)
            exponent = cached.exponent;
    }
    if (exponent < 0.0) {
        exponent = calibrateExponent(neurons, config_, threads);
        exponent_cache.push_back(CachedExponent{
            neurons, config_.activeFraction, config_.targetHotMass,
            config_.hotFraction, exponent});
    }

    std::vector<double> rank_prob(neurons);
    rankProbabilities(exponent, config_.activeFraction, kProbabilityCap,
                      rank_prob);
    RankProfile profile;
    profile.probability.resize(neurons);
    double base_mass = 0.0;
    double union_mass = 0.0;
    for (std::uint32_t r = 0; r < neurons; ++r) {
        const double base = rank_prob[r];
        base_mass += base;
        profile.probability[r] =
            1.0 - std::pow(1.0 - base, static_cast<double>(batch_));
        union_mass += profile.probability[r];
    }
    // Guard against round-off at batch 1 (base == union up to eps).
    profile.computeScale = std::clamp(
        union_mass > 0.0 ? base_mass / union_mass : 1.0, 1e-6, 1.0);
    return profile;
}

void
ActivationTrace::initBlock(BlockTrace &block, const RankProfile &profile,
                           std::uint64_t salt)
{
    const std::uint32_t neurons = block.neurons();
    block.computeScale = profile.computeScale;

    // Assign ranks to neuron ids through a deterministic per-block
    // permutation so hotness is not a function of the neuron index.
    std::iota(block.idOfRank.begin(), block.idOfRank.end(), 0);
    Rng init_rng = initRng(salt);
    for (std::uint32_t i = neurons; i > 1; --i)
        std::swap(block.idOfRank[i - 1],
                  block.idOfRank[init_rng.below(i)]);

    for (std::uint32_t r = 0; r < neurons; ++r) {
        const std::uint32_t id = block.idOfRank[r];
        block.probability[id] = profile.probability[r];
        block.rankOf[id] = r;
        // Same-rank neurons in every block share a master slot, which
        // is what produces the cross-layer correlation.
        block.slot[id] = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(r) * masterSlots_ / neurons);
        block.follower[id] = init_rng.chance(config_.couplingMix);
    }
}

std::uint64_t
ActivationTrace::unbuiltFollowers(std::uint32_t neurons,
                                  std::uint64_t salt) const
{
    // initBlock()'s draws: the permutation's, then one per rank.
    Rng init_rng = initRng(salt);
    init_rng.jump(Rng::jumpPolynomial(neurons > 1 ? neurons - 1 : 0));
    std::uint64_t followers = 0;
    for (std::uint32_t r = 0; r < neurons; ++r)
        followers += init_rng.chance(config_.couplingMix);
    return followers;
}

void
ActivationTrace::wireParents(BlockTrace &child, const BlockTrace &parent)
{
    const std::uint32_t child_n = child.neurons();
    const std::uint32_t parent_n = parent.neurons();
    for (std::uint32_t id = 0; id < child_n; ++id) {
        const std::uint64_t r = child.rankOf[id];
        const auto pr =
            static_cast<std::uint32_t>(r * parent_n / child_n);
        child.parent1[id] = parent.idOfRank[pr];
        child.parent2[id] = parent.idOfRank[(pr + 1) % parent_n];
    }
}

void
ActivationTrace::reset(std::uint64_t sequence_id)
{
    resetLanes(sequence_id, 1, {});
}

void
ActivationTrace::resetLanes(
    std::uint64_t sequence_id, std::uint32_t lanes,
    const std::function<void(std::uint32_t)> &build)
{
    // A sequence draws its master latent, then one private latent
    // per neuron: every attention block, then every MLP block, in
    // layer order (the unbuilt layers' too).
    const std::uint64_t attn_n = model_.attnNeuronsPerLayer();
    const std::uint64_t mlp_n = model_.mlpNeuronsPerLayer();
    std::vector<ResetLane> plan;
    plan.reserve(lanes);
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        const std::uint32_t first = lane * layers_ / lanes;
        const std::uint32_t last = (lane + 1) * layers_ / lanes;
        plan.push_back(ResetLane{
            first, last, Gap(first * attn_n),
            Gap((model_.layers - last) * attn_n + first * mlp_n),
            Gap((model_.layers - last) * mlp_n)});
    }
    // Lane 0 walks the trace's own stream and master latent, the
    // others private copies.
    rng_ = Rng(config_.seed ^ (sequence_id * 0xda3e39cb94b95bdbULL) ^
               0xabcdef12345ULL);
    tokenIndex_ = 0;
    std::vector<Rng> rngs(lanes - 1, rng_);
    std::vector<std::vector<double>> masters(
        lanes - 1, std::vector<double>(masterSlots_));
    parallelFor(lanes, lanes, [&](std::size_t lane) {
        const ResetLane &own = plan[lane];
        if (build) {
            for (std::uint32_t l = own.first; l < own.last; ++l)
                build(l);
        }
        Rng &rng = lane == 0 ? rng_ : rngs[lane - 1];
        std::vector<double> &master =
            lane == 0 ? masterLatent_ : masters[lane - 1];
        for (auto &u : master)
            u = rng.uniform();
        own.attnBefore.skip(rng);
        for (std::uint32_t l = own.first; l < own.last; ++l)
            resetBlock(attnBlocks_[l], rng, master);
        own.between.skip(rng);
        for (std::uint32_t l = own.first; l < own.last; ++l)
            resetBlock(mlpBlocks_[l], rng, master);
        own.mlpAfter.skip(rng);
    });
}

void
ActivationTrace::resetBlock(BlockTrace &block, Rng &rng,
                            const std::vector<double> &master)
{
    block.activeList.clear();
    for (std::uint32_t i = 0; i < block.neurons(); ++i) {
        block.ownLatent[i] = rng.uniform();
        const double u = block.follower[i] ? master[block.slot[i]]
                                           : block.ownLatent[i];
        const bool active = u < block.probability[i];
        block.mask[i] = active;
        if (active)
            block.activeList.push_back(i);
    }
}

void
ActivationTrace::stepBlock(BlockTrace &block, Rng &stream,
                           const std::vector<double> &master_latent)
{
    // Per neuron, in index order, the stream holds one refresh draw
    // and, for followers only, one noise draw.  Each chunk draws its
    // whole share up front and walks it with a cursor, so the loop
    // below has no data-dependent branch and no RNG call.
    constexpr std::uint32_t kChunk = 1024;
    double draws[2 * kChunk + 1];
    std::uint32_t active_ids[kChunk];

    const double refresh = 1.0 - config_.persistence;
    const double noise = config_.followerNoise;
    const std::uint32_t n = block.neurons();
    const double *const probability = block.probability.data();
    const std::uint8_t *const follower = block.follower.data();
    const std::uint32_t *const slot = block.slot.data();
    const double *const master = master_latent.data();
    double *const own = block.ownLatent.data();
    std::uint8_t *const mask = block.mask.data();
    block.activeList.clear();

    Rng rng = stream;
    for (std::uint32_t begin = 0; begin < n; begin += kChunk) {
        const std::uint32_t end = std::min(n, begin + kChunk);
        std::uint32_t followers = 0;
        for (std::uint32_t i = begin; i < end; ++i)
            followers += follower[i];
        const std::uint32_t count = end - begin + followers;
        for (std::uint32_t k = 0; k < count; ++k)
            draws[k] = rng.uniform();
        // Read (never used) by a non-follower in the chunk's last slot.
        draws[count] = 1.0;

        std::uint32_t p = 0;
        std::uint32_t active_count = 0;
        for (std::uint32_t i = begin; i < end; ++i) {
            // Evolve the private latent: one draw decides refresh
            // and, when refreshing, is recycled (scaled) as the new
            // value.
            const double draw = draws[p];
            const double latent =
                pick(draw < refresh, draw / refresh, own[i]);
            own[i] = latent;

            // Followers read the shared slot except for occasional
            // private excursions (keeps the conditional below 1).
            const bool follows = follower[i] != 0;
            const bool excursion = draws[p + 1] < noise;
            const double u =
                pick(follows & !excursion, master[slot[i]], latent);
            p += 1 + follower[i];

            const bool active = u < probability[i];
            mask[i] = active;
            active_ids[active_count] = i;
            active_count += active;
        }
        block.activeList.insert(block.activeList.end(), active_ids,
                                active_ids + active_count);
    }
    stream = rng;
}

void
ActivationTrace::rewireAllParents()
{
    for (std::uint32_t l = 0; l < layers_; ++l) {
        if (l > 0)
            wireParents(attnBlocks_[l], mlpBlocks_[l - 1]);
        wireParents(mlpBlocks_[l], attnBlocks_[l]);
    }
}

void
ActivationTrace::swapRanks(BlockTrace &block, std::uint64_t rank_a,
                           std::uint64_t rank_b)
{
    const std::uint32_t id_a =
        block.idOfRank[static_cast<std::size_t>(rank_a)];
    const std::uint32_t id_b =
        block.idOfRank[static_cast<std::size_t>(rank_b)];
    if (id_a == id_b)
        return;
    // The ids trade every rank-derived attribute; their private
    // latents and current masks stay put (the new probability takes
    // effect from the next token on).
    std::swap(block.probability[id_a], block.probability[id_b]);
    std::swap(block.slot[id_a], block.slot[id_b]);
    std::swap(block.follower[id_a], block.follower[id_b]);
    block.idOfRank[static_cast<std::size_t>(rank_a)] = id_b;
    block.idOfRank[static_cast<std::size_t>(rank_b)] = id_a;
    block.rankOf[id_a] = static_cast<std::uint32_t>(rank_b);
    block.rankOf[id_b] = static_cast<std::uint32_t>(rank_a);
}

void
ActivationTrace::applyPhaseShift(Rng &rng, std::uint32_t first,
                                 std::uint32_t last)
{
    // Swap rank owners at the same quantiles in every block, so the
    // cross-layer (rank-matched) correlation structure survives the
    // drift while the identity of hot neurons changes.  A lane
    // shifts and rewires the layers [first, last) it owns; the
    // parents of layer `first`'s attention block lie in another
    // lane's layer unless `first` is 0.
    const auto swaps = static_cast<std::uint64_t>(
        0.5 * config_.phaseDrift * masterSlots_);
    std::vector<std::pair<double, double>> quantiles;
    quantiles.reserve(swaps);
    for (std::uint64_t s = 0; s < swaps; ++s)
        quantiles.emplace_back(rng.uniform(), rng.uniform());

    auto shift_block = [&](BlockTrace &block) {
        const std::uint32_t n = block.neurons();
        for (const auto &[qa, qb] : quantiles) {
            swapRanks(block,
                      static_cast<std::uint64_t>(qa * n),
                      static_cast<std::uint64_t>(qb * n));
        }
    };
    for (std::uint32_t l = first; l < last; ++l) {
        shift_block(attnBlocks_[l]);
        shift_block(mlpBlocks_[l]);
    }
    for (std::uint32_t l = first; l < last; ++l) {
        if (l > first)
            wireParents(attnBlocks_[l], mlpBlocks_[l - 1]);
        wireParents(mlpBlocks_[l], attnBlocks_[l]);
    }
}

void
ActivationTrace::evolveMaster(Rng &stream,
                              std::vector<double> &master) const
{
    // The shared semantic latent (one slot per frequency rank).
    const double refresh = 1.0 - config_.persistence;
    Rng rng = stream;
    for (auto &u : master) {
        const double draw = rng.uniform();
        u = pick(draw < refresh, draw / refresh, u);
    }
    stream = rng;
}

const std::vector<ActivationTrace::Lane> &
ActivationTrace::lanePlan(std::uint32_t lanes)
{
    if (lanes_.size() == lanes)
        return lanes_;
    std::uint64_t total = unbuiltDraws_;
    for (const std::uint64_t draws : layerDraws_)
        total += draws;
    lanes_.clear();
    std::uint64_t before = 0;
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        const std::uint32_t first = lane * layers_ / lanes;
        const std::uint32_t last = (lane + 1) * layers_ / lanes;
        std::uint64_t own = 0;
        for (std::uint32_t l = first; l < last; ++l)
            own += layerDraws_[l];
        lanes_.push_back(
            Lane{first, last, Gap(before), Gap(total - before - own)});
        before += own;
    }
    return lanes_;
}

void
ActivationTrace::stepLane(const Lane &lane, Rng &rng,
                          std::vector<double> &master,
                          std::uint32_t tokens, const LayerVisit &visit)
{
    for (std::uint32_t t = 0; t < tokens; ++t) {
        const std::uint64_t index = tokenIndex_ + t;
        if (config_.phaseTokens > 0 && index > 0 &&
            index % config_.phaseTokens == 0)
            applyPhaseShift(rng, lane.first, lane.last);
        evolveMaster(rng, master);
        lane.before.skip(rng);
        for (std::uint32_t l = lane.first; l < lane.last; ++l) {
            stepBlock(attnBlocks_[l], rng, master);
            stepBlock(mlpBlocks_[l], rng, master);
            if (visit)
                visit(t, l);
        }
        lane.after.skip(rng);
    }
}

void
ActivationTrace::nextToken()
{
    stepTokens(1, 1, {});
}

void
ActivationTrace::stepTokens(std::uint32_t tokens, std::uint32_t threads,
                            const LayerVisit &visit)
{
    const std::uint32_t lanes = laneCount(threads);
    const std::vector<Lane> &plan = lanePlan(lanes);
    // Lane 0 walks the trace's own stream and master latent, the
    // others private copies; every lane ends where the next token
    // starts.
    std::vector<Rng> rngs(lanes - 1, rng_);
    std::vector<std::vector<double>> masters(lanes - 1, masterLatent_);
    parallelFor(lanes, lanes, [&](std::size_t lane) {
        stepLane(plan[lane], lane == 0 ? rng_ : rngs[lane - 1],
                 lane == 0 ? masterLatent_ : masters[lane - 1], tokens,
                 visit);
    });
    tokenIndex_ += tokens;
    // A phase shift rewires a lane's blocks but its first attention
    // block, whose parent block another lane owns.
    for (std::uint32_t lane = 1; lane < lanes; ++lane) {
        const std::uint32_t first = plan[lane].first;
        wireParents(attnBlocks_[first], mlpBlocks_[first - 1]);
    }
}

void
ActivationTrace::swapActivations(std::uint32_t layer,
                                 LayerActivations &out)
{
    hermes_assert(layer < layers_);
    auto swap_block = [](BlockTrace &block,
                         std::vector<std::uint8_t> &mask,
                         std::vector<std::uint32_t> &active) {
        // stepBlock() writes every mask entry through a raw pointer.
        mask.resize(block.neurons());
        block.mask.swap(mask);
        block.activeList.swap(active);
    };
    swap_block(attnBlocks_[layer], out.attnMask, out.attnActive);
    swap_block(mlpBlocks_[layer], out.mlpMask, out.mlpActive);
}

const BlockTrace &
ActivationTrace::attn(std::uint32_t layer) const
{
    hermes_assert(layer < layers_);
    return attnBlocks_[layer];
}

const BlockTrace &
ActivationTrace::mlp(std::uint32_t layer) const
{
    hermes_assert(layer < layers_);
    return mlpBlocks_[layer];
}

double
ActivationTrace::currentActiveFraction() const
{
    std::uint64_t active = 0;
    std::uint64_t total = 0;
    for (std::uint32_t l = 0; l < layers_; ++l) {
        active += attnBlocks_[l].activeCount() +
                  mlpBlocks_[l].activeCount();
        total += attnBlocks_[l].neurons() + mlpBlocks_[l].neurons();
    }
    return total == 0 ? 0.0
                      : static_cast<double>(active) /
                            static_cast<double>(total);
}

} // namespace hermes::sparsity
