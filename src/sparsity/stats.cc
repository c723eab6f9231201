#include "sparsity/stats.hh"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace hermes::sparsity {

double
maskSimilarity(const std::vector<std::uint8_t> &a,
               const std::vector<std::uint8_t> &b)
{
    hermes_assert(a.size() == b.size(), "mask sizes differ");
    std::uint64_t inter = 0;
    std::uint64_t base = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        base += a[i] != 0;
        inter += (a[i] != 0) && (b[i] != 0);
    }
    return base == 0 ? 0.0
                     : static_cast<double>(inter) /
                           static_cast<double>(base);
}

double
hotMassCoverage(std::vector<double> frequency, double hot_fraction)
{
    if (frequency.empty())
        return 0.0;
    std::sort(frequency.begin(), frequency.end(), std::greater<>());
    const double total =
        std::accumulate(frequency.begin(), frequency.end(), 0.0);
    if (total <= 0.0)
        return 0.0;
    const auto hot_count = static_cast<std::size_t>(
        hot_fraction * static_cast<double>(frequency.size()));
    const double hot_mass = std::accumulate(
        frequency.begin(),
        frequency.begin() + static_cast<std::ptrdiff_t>(hot_count), 0.0);
    return hot_mass / total;
}

TraceProfile
profileTrace(ActivationTrace &trace, std::uint32_t tokens,
             std::uint32_t max_distance, std::uint32_t probe_layer,
             double hot_fraction)
{
    if (std::uint64_t{probe_layer} + 1 >= trace.layers())
        throw std::invalid_argument(
            "profileTrace: probe layer " + std::to_string(probe_layer) +
            " has no successor in a trace of " +
            std::to_string(trace.layers()) + " layers");
    if (tokens <= max_distance)
        throw std::invalid_argument(
            "profileTrace: " + std::to_string(tokens) +
            " tokens do not exceed the longest distance " +
            std::to_string(max_distance));

    trace.reset(0);

    const std::uint32_t neurons = trace.mlp(probe_layer).neurons();
    TraceProfile profile;
    profile.frequency.assign(neurons, 0.0);
    profile.similarity.byDistance.assign(max_distance, 0.0);

    // History of probed-layer masks for the similarity curve.
    std::vector<std::vector<std::uint8_t>> history;
    std::vector<std::uint64_t> sim_samples(max_distance, 0);

    double active_fraction_sum = 0.0;
    std::uint64_t parent_active = 0;
    std::uint64_t parent_and_child = 0;
    std::uint64_t child_active = 0;
    std::uint64_t child_samples = 0;

    for (std::uint32_t t = 0; t < tokens; ++t) {
        trace.nextToken();
        const BlockTrace &mlp = trace.mlp(probe_layer);
        const BlockTrace &next_attn = trace.attn(probe_layer + 1);

        for (std::uint32_t i = 0; i < neurons; ++i)
            profile.frequency[i] += mlp.mask[i];
        active_fraction_sum += trace.currentActiveFraction();

        // Layer-wise conditional: next layer's attention block reads
        // this MLP block as parent.
        for (std::uint32_t i = 0; i < next_attn.neurons(); ++i) {
            const std::uint32_t p = next_attn.parent1[i];
            const bool pa = mlp.mask[p] != 0;
            const bool ca = next_attn.mask[i] != 0;
            parent_active += pa;
            parent_and_child += pa && ca;
            child_active += ca;
            ++child_samples;
        }

        for (std::uint32_t d = 1;
             d <= max_distance && d <= history.size(); ++d) {
            profile.similarity.byDistance[d - 1] += maskSimilarity(
                history[history.size() - d], mlp.mask);
            ++sim_samples[d - 1];
        }
        history.push_back(mlp.mask);
    }

    for (auto &f : profile.frequency)
        f /= tokens;
    for (std::uint32_t d = 0; d < max_distance; ++d) {
        if (sim_samples[d] > 0)
            profile.similarity.byDistance[d] /=
                static_cast<double>(sim_samples[d]);
    }
    profile.meanActiveFraction = active_fraction_sum / tokens;
    profile.hotMassCoverage =
        hotMassCoverage(profile.frequency, hot_fraction);
    profile.parentConditional =
        parent_active == 0 ? 0.0
                           : static_cast<double>(parent_and_child) /
                                 static_cast<double>(parent_active);
    profile.childMarginal =
        child_samples == 0 ? 0.0
                           : static_cast<double>(child_active) /
                                 static_cast<double>(child_samples);
    return profile;
}

} // namespace hermes::sparsity
