/**
 * @file
 * Profiling utilities over activation traces: the measurements behind
 * Fig. 4 (token-wise similarity, layer-wise correlation) and the
 * hot/cold 80-20 observation of Sec. I.
 */

#ifndef HERMES_SPARSITY_STATS_HH
#define HERMES_SPARSITY_STATS_HH

#include <cstdint>
#include <vector>

#include "sparsity/trace.hh"

namespace hermes::sparsity {

/** Token-wise similarity curve: similarity[d] for distance d+1. */
struct SimilarityCurve
{
    std::vector<double> byDistance;
};

/** Result of profiling a trace over a window of tokens. */
struct TraceProfile
{
    /** Per-neuron activation frequency of one probed MLP block. */
    std::vector<double> frequency;

    /** Fraction of activation mass carried by the top `hotFraction`. */
    double hotMassCoverage = 0.0;

    /** Mean active fraction over the profiled window. */
    double meanActiveFraction = 0.0;

    SimilarityCurve similarity;

    /** P(child active | primary parent active), probed layer pair. */
    double parentConditional = 0.0;

    /** P(child active) unconditioned, same probed block. */
    double childMarginal = 0.0;
};

/**
 * Run the trace for `tokens` tokens and measure all Fig. 4 statistics
 * on the probed layer.
 *
 * @param trace         Generator (reset by this call).
 * @param tokens        Number of tokens to profile.
 * @param max_distance  Longest token distance in the similarity curve.
 * @param probe_layer   Layer whose MLP block is profiled.
 * @param hot_fraction  Fraction of neurons counted as "hot".
 * @throws std::invalid_argument if `probe_layer` has no successor
 *         or `tokens` <= `max_distance`.
 */
TraceProfile profileTrace(ActivationTrace &trace, std::uint32_t tokens,
                          std::uint32_t max_distance,
                          std::uint32_t probe_layer,
                          double hot_fraction = 0.2);

/**
 * Containment similarity |A & B| / |A| between two masks.
 */
double maskSimilarity(const std::vector<std::uint8_t> &a,
                      const std::vector<std::uint8_t> &b);

/**
 * Fraction of total activation mass covered by the top `hot_fraction`
 * of neurons when ranked by frequency.
 */
double hotMassCoverage(std::vector<double> frequency,
                       double hot_fraction);

} // namespace hermes::sparsity

#endif // HERMES_SPARSITY_STATS_HH
