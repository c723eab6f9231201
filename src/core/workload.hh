/**
 * @file
 * Workload scenario generator: seeded, reproducible arrival traces.
 *
 * PR 1's serving layer consumed hand-built traces (fixed lengths,
 * exponential gaps).  Real fleets face richer traffic: steady Poisson
 * streams, bursty arrivals with heavy inter-arrival tails, diurnal
 * load swings, and recorded production traces to replay.  This module
 * produces all of them from a single `ScenarioConfig`, bit-identically
 * for a given seed, so benches and tests can sweep scenarios instead
 * of hardcoding traces and every run is reproducible.
 *
 * Arrival processes:
 *  - Poisson: exponential inter-arrivals at `ratePerSecond`;
 *  - Bursty: Gamma inter-arrivals with squared coefficient of
 *    variation `burstiness` (> 1 clusters arrivals into bursts while
 *    preserving the mean rate);
 *  - Diurnal: inhomogeneous Poisson, rate modulated by a sinusoid of
 *    period `diurnalPeriodSeconds` and depth `diurnalDepth`, sampled
 *    by thinning;
 *  - Replay: parse a recorded `arrival_s,prompt,generate` CSV.
 *
 * Request lengths come from a bounded discrete distribution with an
 * optional heavy tail (a small fraction of long-context stragglers),
 * matching the shape of production prompt-length histograms.
 */

#ifndef HERMES_CORE_WORKLOAD_HH
#define HERMES_CORE_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/serving.hh"

namespace hermes::serving {

/** How request arrival instants are generated. */
enum class ArrivalProcess
{
    Poisson,
    Bursty,
    Diurnal,
    Replay,
};

/** Display name of an arrival process. */
std::string arrivalProcessName(ArrivalProcess process);

/**
 * Bounded discrete length distribution with an optional heavy tail.
 *
 * Draws uniform in [mean - spread, mean + spread] (clamped to >= 1);
 * with probability `tailChance` the draw is stretched by `tailScale`
 * to model long-context stragglers.  spread = 0 is deterministic.
 */
struct LengthDistribution
{
    std::uint32_t mean = 128;
    std::uint32_t spread = 0;
    double tailChance = 0.0;
    double tailScale = 4.0;

    /** One seeded draw (>= 1 token). */
    std::uint32_t sample(Rng &rng) const;
};

/** Everything needed to synthesize one reproducible arrival trace. */
struct ScenarioConfig
{
    std::string name = "steady";
    ArrivalProcess process = ArrivalProcess::Poisson;

    /** Number of requests in the trace (Replay: taken from the CSV). */
    std::uint32_t requests = 64;

    /**
     * Mean arrival rate.  A rate <= 0 collapses the trace into one
     * burst at t = 0 (every request arrives simultaneously).
     */
    double ratePerSecond = 2.0;

    /**
     * Squared coefficient of variation of Bursty inter-arrivals
     * (Gamma shape = 1 / burstiness).  1 degenerates to Poisson;
     * larger values cluster arrivals harder.  Clamped to >= 1.
     */
    double burstiness = 8.0;

    /** Diurnal sinusoid period (seconds per load cycle). */
    double diurnalPeriodSeconds = 60.0;

    /** Diurnal modulation depth in [0, 1): rate swings rate*(1±depth). */
    double diurnalDepth = 0.8;

    LengthDistribution prompt{256, 128, 0.05, 4.0};
    LengthDistribution generate{64, 32, 0.0, 1.0};

    /**
     * Fraction of requests marked high priority (drawn from a
     * dedicated RNG stream, so 0 — the default — produces traces
     * bit-identical to the pre-priority generator).
     */
    double highPriorityFraction = 0.0;

    /** Priority level assigned to the high-priority fraction. */
    std::uint32_t highPriority = 1;

    /**
     * Multi-turn sessions (generateSessionWorkload): turns per
     * conversation.  The default mean 1 / spread 0 makes every
     * session single-turn — generateSessionWorkload then degenerates
     * to independent arrivals.  In session mode `requests` counts
     * *sessions*, not turns.
     */
    LengthDistribution turns{1, 0, 0.0, 1.0};

    /**
     * Think time between a turn completing and the follow-up
     * arriving: gaussian(thinkMeanSeconds, thinkSpreadSeconds)
     * clamped to >= 0.
     */
    double thinkMeanSeconds = 2.0;
    double thinkSpreadSeconds = 0.5;

    std::uint64_t seed = 1;

    /**
     * Replay only: CSV text (`arrival_s,prompt,generate[,priority]`
     * per line).
     */
    std::string replayCsv;
};

/**
 * Generate the trace described by `scenario`.  Arrivals come out
 * sorted; ids are assigned 0..n-1 in arrival order.  Same config and
 * seed => bit-identical trace.
 */
std::vector<ServedRequest> generateWorkload(const ScenarioConfig &scenario);

/** One turn of a conversation and its place in the plan. */
struct SessionTurn
{
    ServedRequest request;
    std::uint32_t turn = 0;      ///< Zero-based, within its session.
    std::int64_t successor = -1; ///< Next turn's id (-1: last turn).
    Seconds thinkAfter = 0.0;    ///< Successor's wait after this ends.
};

/**
 * A multi-turn conversational workload, one record per turn in trace
 * order (the generator makes `turns[i].request.id == i`).  Only first
 * turns have workload-determined arrivals: a follow-up arrives a
 * think-time after its predecessor completes, which only the
 * simulation decides, so its stored `arrival` is a placeholder (the
 * session start) the kernel overwrites at `done + thinkAfter`.  Turn
 * k's prompt replays the whole history (previous prompt + generated
 * tokens) plus a fresh user message.
 */
struct SessionTrace
{
    std::vector<SessionTurn> turns;
};

/**
 * Generate the seeded session trace described by `scenario`:
 * `scenario.requests` conversations, first turns arriving by the
 * scenario's arrival process, turn counts from `scenario.turns`,
 * think times from thinkMeanSeconds/thinkSpreadSeconds.  Session
 * ids are 1..sessions (0 is reserved for "no session"); request ids
 * are dense 0..turns-1, grouped by session in first-arrival order.
 * Same config and seed => bit-identical trace.
 */
SessionTrace generateSessionWorkload(const ScenarioConfig &scenario);

/**
 * Parse a replayed trace: one `arrival_s,prompt,generate` triple —
 * optionally extended with a fourth `priority` column — per line;
 * blank lines and lines starting with '#' are skipped.  Old
 * three-column traces parse with the default priority 0.  Throws
 * std::invalid_argument on malformed rows.
 */
std::vector<ServedRequest> parseCsvTrace(const std::string &csv);

/** Serialize a trace to the CSV format parseCsvTrace() accepts. */
std::string toCsvTrace(const std::vector<ServedRequest> &workload);

/**
 * The standard scenario sweep ("steady", "bursty", "diurnal") at the
 * given size and mean rate, for benches that compare like with like.
 */
std::vector<ScenarioConfig>
standardScenarios(std::uint32_t requests, double rate_per_second,
                  std::uint64_t seed);

/**
 * One standard scenario by name; throws on an unknown name.  Besides
 * the standard sweep, "multiturn" names the conversational scenario
 * consumed through generateSessionWorkload() (Poisson session
 * starts, 2-6 turns, ~2 s think time).
 */
ScenarioConfig scenarioByName(const std::string &name,
                              std::uint32_t requests,
                              double rate_per_second,
                              std::uint64_t seed);

} // namespace hermes::serving

#endif // HERMES_CORE_WORKLOAD_HH
