#include "core/workload.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace hermes::serving {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/** Standard normal via Box-Muller (two uniform draws per call). */
double
gaussian(Rng &rng)
{
    const double u = std::max(rng.uniform(), 1.0e-300);
    const double v = rng.uniform();
    return std::sqrt(-2.0 * std::log(u)) *
           std::cos(kTwoPi * v);
}

/** Exponential draw with the given mean (> 0). */
double
exponential(Rng &rng, double mean)
{
    const double u = std::max(rng.uniform(), 1.0e-12);
    return -std::log(u) * mean;
}

/**
 * Gamma(shape, scale) via Marsaglia-Tsang squeeze; shape < 1 handled
 * with the standard boosting identity Gamma(a) = Gamma(a+1) * U^(1/a).
 */
double
gammaDraw(Rng &rng, double shape, double scale)
{
    if (shape < 1.0) {
        const double u = std::max(rng.uniform(), 1.0e-300);
        return gammaDraw(rng, shape + 1.0, scale) *
               std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x = gaussian(rng);
        double v = 1.0 + c * x;
        if (v <= 0.0)
            continue;
        v = v * v * v;
        const double u = std::max(rng.uniform(), 1.0e-300);
        if (std::log(u) < 0.5 * x * x + d - d * v + d * std::log(v))
            return d * v * scale;
    }
}

std::vector<Seconds>
arrivalInstants(const ScenarioConfig &scenario, Rng &rng)
{
    std::vector<Seconds> instants;
    instants.reserve(scenario.requests);
    const double rate = scenario.ratePerSecond;

    // Zero (or negative) rate: the whole trace is one burst at t = 0.
    if (rate <= 0.0) {
        instants.assign(scenario.requests, 0.0);
        return instants;
    }

    Seconds clock = 0.0;
    switch (scenario.process) {
    case ArrivalProcess::Poisson:
        for (std::uint32_t i = 0; i < scenario.requests; ++i) {
            instants.push_back(clock);
            clock += std::min(exponential(rng, 1.0 / rate),
                              100.0 / rate);
        }
        break;
    case ArrivalProcess::Bursty: {
        // Gamma inter-arrivals: mean 1/rate, CV^2 = burstiness.
        // shape < 1 piles probability near zero (bursts) with a heavy
        // tail (lulls between bursts).
        const double cv2 = std::max(scenario.burstiness, 1.0);
        const double shape = 1.0 / cv2;
        const double scale = cv2 / rate;
        for (std::uint32_t i = 0; i < scenario.requests; ++i) {
            instants.push_back(clock);
            clock += std::min(gammaDraw(rng, shape, scale),
                              100.0 / rate);
        }
        break;
    }
    case ArrivalProcess::Diurnal: {
        // Inhomogeneous Poisson by thinning: candidates at the peak
        // rate, accepted with probability lambda(t) / lambda_max.
        const double depth =
            std::clamp(scenario.diurnalDepth, 0.0, 0.999);
        const double period =
            std::max(scenario.diurnalPeriodSeconds, 1.0e-6);
        const double peak = rate * (1.0 + depth);
        while (instants.size() < scenario.requests) {
            clock += std::min(exponential(rng, 1.0 / peak),
                              100.0 / peak);
            const double lambda =
                rate * (1.0 + depth * std::sin(kTwoPi * clock /
                                               period));
            if (rng.uniform() * peak < lambda)
                instants.push_back(clock);
        }
        break;
    }
    case ArrivalProcess::Replay:
        break; // Handled by the caller; no synthesis.
    }
    return instants;
}

} // namespace

std::string
arrivalProcessName(ArrivalProcess process)
{
    switch (process) {
    case ArrivalProcess::Poisson:
        return "poisson";
    case ArrivalProcess::Bursty:
        return "bursty";
    case ArrivalProcess::Diurnal:
        return "diurnal";
    case ArrivalProcess::Replay:
        return "replay";
    }
    return "?";
}

std::uint32_t
LengthDistribution::sample(Rng &rng) const
{
    const std::uint32_t lo =
        mean > spread ? mean - spread : 1;
    const std::uint64_t width =
        static_cast<std::uint64_t>(mean) + spread - lo + 1;
    auto tokens =
        static_cast<std::uint32_t>(lo + rng.below(width));
    if (tailChance > 0.0 && rng.chance(tailChance)) {
        const double stretched =
            static_cast<double>(tokens) * std::max(tailScale, 1.0);
        tokens = static_cast<std::uint32_t>(
            std::min(stretched, 4.0e9));
    }
    return std::max<std::uint32_t>(tokens, 1);
}

std::vector<ServedRequest>
generateWorkload(const ScenarioConfig &scenario)
{
    if (scenario.process == ArrivalProcess::Replay)
        return parseCsvTrace(scenario.replayCsv);

    // Independent streams for arrivals, lengths, and priorities:
    // adding a request never shifts the lengths of the ones before
    // it, and turning priorities on never shifts arrivals/lengths.
    Rng arrival_rng(scenario.seed ^ 0xa27c3f11d5b86e09ULL);
    Rng length_rng(scenario.seed ^ 0x3c96b41f0e72a5cdULL);
    Rng priority_rng(scenario.seed ^ 0x91f4be5a60d8c723ULL);

    const auto instants = arrivalInstants(scenario, arrival_rng);
    std::vector<ServedRequest> workload;
    workload.reserve(instants.size());
    for (std::size_t i = 0; i < instants.size(); ++i) {
        ServedRequest request;
        request.id = i;
        request.arrival = instants[i];
        request.promptTokens = scenario.prompt.sample(length_rng);
        request.generateTokens =
            scenario.generate.sample(length_rng);
        if (scenario.highPriorityFraction > 0.0 &&
            priority_rng.chance(scenario.highPriorityFraction))
            request.priority = scenario.highPriority;
        workload.push_back(request);
    }
    return workload;
}

SessionTrace
generateSessionWorkload(const ScenarioConfig &scenario)
{
    // Independent streams, same discipline as generateWorkload:
    // session starts reuse the arrival stream, per-turn lengths the
    // length stream; turn counts and think times get a dedicated
    // stream so tuning them never shifts arrivals or lengths.
    Rng arrival_rng(scenario.seed ^ 0xa27c3f11d5b86e09ULL);
    Rng length_rng(scenario.seed ^ 0x3c96b41f0e72a5cdULL);
    Rng session_rng(scenario.seed ^ 0x6f2d8c4b9e1a3750ULL);

    const auto starts = arrivalInstants(scenario, arrival_rng);

    SessionTrace trace;
    for (std::size_t s = 0; s < starts.size(); ++s) {
        const std::uint64_t session =
            static_cast<std::uint64_t>(s) + 1; // 0 = no session.
        const std::uint32_t turns =
            scenario.turns.sample(session_rng);
        std::uint64_t history = 0;
        for (std::uint32_t turn = 0; turn < turns; ++turn) {
            ServedRequest request;
            request.id = trace.turns.size();
            // Follow-up arrivals are simulation-determined (done +
            // think); the session start is a placeholder the fleet
            // kernel overwrites.
            request.arrival = starts[s];
            // The prompt replays the whole conversation so far plus
            // a fresh user message; with the session KV resident,
            // only that fresh suffix actually prefills.
            const std::uint64_t message =
                scenario.prompt.sample(length_rng);
            request.promptTokens = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(history + message,
                                        UINT32_MAX));
            request.generateTokens =
                scenario.generate.sample(length_rng);
            request.sessionId = session;
            history = static_cast<std::uint64_t>(
                          request.promptTokens) +
                      request.generateTokens;

            const double think = std::max(
                0.0, scenario.thinkMeanSeconds +
                         scenario.thinkSpreadSeconds *
                             gaussian(session_rng));
            const bool last = turn + 1 == turns;
            trace.turns.push_back(SessionTurn{
                request, turn,
                last ? -1 : static_cast<std::int64_t>(request.id) + 1,
                last ? 0.0 : think});
        }
    }
    return trace;
}

std::vector<ServedRequest>
parseCsvTrace(const std::string &csv)
{
    std::vector<ServedRequest> workload;
    std::istringstream stream(csv);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(stream, line)) {
        ++line_no;
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        ServedRequest request;
        double arrival = 0.0;
        long long prompt = 0;
        long long generate = 0;
        long long priority = 0;
        char comma1 = 0;
        char comma2 = 0;
        std::istringstream row(line);
        row >> arrival >> comma1 >> prompt >> comma2 >> generate;
        bool fields_ok =
            !row.fail() && comma1 == ',' && comma2 == ',';
        // Optional fourth column: priority.  Old three-column rows
        // parse with the default priority 0.
        char comma3 = 0;
        if (fields_ok && row >> comma3) {
            fields_ok = comma3 == ',' &&
                        static_cast<bool>(row >> priority);
        }
        char trailing = 0;
        const bool garbage = // Non-whitespace leftovers.
            fields_ok && static_cast<bool>(row >> trailing);
        if (!fields_ok || garbage || arrival < 0.0 || prompt < 1 ||
            generate < 0 || priority < 0 || prompt > UINT32_MAX ||
            generate > UINT32_MAX || priority > UINT32_MAX) {
            throw std::invalid_argument(
                "parseCsvTrace: malformed row " +
                std::to_string(line_no) + ": '" + line + "'");
        }
        request.id = workload.size();
        request.arrival = arrival;
        request.promptTokens = static_cast<std::uint32_t>(prompt);
        request.generateTokens =
            static_cast<std::uint32_t>(generate);
        request.priority = static_cast<std::uint32_t>(priority);
        workload.push_back(request);
    }
    sortByArrival(workload);
    for (std::size_t i = 0; i < workload.size(); ++i)
        workload[i].id = i;
    return workload;
}

std::string
toCsvTrace(const std::vector<ServedRequest> &workload)
{
    // The priority column is emitted only when some request uses
    // it, so all-default traces keep their historical byte-exact
    // three-column form (and stay readable by older parsers).
    bool prioritized = false;
    for (const ServedRequest &request : workload)
        prioritized |= request.priority != 0;

    std::ostringstream out;
    out << (prioritized ? "# arrival_s,prompt,generate,priority\n"
                        : "# arrival_s,prompt,generate\n");
    out.precision(17);
    for (const ServedRequest &request : workload) {
        out << request.arrival << ',' << request.promptTokens << ','
            << request.generateTokens;
        if (prioritized)
            out << ',' << request.priority;
        out << '\n';
    }
    return out.str();
}

std::vector<ScenarioConfig>
standardScenarios(std::uint32_t requests, double rate_per_second,
                  std::uint64_t seed)
{
    return {
        scenarioByName("steady", requests, rate_per_second, seed),
        scenarioByName("bursty", requests, rate_per_second, seed),
        scenarioByName("diurnal", requests, rate_per_second, seed),
    };
}

ScenarioConfig
scenarioByName(const std::string &name, std::uint32_t requests,
               double rate_per_second, std::uint64_t seed)
{
    ScenarioConfig scenario;
    scenario.name = name;
    scenario.requests = requests;
    scenario.ratePerSecond = rate_per_second;
    scenario.seed = seed;
    if (name == "steady") {
        scenario.process = ArrivalProcess::Poisson;
    } else if (name == "bursty") {
        scenario.process = ArrivalProcess::Bursty;
        scenario.burstiness = 8.0;
    } else if (name == "diurnal") {
        scenario.process = ArrivalProcess::Diurnal;
        scenario.diurnalPeriodSeconds =
            rate_per_second > 0.0
                ? 2.0 * static_cast<double>(requests) /
                      rate_per_second / 3.0
                : 60.0;
        scenario.diurnalDepth = 0.8;
    } else if (name == "multiturn") {
        // Conversational traffic: Poisson session starts, 2-6 turns
        // per conversation, ~2 s of think time between turns.
        // Messages are document-heavy (pasted context, retrieved
        // chunks) with chat-length replies, so the conversation
        // context reaches the multi-thousand-token regime where
        // re-prefilling history is the dominant per-turn cost —
        // exactly the regime KV-affinity routing targets.
        scenario.process = ArrivalProcess::Poisson;
        scenario.turns = LengthDistribution{4, 2, 0.0, 1.0};
        scenario.thinkMeanSeconds = 2.0;
        scenario.thinkSpreadSeconds = 0.5;
        scenario.prompt = LengthDistribution{3072, 512, 0.0, 1.0};
        scenario.generate = LengthDistribution{48, 16, 0.0, 1.0};
    } else {
        throw std::invalid_argument(
            "scenarioByName: unknown scenario '" + name + "'");
    }
    return scenario;
}

} // namespace hermes::serving
