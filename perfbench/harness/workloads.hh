/**
 * @file
 * The simulator-side definition of each workload: platform, models,
 * arrival scenarios and fleet configuration.  The question runner
 * and the per-layer replays both build their inputs from here, so a
 * replay's inputs are shaped like the workload it stands beside.
 */

#ifndef HERMES_PERFBENCH_WORKLOADS_HH
#define HERMES_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/fleet.hh"
#include "core/hermes.hh"
#include "core/workload.hh"

namespace perfbench {

/** Transformer layers every engine run simulates (costs scale up). */
inline constexpr std::uint32_t kSimulatedLayers = 6;

/** offline-sweep: the Fig. 9/11-style grid. */
inline const std::vector<std::string> kSweepModels = {
    "Falcon-40B", "OPT-66B", "LLaMA2-70B"};
inline const std::vector<std::uint32_t> kSweepBatches = {1, 16};

/** chat-sessions: multi-turn conversations on a small fleet. */
inline constexpr std::uint32_t kChatSessions = 8;
inline constexpr std::uint32_t kChatTurns = 4;
inline constexpr std::uint32_t kChatPromptTokens = 1024;
inline constexpr std::uint32_t kChatReplicas = 2;
inline constexpr double kChatSessionsPerSecond = 0.6;
inline constexpr std::uint32_t kChatCalibrationThreads = 2;

/** fleet-scale: open-loop bursty arrivals on a large fleet. */
inline constexpr std::uint32_t kFleetRequests = 150000;
inline constexpr std::uint32_t kFleetReplicas = 256;
inline constexpr double kFleetRatePerReplica = 1.5;

/** The Sec. V-A1 platform on a kSimulatedLayers-layer sample. */
hermes::SystemConfig benchPlatform();

/** The paper-shape engine request: 128 in, 48 out, 32 profiled. */
hermes::InferenceRequest paperRequest(const std::string &model,
                                      std::uint32_t batch,
                                      std::uint64_t seed);

/** Per-replica serving policy of the fleet workloads. */
hermes::serving::ServingConfig fleetServing();

/** chat-sessions' session scenario for `seed`. */
hermes::serving::ScenarioConfig chatScenario(std::uint64_t seed);

/** fleet-scale's arrival scenario for `seed`. */
hermes::serving::ScenarioConfig fleetScenario(std::uint64_t seed);

/**
 * A uniform fleet of `replicas` replicas behind the control policy
 * `control`, calibrating on `threads` threads.
 */
hermes::fleet::FleetConfig
benchFleet(std::uint32_t replicas,
           const hermes::serving::ServingConfig &serving,
           const std::string &control, std::uint32_t threads);

/** Display names the benchmark uses for engine kinds. */
std::string engineSlug(hermes::EngineKind kind);

/** Whether an engine kind steps a synthetic activation trace. */
bool traceDriven(hermes::EngineKind kind);

} // namespace perfbench

#endif // HERMES_PERFBENCH_WORKLOADS_HH
