/**
 * @file
 * Engine factory: build any of the paper's seven systems by name.
 */

#ifndef HERMES_RUNTIME_FACTORY_HH
#define HERMES_RUNTIME_FACTORY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dram/bandwidth_probe.hh"
#include "runtime/engine.hh"
#include "runtime/system_config.hh"

namespace hermes::runtime {

/** The systems evaluated in Sec. V. */
enum class EngineKind
{
    Accelerate,
    FlexGen,
    DejaVu,
    HermesHost,
    HermesBase,
    Hermes,
    TensorRtLlm,
};

/**
 * Instantiate an engine on the given platform.
 *
 * Engines are pure cost models: construction captures only the
 * platform configuration and runs no simulation, and `run()` derives
 * every result from the request plus that configuration.  The only
 * state that survives a call is memoization — the DRAM bandwidth
 * probe and the trace-driven engines' tapes (runtime/tape.hh) —
 * which never changes a result.  The serving layer's cost caches
 * rely on this contract to pool one engine per cost-surface row:
 * any engine, constructed anywhere, warm or fresh, must return
 * identical results for identical requests.  An engine is not
 * thread-safe; give each thread its own.
 *
 * `probe` is a DRAM bandwidth probe for `config.dimm.dimm` to share
 * with other engines (it is thread-safe): a cost surface passes one
 * to all its row engines, so the rank is simulated once per access
 * pattern per surface.  Only the engines that hold an NdpDimm
 * (Hermes, Hermes-base) use it; nullptr gives each its own.
 *
 * @throws std::invalid_argument on an unknown kind, or when `probe`
 *         measures a different DimmConfig than `config.dimm.dimm`.
 */
std::unique_ptr<InferenceEngine>
makeEngine(EngineKind kind, const SystemConfig &config,
           std::shared_ptr<dram::BandwidthProbe> probe = nullptr);

/** All engine kinds in the order the figures list them. */
std::vector<EngineKind> allEngineKinds();

/** Display name used in the figures. */
std::string engineKindName(EngineKind kind);

/** Parse a display name back to a kind; throws on unknown names. */
EngineKind engineKindByName(const std::string &name);

/** All display names in figure order (CLI help, sweep parsing). */
std::vector<std::string> engineKindNames();

/**
 * Named platform presets for building heterogeneous fleets: replicas
 * of one fleet can run different hardware tiers behind one router.
 *
 *  - "default": the Sec. V-A1 platform (8 NDP-DIMMs);
 *  - "budget":  half the DIMM pool (4), for cost-tiered replicas;
 *  - "scaled":  a doubled pool (16), the Fig. 14 scaling point.
 *
 * `simulated_layers` forwards to SystemConfig::simulatedLayers (0 =
 * every layer).  Throws on unknown names.
 */
SystemConfig platformPreset(const std::string &name,
                            std::uint32_t simulated_layers = 0);

/** Preset names accepted by platformPreset, in display order. */
std::vector<std::string> platformPresetNames();

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_FACTORY_HH
