#include "runtime/factory.hh"

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/accelerate_engine.hh"
#include "runtime/dejavu_engine.hh"
#include "runtime/flexgen_engine.hh"
#include "runtime/hermes_base_engine.hh"
#include "runtime/hermes_engine.hh"
#include "runtime/hermes_host_engine.hh"
#include "runtime/tensorrt_engine.hh"

namespace hermes::runtime {

std::unique_ptr<InferenceEngine>
makeEngine(EngineKind kind, const SystemConfig &config,
           std::shared_ptr<dram::BandwidthProbe> probe)
{
    switch (kind) {
      case EngineKind::Accelerate:
        return std::make_unique<AccelerateEngine>(config);
      case EngineKind::FlexGen:
        return std::make_unique<FlexGenEngine>(config);
      case EngineKind::DejaVu:
        return std::make_unique<DejaVuEngine>(config);
      case EngineKind::HermesHost:
        return std::make_unique<HermesHostEngine>(config);
      case EngineKind::HermesBase:
        return std::make_unique<HermesBaseEngine>(config,
                                                  std::move(probe));
      case EngineKind::Hermes:
        return std::make_unique<HermesEngine>(config, "Hermes",
                                              std::move(probe));
      case EngineKind::TensorRtLlm:
        return std::make_unique<TensorRtLlmEngine>(config);
    }
    throw std::invalid_argument("makeEngine: unknown engine kind " +
                                std::to_string(static_cast<int>(kind)));
}

std::vector<EngineKind>
allEngineKinds()
{
    return {EngineKind::Accelerate, EngineKind::FlexGen,
            EngineKind::DejaVu,     EngineKind::HermesHost,
            EngineKind::HermesBase, EngineKind::Hermes,
            EngineKind::TensorRtLlm};
}

std::string
engineKindName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Accelerate:
        return "Accelerate";
      case EngineKind::FlexGen:
        return "FlexGen";
      case EngineKind::DejaVu:
        return "DejaVu";
      case EngineKind::HermesHost:
        return "Hermes-host";
      case EngineKind::HermesBase:
        return "Hermes-base";
      case EngineKind::Hermes:
        return "Hermes";
      case EngineKind::TensorRtLlm:
        return "TensorRT-LLM";
    }
    throw std::invalid_argument("engineKindName: unknown engine kind " +
                                std::to_string(static_cast<int>(kind)));
}

EngineKind
engineKindByName(const std::string &name)
{
    for (const EngineKind kind : allEngineKinds()) {
        if (engineKindName(kind) == name)
            return kind;
    }
    throw std::invalid_argument(
        "engineKindByName: unknown engine '" + name + "'");
}

std::vector<std::string>
engineKindNames()
{
    std::vector<std::string> names;
    for (const EngineKind kind : allEngineKinds())
        names.push_back(engineKindName(kind));
    return names;
}

SystemConfig
platformPreset(const std::string &name,
               std::uint32_t simulated_layers)
{
    SystemConfig config;
    config.simulatedLayers = simulated_layers;
    if (name == "default") {
        // Sec. V-A1 defaults as constructed.
    } else if (name == "budget") {
        config.numDimms = 4;
    } else if (name == "scaled") {
        config.numDimms = 16;
    } else {
        throw std::invalid_argument(
            "platformPreset: unknown preset '" + name + "'");
    }
    return config;
}

std::vector<std::string>
platformPresetNames()
{
    return {"default", "budget", "scaled"};
}

} // namespace hermes::runtime
