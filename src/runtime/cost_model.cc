#include "runtime/cost_model.hh"

#include <cstdint>
#include <stdexcept>
#include <string>

namespace hermes::runtime {

namespace {

double
gpuPrice(const gpu::GpuSpec &spec, const PriceList &prices)
{
    if (spec.name == "RTX4090")
        return prices.rtx4090;
    if (spec.name == "RTX3090")
        return prices.rtx3090;
    if (spec.name == "TeslaT4")
        return prices.teslaT4;
    if (spec.name == "A100-40GB")
        return prices.a100_40gb;
    throw std::invalid_argument("no price for GPU '" + spec.name + "'");
}

} // namespace

double
platformPriceUsd(EngineKind kind, const SystemConfig &config,
                 std::uint32_t tensorrt_gpus, PriceList prices)
{
    switch (kind) {
      case EngineKind::TensorRtLlm:
        return prices.serverOverhead +
               tensorrt_gpus * prices.a100_40gb;
      case EngineKind::Hermes:
      case EngineKind::HermesBase:
        // GPU + NDP-DIMM pool + host.
        return gpuPrice(config.gpu, prices) + prices.hostSystem +
               config.numDimms * (prices.dimm32gb + prices.ndpPremium);
      case EngineKind::Accelerate:
      case EngineKind::FlexGen:
      case EngineKind::DejaVu:
      case EngineKind::HermesHost:
        // GPU + plain DIMM pool + host.
        return gpuPrice(config.gpu, prices) + prices.hostSystem +
               config.numDimms * prices.dimm32gb;
    }
    throw std::invalid_argument(
        "platformPriceUsd: unknown engine kind " +
        std::to_string(static_cast<int>(kind)));
}

double
runEnergyJoules(const RunActivity &activity, EnergyParams params)
{
    double joules = 0.0;
    joules += activity.gpuBusy * params.gpuPowerWatts;
    joules += activity.hostBusy * params.hostPowerWatts;
    joules += static_cast<double>(activity.dramBytes) * 8.0 *
              params.dramJoulePerBit;
    joules += static_cast<double>(activity.pcieBytes) * 8.0 *
              params.pcieJoulePerBit;
    joules += static_cast<double>(activity.dimmLinkBytes) * 8.0 *
              params.dimmLinkJoulePerBit;
    joules += activity.ndpMacs * params.ndpJoulePerMac;
    return joules;
}

} // namespace hermes::runtime
