/**
 * @file
 * Cost and energy accounting for the evaluated systems.
 *
 * The paper's headline economic claim (Sec. V-F) is that Hermes
 * delivers competitive LLaMA2-70B inference at ~5 % of the price of
 * a 5x A100 TensorRT-LLM node (~$2,500 vs ~$50,000).  This module
 * prices the platforms and estimates the energy of a run from the
 * device models' activity, so benches can report tokens/s/$ and
 * tokens/J alongside raw throughput.
 */

#ifndef HERMES_RUNTIME_COST_MODEL_HH
#define HERMES_RUNTIME_COST_MODEL_HH

#include <cstdint>

#include "common/units.hh"
#include "runtime/factory.hh"
#include "runtime/system_config.hh"

namespace hermes::runtime {

/** Street prices (USD, 2024-class parts, as the paper assumes). */
struct PriceList
{
    double rtx4090 = 1600.0;
    double rtx3090 = 900.0;
    double teslaT4 = 700.0;
    double a100_40gb = 10000.0;

    /** Commodity 32 GB DDR4 RDIMM. */
    double dimm32gb = 80.0;

    /**
     * NDP premium per DIMM: buffer-chip GEMV/activation units and a
     * DIMM-link bridge (1.23 mm^2 at 7 nm per Table II, plus the
     * link PHY) — a small fraction of the DRAM cost.
     */
    double ndpPremium = 45.0;

    /** Host board, CPU, PSU shared by all single-GPU systems. */
    double hostSystem = 600.0;

    /** Server chassis/fabric per multi-GPU node. */
    double serverOverhead = 5000.0;
};

/** Device power envelopes and per-bit transfer energies. */
struct EnergyParams
{
    double gpuPowerWatts = 450.0;     ///< RTX 4090 board power.
    double hostPowerWatts = 125.0;    ///< Host CPU under load.
    double a100PowerWatts = 400.0;

    /** DDR4 access energy, activate+IO amortized. */
    double dramJoulePerBit = 18.0e-12;

    /** NDP GEMV datapath energy per MAC (bit-serial FP16, 7 nm). */
    double ndpJoulePerMac = 1.2e-12;

    double pcieJoulePerBit = 5.0e-12;
    double dimmLinkJoulePerBit = 1.17e-12; ///< Table II.
};

/**
 * Platform price for one engine kind.  Throws std::invalid_argument
 * on an unknown kind or a GPU with no list price.
 */
double platformPriceUsd(EngineKind kind, const SystemConfig &config,
                        std::uint32_t tensorrt_gpus = 5,
                        PriceList prices = PriceList{});

/** Activity volumes of one run (engines export these via stats). */
struct RunActivity
{
    Seconds gpuBusy = 0.0;
    Seconds hostBusy = 0.0;
    Bytes dramBytes = 0;     ///< DIMM-internal weight traffic.
    Bytes pcieBytes = 0;
    Bytes dimmLinkBytes = 0;
    double ndpMacs = 0.0;
};

/** Estimated energy of a run in joules. */
double runEnergyJoules(const RunActivity &activity,
                       EnergyParams params = EnergyParams{});

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_COST_MODEL_HH
