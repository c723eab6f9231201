/**
 * @file
 * The Hermes inference engine (Sec. IV, Fig. 6).
 *
 * Workflow per generated token, per transformer layer:
 *  1. the lightweight predictor forecasts the activated neurons;
 *  2. QKV generation splits between the GPU (hot neurons) and the
 *     NDP-DIMMs (cold neurons); the layer completes when the slower
 *     side finishes (Eqs. 1-3);
 *  3. attention runs on the NDP-DIMMs next to the KV cache;
 *  4. the dense projection runs on the GPU while the idle DIMMs and
 *     the idle PCIe link absorb the hot/cold swaps (Sec. IV-C2) and
 *     the window-based cold-neuron rebalancing (Sec. IV-D);
 *  5. the MLP block splits like QKV; results merge on the DIMMs.
 *
 * The prompting stage streams non-resident weights once and runs on
 * the GPU, FlexGen-style (Sec. IV-A2).
 *
 * Steps 1, 2, 4 and 5 do not depend on the context length: they are
 * recorded once per (model, batch, seed, token counts) as a tape
 * (runtime/tape.hh) and replayed with each context's prefill and KV
 * attention, bit-identically to a full simulation.  The record is
 * layer-parallel: the trace's construction and profile run on lanes
 * that each step their own layers of the one RNG stream
 * (ActivationTrace::stepTokens); in the decode the calling thread
 * steps the trace while worker threads run steps 1, 2, 4 and 5 of
 * the layers they own.  The tape is bitwise the same at any thread
 * count (setRecordThreads).
 *
 * Scheduling toggles in SystemConfig::sched select the Fig. 13
 * ablation variants (Hermes-random / -partition / -token- /
 * -layer-adjustment / -adjustment / full).
 */

#ifndef HERMES_RUNTIME_HERMES_ENGINE_HH
#define HERMES_RUNTIME_HERMES_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "ndp/ndp_dimm.hh"
#include "runtime/engine.hh"
#include "runtime/system_config.hh"
#include "runtime/tape.hh"

namespace hermes::runtime {

/** Full Hermes system: GPU + NDP-DIMMs + scheduler. */
class HermesEngine : public InferenceEngine
{
  public:
    /**
     * @param probe DRAM bandwidth probe shared with other engines of
     *        the same DIMM configuration (ndp::NdpDimm); nullptr
     *        builds a private one.
     */
    explicit HermesEngine(
        SystemConfig config, std::string name = "Hermes",
        std::shared_ptr<dram::BandwidthProbe> probe = nullptr)
        : config_(std::move(config)), name_(std::move(name)),
          ndp_(config_.dimm, std::move(probe))
    {
    }

    std::string name() const override { return name_; }

    bool supports(const InferenceRequest &request) const override;

    InferenceResult run(const InferenceRequest &request) override;

    std::uint64_t tapesBuilt() const override { return tapes_.built(); }

    void
    setRecordThreads(std::uint32_t threads) override
    {
        recordThreads_ = threads;
    }

    const SystemConfig &config() const { return config_; }

    /** One simulated layer of one token: the context-free stages. */
    struct LayerStep
    {
        Seconds qkvGpu = 0.0;
        std::vector<Seconds> qkvLanes;
        Seconds upload = 0.0;    ///< Shadowed hot-neuron promotion.
        Seconds migration = 0.0; ///< Shadowed window rebalancing.
        Seconds mlpGpu = 0.0;
        std::vector<Seconds> mlpLanes;
    };

    struct Tape
    {
        std::vector<LayerStep> steps; ///< Token-major.
        StatSet stats;                ///< The run's finished counters.
    };

    /**
     * The context-free record of `request` that run() replays,
     * recorded on a miss.  Valid until the next call.
     */
    const Tape &
    tape(const InferenceRequest &request)
    {
        return tapes_.get(request, [&] { return record(request); });
    }

  private:
    /** Trace, predictor, partition and remapping for `request`. */
    Tape record(const InferenceRequest &request);

    SystemConfig config_;
    std::string name_;
    ndp::NdpDimm ndp_; ///< Holds the bandwidth-probe memo across runs.
    TapeMemo<Tape> tapes_;
    std::uint32_t recordThreads_ = 0; ///< 0 = hardwareThreads().
};

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_HERMES_ENGINE_HH
