/**
 * @file
 * Hermes-base baseline (Sec. V-A2, V-B1): the NDP-DIMM extended
 * system *without* activation sparsity.  FC layers run on the GPU
 * when their parameters are resident and on the NDP-DIMMs otherwise
 * (dense, all neurons); attention always runs on the NDP-DIMMs.
 * There is no predictor, no online adjustment, and no rebalancing —
 * the dense split is static and perfectly balanced by construction.
 */

#ifndef HERMES_RUNTIME_HERMES_BASE_ENGINE_HH
#define HERMES_RUNTIME_HERMES_BASE_ENGINE_HH

#include <memory>
#include <string>
#include <utility>

#include "ndp/ndp_dimm.hh"
#include "runtime/engine.hh"
#include "runtime/system_config.hh"

namespace hermes::runtime {

/** NDP-DIMM extension without activation sparsity. */
class HermesBaseEngine : public InferenceEngine
{
  public:
    /** @param probe As for HermesEngine: shared, or nullptr. */
    explicit HermesBaseEngine(
        SystemConfig config,
        std::shared_ptr<dram::BandwidthProbe> probe = nullptr)
        : config_(std::move(config)), ndp_(config_.dimm, std::move(probe))
    {
    }

    std::string name() const override { return "Hermes-base"; }
    bool supports(const InferenceRequest &request) const override;
    InferenceResult run(const InferenceRequest &request) override;

  private:
    SystemConfig config_;
    ndp::NdpDimm ndp_; ///< Holds the bandwidth-probe memo across runs.
};

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_HERMES_BASE_ENGINE_HH
