/**
 * @file
 * Deja Vu adapted to offloading (Liu et al., ICML'23; Sec. II-C, V-A2).
 *
 * Deja Vu predicts contextual sparsity with per-layer MLP predictors
 * and loads/computes only the activated neurons.  Adapted to a
 * single-GPU offloading setting (as the paper does), the activated
 * cold neurons still cross PCIe every token as many small per-neuron
 * gathers, and the MLP predictors consume GPU memory and compute.
 *
 * The probe trace's active fraction does not depend on the context;
 * it is recorded once per (model, batch, seed, token counts) as a
 * tape (runtime/tape.hh), layer-parallel (setRecordThreads) and
 * bitwise the same at any thread count.
 */

#ifndef HERMES_RUNTIME_DEJAVU_ENGINE_HH
#define HERMES_RUNTIME_DEJAVU_ENGINE_HH

#include <cstdint>
#include <string>
#include <utility>

#include "runtime/engine.hh"
#include "runtime/system_config.hh"
#include "runtime/tape.hh"

namespace hermes::runtime {

/** Deja Vu offloading baseline (OPT models only). */
class DejaVuEngine : public InferenceEngine
{
  public:
    explicit DejaVuEngine(SystemConfig config)
        : config_(std::move(config))
    {
    }

    std::string name() const override { return "DejaVu"; }
    bool supports(const InferenceRequest &request) const override;
    InferenceResult run(const InferenceRequest &request) override;
    std::uint64_t tapesBuilt() const override { return tapes_.built(); }

    void
    setRecordThreads(std::uint32_t threads) override
    {
        recordThreads_ = threads;
    }

    /** Hidden width of each per-layer MLP predictor. */
    static constexpr std::uint32_t kPredictorRank = 1024;

  private:
    /** Mean activated fraction over the probe tokens. */
    struct Tape
    {
        double activeFraction = 0.0;
    };

    Tape record(const InferenceRequest &request) const;

    SystemConfig config_;
    TapeMemo<Tape> tapes_;
    std::uint32_t recordThreads_ = 0; ///< 0 = hardwareThreads().
};

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_DEJAVU_ENGINE_HH
