/**
 * @file
 * Hermes-host baseline (Sec. V-A2): the hot/cold neuron partition of
 * Hermes, but cold neurons are computed by the host CPU out of plain
 * DIMMs (PowerInfer-style), not by NDP units.  The CPU reads cold
 * neuron rows at its (scatter-limited) DRAM bandwidth, which is the
 * bottleneck the NDP-DIMMs remove.
 *
 * The profiled activation frequencies do not depend on the context;
 * they are recorded once per (model, batch, seed, token counts) as a
 * tape (runtime/tape.hh).  The residency and the hot/cold split do —
 * attention keeps the KV cache in GPU memory — and are recomputed
 * on every run.  The record builds only the profiled prefix of the
 * trace and profiles it layer-parallel (setRecordThreads); the tape
 * is bitwise the same at any thread count.
 */

#ifndef HERMES_RUNTIME_HERMES_HOST_ENGINE_HH
#define HERMES_RUNTIME_HERMES_HOST_ENGINE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/engine.hh"
#include "runtime/system_config.hh"
#include "runtime/tape.hh"

namespace hermes::runtime {

/** Hot neurons on the GPU, cold neurons on the host CPU. */
class HermesHostEngine : public InferenceEngine
{
  public:
    explicit HermesHostEngine(SystemConfig config)
        : config_(std::move(config))
    {
    }

    std::string name() const override { return "Hermes-host"; }
    InferenceResult run(const InferenceRequest &request) override;
    std::uint64_t tapesBuilt() const override { return tapes_.built(); }

    void
    setRecordThreads(std::uint32_t threads) override
    {
        recordThreads_ = threads;
    }

  private:
    /** `count` neurons of activation frequency `value`. */
    struct FreqRun
    {
        double value = 0.0;
        std::uint64_t count = 0;
    };

    /**
     * A representative layer's profiled frequencies
     * (sched::profileActivations, which profiles at least one
     * token), descending, run-length coded: a frequency is
     * (activations / profiled tokens), so a block has at most
     * max(profileTokens, 1) + 1 runs.
     */
    struct Tape
    {
        std::vector<FreqRun> attnFreq;
        std::vector<FreqRun> mlpFreq;
    };

    Tape record(const InferenceRequest &request) const;

    SystemConfig config_;
    TapeMemo<Tape> tapes_;
    std::uint32_t recordThreads_ = 0; ///< 0 = hardwareThreads().
};

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_HERMES_HOST_ENGINE_HH
