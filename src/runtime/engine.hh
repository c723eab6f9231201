/**
 * @file
 * Inference-engine interface shared by Hermes and every baseline.
 *
 * Engines simulate end-to-end LLM inference (prompting + token
 * generation, Sec. II-A) against the device models and report
 * throughput plus the latency breakdown of Fig. 12.
 */

#ifndef HERMES_RUNTIME_ENGINE_HH
#define HERMES_RUNTIME_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/units.hh"
#include "model/llm_config.hh"

namespace hermes::runtime {

/** One end-to-end inference workload (Sec. V-A4 defaults). */
struct InferenceRequest
{
    model::LlmConfig llm;
    std::uint32_t batch = 1;
    std::uint32_t promptTokens = 128;
    std::uint32_t generateTokens = 128;

    /** Trace tokens used for offline profiling / calibration. */
    std::uint32_t profileTokens = 48;

    /** Workload seed (activation trace). */
    std::uint64_t seed = 1;
};

/** Fig. 12 latency-breakdown categories. */
struct LatencyBreakdown
{
    Seconds fc = 0.0;            ///< QKV + MLP + projection compute.
    Seconds attention = 0.0;
    Seconds predictor = 0.0;
    Seconds prefill = 0.0;       ///< Whole prompting stage.
    Seconds communication = 0.0; ///< PCIe + DIMM-link, non-overlapped.
    Seconds others = 0.0;        ///< Merge, sync, scheduling, LM head.

    Seconds
    total() const
    {
        return fc + attention + predictor + prefill + communication +
               others;
    }

    LatencyBreakdown &
    operator+=(const LatencyBreakdown &other)
    {
        fc += other.fc;
        attention += other.attention;
        predictor += other.predictor;
        prefill += other.prefill;
        communication += other.communication;
        others += other.others;
        return *this;
    }
};

/** Output of one engine run. */
struct InferenceResult
{
    std::string engine;
    bool supported = true;       ///< N.P. in the figures when false.
    std::string unsupportedReason;

    Seconds prefillTime = 0.0;
    Seconds generateTime = 0.0;

    /** Aggregate generated tokens per second (end to end). */
    double tokensPerSecond = 0.0;

    LatencyBreakdown breakdown;
    StatSet stats;
};

/** Abstract engine. */
class InferenceEngine
{
  public:
    virtual ~InferenceEngine() = default;

    virtual std::string name() const = 0;

    /** Whether this system can run the model at all. */
    virtual bool
    supports(const InferenceRequest &) const
    {
        return true;
    }

    /** Simulate the request end to end. */
    virtual InferenceResult run(const InferenceRequest &request) = 0;

    /**
     * Full trace-driven simulations run so far: tapes recorded by
     * the trace-driven engines (runtime/tape.hh), 0 for the analytic
     * ones.
     */
    virtual std::uint64_t tapesBuilt() const { return 0; }

    /**
     * Threads a trace-driven record may use, the calling thread
     * included (0 = hardwareThreads()).  Results never depend on it;
     * the analytic engines, which record nothing, ignore it.
     */
    virtual void setRecordThreads(std::uint32_t) {}

  protected:
    /** Fill the derived totals of a result. */
    static void
    finalize(InferenceResult &result, const InferenceRequest &request)
    {
        const double tokens = static_cast<double>(request.batch) *
                              request.generateTokens;
        const Seconds total = result.prefillTime + result.generateTime;
        result.tokensPerSecond = total > 0.0 ? tokens / total : 0.0;
    }
};

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_ENGINE_HH
