/**
 * @file
 * Per-row tapes for the trace-driven engines (Hermes, Hermes-host,
 * Deja Vu).
 *
 * Almost all the work of a trace-driven engine run — stepping the
 * synthetic activation trace, profiling, prediction, the ILP
 * partition, online remapping and window rebalancing — depends on
 * the model, batch, seed and token counts of the request but not on
 * its context length.  An engine records that work once per key as a
 * *tape* and replays the tape for every context of a cost-surface
 * row: the replay recomputes only the context terms (prefill, KV
 * attention, KV-capacity checks) and re-issues the recorded values
 * through the same floating-point operations in the same order, so a
 * replayed run is bit-identical to a full simulation.
 *
 * The memo holds one tape only — never the trace, predictor or
 * placement that produced it — so memory does not grow with the
 * number of keys an engine has seen.
 */

#ifndef HERMES_RUNTIME_TAPE_HH
#define HERMES_RUNTIME_TAPE_HH

#include <cstdint>
#include <optional>
#include <utility>

#include "model/llm_config.hh"
#include "runtime/engine.hh"

namespace hermes::runtime {

/** Everything of a request a tape depends on: all but its context. */
struct TapeKey
{
    model::LlmConfig llm;
    std::uint32_t batch = 1;
    std::uint32_t generateTokens = 0;
    std::uint32_t profileTokens = 0;
    std::uint64_t seed = 0;

    explicit TapeKey(const InferenceRequest &request)
        : llm(request.llm), batch(request.batch),
          generateTokens(request.generateTokens),
          profileTokens(request.profileTokens), seed(request.seed)
    {
    }

    bool operator==(const TapeKey &) const = default;
};

/**
 * The engine's most recent tape.  A cost-surface row is one key — the
 * serving layer keeps one engine per row, and a saturated bucket is
 * computed by the row below's engine — so one slot is all a row
 * needs, and a sweep over distinct keys holds one tape at a time.
 */
template <typename Tape>
class TapeMemo
{
  public:
    /**
     * The tape for `request`, recorded by `record()` on a miss.  The
     * reference stays valid until the next call.
     */
    template <typename Record>
    const Tape &
    get(const InferenceRequest &request, Record &&record)
    {
        TapeKey key(request);
        if (!entry_ || entry_->first != key) {
            entry_.reset(); // Free the old tape before recording.
            entry_.emplace(std::move(key), record());
            ++built_;
        }
        return entry_->second;
    }

    /** Tapes recorded so far (full trace-driven simulations). */
    std::uint64_t built() const { return built_; }

  private:
    std::optional<std::pair<TapeKey, Tape>> entry_;
    std::uint64_t built_ = 0;
};

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_TAPE_HH
