/**
 * @file
 * Derives sustained bandwidth figures from the cycle-level rank model.
 *
 * The NDP GEMV unit streams neuron weight chunks whose placement in the
 * DIMM is scattered (cold neurons are remapped over time), so the
 * relevant figure is the bandwidth of reading many row-sized chunks at
 * effectively random row addresses, with bank-group interleaving
 * provided by the address mapper.  Probes run the command-level
 * simulation once per distinct access shape and memoize the result, so
 * engine-level simulations stay fast.
 *
 * One probe may be shared by every device model of one DIMM
 * configuration (the serving layer gives each cost surface one, used
 * by all its row engines, which record on several threads).  A
 * single mutex guards the memo and is held across a miss's
 * simulation, so each (pattern, sample_rows) entry is simulated
 * exactly once per probe whatever the thread count or interleaving.
 */

#ifndef HERMES_DRAM_BANDWIDTH_PROBE_HH
#define HERMES_DRAM_BANDWIDTH_PROBE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "dram/config.hh"
#include "dram/controller.hh"

namespace hermes::dram {

/** Access-pattern families the probe can measure. */
enum class AccessPattern
{
    SequentialRows,   ///< Dense streaming of consecutive rows.
    ScatteredRows,    ///< Full-row reads at random row addresses.
    ScatteredBursts,  ///< Single-burst reads at random addresses.
};

/**
 * Measures and memoizes sustained per-rank bandwidth for a DIMM
 * configuration and access pattern.  Thread-safe: every query takes
 * the memo's lock.
 */
class BandwidthProbe
{
  public:
    explicit BandwidthProbe(const DimmConfig &config) : config_(config) {}

    /**
     * Sustained bandwidth of one rank for the given pattern.
     *
     * @param pattern      Access-pattern family.
     * @param sample_rows  Number of row-chunks to simulate (larger
     *                     values amortize the cold-start transient).
     * @throws std::invalid_argument on an unknown pattern.
     */
    BytesPerSecond rankBandwidth(AccessPattern pattern,
                                 std::uint64_t sample_rows = 512);

    /**
     * Sustained internal bandwidth visible to the NDP core: the
     * per-rank figure scaled by the configured rank parallelism.
     */
    BytesPerSecond internalBandwidth(AccessPattern pattern);

    /**
     * Time for the NDP core to stream `bytes` of weight data laid out
     * as scattered rows across all parallel ranks.
     */
    Seconds streamTime(Bytes bytes, AccessPattern pattern);

    const DimmConfig &config() const { return config_; }

    /** Command-level rank simulations run so far (memo misses). */
    std::uint64_t simulations() const;

  private:
    std::vector<RowRead> buildPattern(AccessPattern pattern,
                                      std::uint64_t sample_rows) const;

    const DimmConfig config_;
    mutable std::mutex mutex_; ///< Guards cache_ and simulations_.
    std::map<std::pair<int, std::uint64_t>, BytesPerSecond> cache_;
    std::uint64_t simulations_ = 0;
};

} // namespace hermes::dram

#endif // HERMES_DRAM_BANDWIDTH_PROBE_HH
