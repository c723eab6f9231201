#include "dram/bandwidth_probe.hh"

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace hermes::dram {

namespace {

std::invalid_argument
unknownPattern(AccessPattern pattern)
{
    return std::invalid_argument(
        "BandwidthProbe: unknown access pattern " +
        std::to_string(static_cast<int>(pattern)));
}

} // namespace

std::vector<RowRead>
BandwidthProbe::buildPattern(AccessPattern pattern,
                             std::uint64_t sample_rows) const
{
    AddressMapper mapper(config_);
    const auto bursts_per_row =
        static_cast<std::uint32_t>(config_.rowBytes / config_.burstBytes);
    const std::uint64_t chunk_space =
        config_.rowsPerBank() *
        static_cast<std::uint64_t>(config_.banksPerRank());

    // Deterministic probe: identical configs yield identical numbers.
    Rng rng(0xd1553c0ffee + static_cast<std::uint64_t>(pattern));

    std::vector<RowRead> reads;
    reads.reserve(sample_rows);
    for (std::uint64_t i = 0; i < sample_rows; ++i) {
        std::uint64_t idx;
        std::uint32_t bursts;
        switch (pattern) {
          case AccessPattern::SequentialRows:
            idx = i;
            bursts = bursts_per_row;
            break;
          case AccessPattern::ScatteredRows:
            idx = rng.below(chunk_space);
            bursts = bursts_per_row;
            break;
          case AccessPattern::ScatteredBursts:
            idx = rng.below(chunk_space);
            bursts = 1;
            break;
          default:
            throw unknownPattern(pattern);
        }
        reads.push_back(mapper.mapRowChunk(idx, bursts));
    }
    return reads;
}

BytesPerSecond
BandwidthProbe::rankBandwidth(AccessPattern pattern,
                              std::uint64_t sample_rows)
{
    const auto key = std::make_pair(static_cast<int>(pattern),
                                    sample_rows);
    // Held across a miss's simulation: a concurrent caller of the
    // same entry waits for it rather than simulating it again.
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;

    RankController controller(config_);
    const BytesPerSecond bw =
        controller.measuredBandwidth(buildPattern(pattern, sample_rows));
    ++simulations_;
    cache_.emplace(key, bw);
    return bw;
}

std::uint64_t
BandwidthProbe::simulations() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return simulations_;
}

BytesPerSecond
BandwidthProbe::internalBandwidth(AccessPattern pattern)
{
    return rankBandwidth(pattern) * config_.rankParallelism;
}

Seconds
BandwidthProbe::streamTime(Bytes bytes, AccessPattern pattern)
{
    if (bytes == 0)
        return 0.0;
    const BytesPerSecond bw = internalBandwidth(pattern);
    hermes_assert(bw > 0.0, "probe produced zero bandwidth");
    return static_cast<double>(bytes) / bw;
}

} // namespace hermes::dram
