#include "ndp/ndp_dimm.hh"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/logging.hh"

namespace hermes::ndp {

NdpDimm::NdpDimm(NdpDimmConfig config,
                 std::shared_ptr<dram::BandwidthProbe> probe)
    : config_(config), gemvUnit_(config.gemv),
      activationUnit_(config.activation), probe_(std::move(probe))
{
    if (!probe_)
        probe_ = std::make_shared<dram::BandwidthProbe>(config_.dimm);
    else if (!(probe_->config() == config_.dimm))
        throw std::invalid_argument(
            "NdpDimm: shared bandwidth probe measures a different "
            "DimmConfig");
}

BytesPerSecond
NdpDimm::internalBandwidth()
{
    return probe_->internalBandwidth(dram::AccessPattern::ScatteredRows);
}

NdpKernelTime
NdpDimm::sparseGemv(std::uint64_t active_rows, std::uint64_t row_values,
                    std::uint32_t batch, double compute_scale)
{
    NdpKernelTime time;
    if (active_rows == 0 || row_values == 0 || batch == 0)
        return time;
    hermes_assert(compute_scale > 0.0 && compute_scale <= 1.0,
                  "compute scale must be in (0,1]");

    const Bytes weight_bytes = active_rows * row_values * kFp16Bytes;
    const Bytes output_bytes =
        active_rows * static_cast<Bytes>(batch) * kFp16Bytes;
    const Bytes spill = gemvUnit_.spillBytes(output_bytes);

    time.memory = probe_->streamTime(weight_bytes + spill,
                                     dram::AccessPattern::ScatteredRows);
    const auto macs = static_cast<std::uint64_t>(
        static_cast<double>(active_rows * row_values) * batch *
        compute_scale);
    time.compute = gemvUnit_.computeTime(macs);
    time.total = std::max(time.memory, time.compute) +
                 config_.commandOverhead;
    return time;
}

NdpKernelTime
NdpDimm::attention(std::uint32_t batch, std::uint32_t kv_heads,
                   std::uint32_t head_dim, std::uint64_t seq_len,
                   std::uint32_t gqa_group)
{
    NdpKernelTime time;
    if (batch == 0 || kv_heads == 0 || seq_len == 0)
        return time;
    hermes_assert(gqa_group >= 1, "GQA group must be at least 1");

    // KV cache is written/read sequentially per head.
    const Bytes kv_bytes = 2ULL * batch * kv_heads * seq_len * head_dim *
                           kFp16Bytes;
    time.memory = probe_->streamTime(
        kv_bytes, dram::AccessPattern::SequentialRows);

    // Each query head does QK^T + PV over the cache; kv_heads *
    // gqa_group query heads read this DIMM's cache share.
    const std::uint64_t query_heads =
        static_cast<std::uint64_t>(kv_heads) * gqa_group;
    const std::uint64_t macs =
        2ULL * batch * query_heads * seq_len * head_dim;
    const Seconds gemv_time = gemvUnit_.computeTime(macs);
    const Seconds softmax_time = activationUnit_.softmaxTime(
        static_cast<std::uint64_t>(batch) * query_heads, seq_len);
    time.compute = gemv_time + softmax_time;

    time.total = std::max(time.memory, time.compute) +
                 config_.commandOverhead;
    return time;
}

NdpKernelTime
NdpDimm::merge(Bytes bytes)
{
    NdpKernelTime time;
    if (bytes == 0)
        return time;
    time.memory =
        probe_->streamTime(bytes, dram::AccessPattern::SequentialRows);
    // Adder lanes consume 256 values * 2 B per cycle; never the
    // bottleneck but accounted for completeness.
    const std::uint64_t values = bytes / kFp16Bytes;
    time.compute = activationUnit_.reluTime(values);
    time.total = std::max(time.memory, time.compute) +
                 config_.commandOverhead;
    return time;
}

NdpKernelTime
NdpDimm::relu(std::uint64_t values)
{
    NdpKernelTime time;
    if (values == 0)
        return time;
    time.compute = activationUnit_.reluTime(values);
    time.memory = 0.0;
    time.total = time.compute + config_.commandOverhead;
    return time;
}

} // namespace hermes::ndp
