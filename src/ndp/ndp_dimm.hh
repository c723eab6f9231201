/**
 * @file
 * One NDP-DIMM device: a DDR4 DIMM with a center-buffer NDP core
 * (GEMV unit + activation unit) that can reach all ranks of its own
 * DIMM (Sec. IV-A1, Fig. 5b).
 *
 * The device exposes latency queries for the kernels Hermes offloads:
 * sparse GEMV over cold neurons, attention over the locally-held KV
 * cache, and the final merge of GPU and NDP partial results.  DRAM
 * time comes from the command-level rank model via the bandwidth
 * probe; datapath time comes from the cycle models of the units; the
 * two overlap (double-buffered streaming), so kernel time is their
 * maximum plus fixed launch overhead from the host command interface.
 *
 * The probe is held through a shared_ptr: devices of one DIMM
 * configuration may share one (thread-safe) probe, so the rank is
 * simulated once per access pattern for all of them.
 */

#ifndef HERMES_NDP_NDP_DIMM_HH
#define HERMES_NDP_NDP_DIMM_HH

#include <cstdint>
#include <memory>

#include "common/units.hh"
#include "dram/bandwidth_probe.hh"
#include "ndp/activation_unit.hh"
#include "ndp/gemv_unit.hh"

namespace hermes::ndp {

/** Static configuration of one NDP-DIMM. */
struct NdpDimmConfig
{
    dram::DimmConfig dimm{};
    GemvUnitConfig gemv{};
    ActivationUnitConfig activation{};

    /** NDP command dispatch cost over the memory command interface. */
    Seconds commandOverhead = 1.0e-6;

    bool operator==(const NdpDimmConfig &) const = default;
};

/** Latency breakdown of one NDP kernel invocation. */
struct NdpKernelTime
{
    Seconds memory = 0.0;   ///< DRAM streaming time.
    Seconds compute = 0.0;  ///< Datapath time.
    Seconds total = 0.0;    ///< max(memory, compute) + overhead.

    bool memoryBound() const { return memory >= compute; }
};

/** Performance model of one NDP-DIMM device. */
class NdpDimm
{
  public:
    /**
     * @param probe Bandwidth probe to share with other devices of the
     *        same DIMM configuration; nullptr builds a private one.
     * @throws std::invalid_argument if `probe` measures a different
     *         DimmConfig than `config.dimm`.
     */
    explicit NdpDimm(NdpDimmConfig config = NdpDimmConfig{},
                     std::shared_ptr<dram::BandwidthProbe> probe =
                         nullptr);

    const NdpDimmConfig &config() const { return config_; }
    Bytes capacity() const { return config_.dimm.capacity; }

    /** Sustained internal bandwidth for scattered neuron streaming. */
    BytesPerSecond internalBandwidth();

    /**
     * Sparse GEMV over `active_rows` locally-stored neurons of
     * `row_values` FP16 weights each, batched over `batch` tokens.
     *
     * @param compute_scale Fraction of the (rows x batch) element
     *        grid that is actually active: a batched sparse GEMV
     *        reads each unioned row once but multiplies only the
     *        batch elements whose mask is set
     *        (sparsity::BlockTrace::computeScale).
     */
    NdpKernelTime sparseGemv(std::uint64_t active_rows,
                             std::uint64_t row_values,
                             std::uint32_t batch,
                             double compute_scale = 1.0);

    /**
     * Attention over this DIMM's share of the KV cache.
     *
     * @param batch     Sequences.
     * @param kv_heads  KV heads stored on this DIMM.
     * @param head_dim  Per-head dimension.
     * @param seq_len   Context length.
     * @param gqa_group Query heads per KV head (arithmetic intensity).
     */
    NdpKernelTime attention(std::uint32_t batch, std::uint32_t kv_heads,
                            std::uint32_t head_dim, std::uint64_t seq_len,
                            std::uint32_t gqa_group);

    /** Merge partial results: stream + add `bytes` of partials. */
    NdpKernelTime merge(Bytes bytes);

    /** Elementwise ReLU over `values` activations. */
    NdpKernelTime relu(std::uint64_t values);

  private:
    NdpDimmConfig config_;
    GemvUnit gemvUnit_;
    ActivationUnit activationUnit_;
    std::shared_ptr<dram::BandwidthProbe> probe_;
};

} // namespace hermes::ndp

#endif // HERMES_NDP_NDP_DIMM_HH
