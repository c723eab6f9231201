/**
 * @file
 * Window-based online scheduling for cold-neuron load balance
 * (Sec. IV-D, Algorithm 1, Fig. 8b).
 *
 * Token-wise similarity means the activity observed over a small
 * window (5 tokens) predicts the near future, so at the end of each
 * window the scheduler pairs the most-loaded DIMM with the least-
 * loaded one and greedily remaps the most-activated cold neurons
 * until the pair balances, directing each pair's traffic to a
 * different DIMM-link bridge.
 *
 * Note on Algorithm 1 as printed: its inner loop condition reads
 * "while Z_id <= Z_{J-id}", which would remap neurons *away from the
 * underloaded* DIMM; the accompanying text and Fig. 8b describe the
 * opposite (remap from overloaded to underloaded until balanced), so
 * this implementation moves neurons from the overloaded DIMM of each
 * pair while the move strictly improves the pair's makespan.
 */

#ifndef HERMES_SCHED_WINDOW_SCHEDULER_HH
#define HERMES_SCHED_WINDOW_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "interconnect/dimm_link.hh"
#include "sched/placement.hh"

namespace hermes::sched {

/** Per-block sliding-window activity tracker + rebalancer. */
class WindowScheduler
{
  public:
    /**
     * @param neurons      Block size.
     * @param num_dimms    NDP-DIMM count.
     * @param window_size  Tokens per scheduling window (paper: 5).
     * @throws std::invalid_argument on 0 DIMMs or a 0-token window.
     */
    WindowScheduler(std::uint32_t neurons, std::uint32_t num_dimms,
                    std::uint32_t window_size = 5);

    /** Record one token's activated neurons (Fig. 8b activity table). */
    void observe(const std::vector<std::uint32_t> &active_list);

    /** True once a full window of tokens has been observed. */
    bool windowComplete() const { return observed_ >= windowSize_; }

    /**
     * Rebalance cold neurons across DIMMs (Algorithm 1) and clear the
     * window.  Mutates the placement's home DIMMs and returns the
     * migrations for the DIMM-link cost model.
     *
     * @param placement    Block placement to adjust.
     * @param neuron_bytes Migration payload per neuron.
     */
    std::vector<interconnect::Transfer>
    rebalance(BlockPlacement &placement, Bytes neuron_bytes);

    /**
     * Oracle rebalance for the ablation study: full LPT reassignment
     * of all cold neurons by window activity (ignores migration
     * volume).  Returns the implied migrations.
     */
    std::vector<interconnect::Transfer>
    rebalanceOracle(BlockPlacement &placement, Bytes neuron_bytes);

    /** Activity count of neuron i in the current window. */
    std::uint32_t activity(std::uint32_t i) const { return activity_[i]; }

    /** Per-DIMM activated-neuron load under a placement. */
    std::vector<std::uint64_t>
    dimmLoads(const BlockPlacement &placement) const;

    void clearWindow();

  private:
    std::uint32_t numDimms_;
    std::uint32_t windowSize_;
    std::uint32_t observed_ = 0;
    std::vector<std::uint32_t> activity_;
};

/**
 * Per-layer attention + MLP window schedulers driven once per
 * completed timeline window.
 *
 * The decode pipeline invokes this after every layer's observation:
 * when the layer's window fills, both blocks rebalance (Algorithm 1
 * or the oracle) and the resulting DIMM-link migration batch is
 * returned so the pipeline can shadow it behind the dense projection.
 */
class WindowSet
{
  public:
    /** Outcome of one window boundary. */
    struct RebalanceOutcome
    {
        Seconds migrationTime = 0.0;
        Bytes migrationBytes = 0;
        std::uint64_t transfers = 0;
    };

    /** Policy switches forwarded from SchedulingConfig. */
    struct Policy
    {
        bool enabled = true; ///< false = observe only, never migrate.
        bool oracle = false; ///< Full-LPT upper bound (Fig. 13).
    };

    WindowSet(std::uint32_t layers, std::uint32_t attn_neurons,
              std::uint32_t mlp_neurons, std::uint32_t num_dimms,
              std::uint32_t window_size, Policy policy);

    /** Record one token's activated neurons for one layer. */
    void observe(std::uint32_t layer,
                 const std::vector<std::uint32_t> &attn_active,
                 const std::vector<std::uint32_t> &mlp_active);

    bool windowComplete(std::uint32_t layer) const;

    /**
     * Close the layer's window if complete: rebalance both blocks and
     * price the migration batch on the DIMM-link network.  Returns a
     * zero outcome while the window is still filling or when the
     * policy disables rebalancing.
     */
    RebalanceOutcome
    maybeRebalance(std::uint32_t layer, BlockPlacement &attn,
                   BlockPlacement &mlp, Bytes attn_neuron_bytes,
                   Bytes mlp_neuron_bytes,
                   const interconnect::DimmLinkNetwork &network);

  private:
    Policy policy_;
    std::vector<WindowScheduler> attn_;
    std::vector<WindowScheduler> mlp_;
};

} // namespace hermes::sched

#endif // HERMES_SCHED_WINDOW_SCHEDULER_HH
