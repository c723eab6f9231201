#include "sched/window_scheduler.hh"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace hermes::sched {

WindowScheduler::WindowScheduler(std::uint32_t neurons,
                                 std::uint32_t num_dimms,
                                 std::uint32_t window_size)
    : numDimms_(num_dimms), windowSize_(window_size),
      activity_(neurons, 0)
{
    if (num_dimms == 0 || window_size == 0)
        throw std::invalid_argument(
            "WindowScheduler: needs at least one DIMM and a window of "
            "at least one token, got " +
            std::to_string(num_dimms) + " DIMMs and a " +
            std::to_string(window_size) + "-token window");
}

void
WindowScheduler::observe(const std::vector<std::uint32_t> &active_list)
{
    for (const auto id : active_list) {
        hermes_assert(id < activity_.size(),
                      "active neuron outside block");
        ++activity_[id];
    }
    ++observed_;
}

void
WindowScheduler::clearWindow()
{
    std::fill(activity_.begin(), activity_.end(), 0);
    observed_ = 0;
}

std::vector<std::uint64_t>
WindowScheduler::dimmLoads(const BlockPlacement &placement) const
{
    std::vector<std::uint64_t> loads(numDimms_, 0);
    for (std::uint32_t i = 0; i < placement.neurons(); ++i) {
        if (!placement.onGpu(i))
            loads[placement.homeDimm(i)] += activity_[i];
    }
    return loads;
}

std::vector<interconnect::Transfer>
WindowScheduler::rebalance(BlockPlacement &placement, Bytes neuron_bytes)
{
    std::vector<interconnect::Transfer> transfers;
    if (numDimms_ < 2) {
        clearWindow();
        return transfers;
    }

    // Z_j: activated cold neurons per DIMM over the window (line 1).
    std::vector<std::uint64_t> loads = dimmLoads(placement);

    // Sort DIMM ids by load, descending (line 2).
    std::vector<std::uint32_t> order(numDimms_);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return loads[a] > loads[b];
              });

    // Cold-neuron lists of the heavy half's DIMMs, the only donors,
    // most activated first (line 5).
    const std::uint32_t pairs = numDimms_ / 2;
    std::vector<std::uint32_t> donor_of(numDimms_, pairs);
    for (std::uint32_t pair = 0; pair < pairs; ++pair)
        donor_of[order[pair]] = pair;
    std::vector<std::vector<std::uint32_t>> donor_lists(pairs);
    for (std::uint32_t i = 0; i < placement.neurons(); ++i) {
        if (placement.onGpu(i) || activity_[i] == 0)
            continue;
        const std::uint32_t pair = donor_of[placement.homeDimm(i)];
        if (pair < pairs)
            donor_lists[pair].push_back(i);
    }
    for (auto &list : donor_lists) {
        std::sort(list.begin(), list.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return activity_[a] > activity_[b];
                  });
    }

    // Pair heaviest with lightest (lines 3-6) and move the most
    // activated neurons while the move strictly improves the pair.
    for (std::uint32_t pair = 0; pair < pairs; ++pair) {
        const std::uint32_t heavy = order[pair];
        const std::uint32_t light = order[numDimms_ - 1 - pair];
        const auto &donors = donor_lists[pair];
        std::size_t next = 0;
        Bytes moved_bytes = 0;
        while (next < donors.size()) {
            const std::uint32_t h = donors[next];
            const std::uint64_t a = activity_[h];
            if (a == 0 ||
                loads[heavy] < loads[light] + 2 * a)
                break; // No strict improvement left.
            placement.setHomeDimm(
                h, static_cast<std::uint16_t>(light));
            loads[heavy] -= a;
            loads[light] += a;
            moved_bytes += neuron_bytes;
            ++next;
        }
        if (moved_bytes > 0)
            transfers.push_back(
                interconnect::Transfer{heavy, light, moved_bytes});
    }

    clearWindow();
    return transfers;
}

std::vector<interconnect::Transfer>
WindowScheduler::rebalanceOracle(BlockPlacement &placement,
                                 Bytes neuron_bytes)
{
    std::vector<interconnect::Transfer> transfers;
    if (numDimms_ < 2) {
        clearWindow();
        return transfers;
    }

    // LPT over window activity: reassign every active cold neuron to
    // the currently least-loaded DIMM.
    std::vector<std::uint32_t> cold;
    for (std::uint32_t i = 0; i < placement.neurons(); ++i)
        if (!placement.onGpu(i) && activity_[i] > 0)
            cold.push_back(i);
    std::sort(cold.begin(), cold.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return activity_[a] > activity_[b];
              });

    std::vector<std::uint64_t> loads(numDimms_, 0);
    std::vector<Bytes> moved(numDimms_ * numDimms_, 0);
    for (const std::uint32_t i : cold) {
        const auto best = static_cast<std::uint32_t>(std::distance(
            loads.begin(),
            std::min_element(loads.begin(), loads.end())));
        loads[best] += activity_[i];
        const std::uint16_t from = placement.homeDimm(i);
        if (from != best) {
            moved[from * numDimms_ + best] += neuron_bytes;
            placement.setHomeDimm(i,
                                  static_cast<std::uint16_t>(best));
        }
    }
    for (std::uint32_t f = 0; f < numDimms_; ++f) {
        for (std::uint32_t t = 0; t < numDimms_; ++t) {
            if (moved[f * numDimms_ + t] > 0)
                transfers.push_back(interconnect::Transfer{
                    f, t, moved[f * numDimms_ + t]});
        }
    }

    clearWindow();
    return transfers;
}

WindowSet::WindowSet(std::uint32_t layers, std::uint32_t attn_neurons,
                     std::uint32_t mlp_neurons,
                     std::uint32_t num_dimms,
                     std::uint32_t window_size, Policy policy)
    : policy_(policy)
{
    // A zero window would rebalance every token (and the scheduler
    // rejects it); clamp to the minimum usable window.
    window_size = std::max<std::uint32_t>(window_size, 1);
    attn_.reserve(layers);
    mlp_.reserve(layers);
    for (std::uint32_t l = 0; l < layers; ++l) {
        attn_.emplace_back(attn_neurons, num_dimms, window_size);
        mlp_.emplace_back(mlp_neurons, num_dimms, window_size);
    }
}

void
WindowSet::observe(std::uint32_t layer,
                   const std::vector<std::uint32_t> &attn_active,
                   const std::vector<std::uint32_t> &mlp_active)
{
    attn_.at(layer).observe(attn_active);
    mlp_.at(layer).observe(mlp_active);
}

bool
WindowSet::windowComplete(std::uint32_t layer) const
{
    return attn_.at(layer).windowComplete();
}

WindowSet::RebalanceOutcome
WindowSet::maybeRebalance(std::uint32_t layer, BlockPlacement &attn,
                          BlockPlacement &mlp,
                          Bytes attn_neuron_bytes,
                          Bytes mlp_neuron_bytes,
                          const interconnect::DimmLinkNetwork &network)
{
    RebalanceOutcome outcome;
    if (!windowComplete(layer))
        return outcome;
    WindowScheduler &attn_window = attn_.at(layer);
    WindowScheduler &mlp_window = mlp_.at(layer);
    if (!policy_.enabled) {
        attn_window.clearWindow();
        mlp_window.clearWindow();
        return outcome;
    }
    std::vector<interconnect::Transfer> transfers =
        policy_.oracle
            ? attn_window.rebalanceOracle(attn, attn_neuron_bytes)
            : attn_window.rebalance(attn, attn_neuron_bytes);
    std::vector<interconnect::Transfer> mlp_transfers =
        policy_.oracle
            ? mlp_window.rebalanceOracle(mlp, mlp_neuron_bytes)
            : mlp_window.rebalance(mlp, mlp_neuron_bytes);
    transfers.insert(transfers.end(), mlp_transfers.begin(),
                     mlp_transfers.end());
    for (const auto &transfer : transfers)
        outcome.migrationBytes += transfer.bytes;
    outcome.transfers = transfers.size();
    outcome.migrationTime = network.migrationTime(transfers);
    return outcome;
}

} // namespace hermes::sched
