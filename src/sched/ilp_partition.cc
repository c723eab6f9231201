#include "sched/ilp_partition.hh"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/threads.hh"

namespace hermes::sched {

namespace {

/** Per-block state used by the waterline stage. */
struct BlockState
{
    std::vector<std::uint32_t> byFreq; ///< Neuron ids, hottest first.
    std::vector<double> prefixMass;    ///< Hot mass for hot count k.
    double totalMass = 0.0;
    std::uint32_t hotCount = 0;
};

/** Block latency under the balanced-DIMM relaxation. */
Seconds
relaxedBlockTime(const BlockProblem &block, const BlockState &state,
                 std::uint32_t hot_count, std::uint32_t num_dimms,
                 Seconds sync_time)
{
    const double hot_mass = state.prefixMass[hot_count];
    const double cold_mass = state.totalMass - hot_mass;
    const Seconds gpu =
        block.gpuTimePerNeuron * hot_mass + 2.0 * sync_time;
    const Seconds dimm =
        block.dimmTimePerNeuron * cold_mass / num_dimms;
    return std::max(gpu, dimm);
}

} // namespace

PartitionResult
IlpPartitioner::solve(const PartitionProblem &problem,
                      std::uint32_t threads) const
{
    const auto num_dimms =
        static_cast<std::uint32_t>(problem.dimmBudgets.size());
    if (num_dimms == 0)
        throw std::invalid_argument(
            "IlpPartitioner::solve: needs at least one DIMM budget, got " +
            std::to_string(num_dimms));

    // Stage 1: waterline.  Sort each block by frequency and allocate
    // the GPU byte budget by marginal gain per byte.  The blocks are
    // sorted independently, on up to `threads` threads, into vectors
    // sized here: what a worker thread allocates stays in its malloc
    // arena.
    std::vector<BlockState> states(problem.blocks.size());
    for (std::size_t b = 0; b < problem.blocks.size(); ++b) {
        states[b].byFreq.resize(problem.blocks[b].frequency.size());
        states[b].prefixMass.resize(problem.blocks[b].frequency.size() +
                                    1);
    }
    parallelFor(std::min<std::size_t>(threads, states.size()),
                states.size(), [&](std::size_t b) {
        const BlockProblem &block = problem.blocks[b];
        BlockState &state = states[b];
        std::iota(state.byFreq.begin(), state.byFreq.end(), 0);
        std::sort(state.byFreq.begin(), state.byFreq.end(),
                  [&](std::uint32_t a, std::uint32_t c) {
                      return block.frequency[a] > block.frequency[c];
                  });
        state.prefixMass[0] = 0.0;
        for (std::size_t i = 0; i < state.byFreq.size(); ++i) {
            state.prefixMass[i + 1] =
                state.prefixMass[i] +
                block.frequency[state.byFreq[i]];
        }
        state.totalMass = state.prefixMass.back();
    });

    struct Candidate
    {
        double gainPerByte;
        std::size_t block;
    };
    auto cmp = [](const Candidate &a, const Candidate &b) {
        return a.gainPerByte < b.gainPerByte;
    };
    std::priority_queue<Candidate, std::vector<Candidate>,
                        decltype(cmp)>
        heap(cmp);

    auto marginal_gain = [&](std::size_t b) -> double {
        const BlockProblem &block = problem.blocks[b];
        const BlockState &state = states[b];
        if (state.hotCount >= block.frequency.size())
            return 0.0;
        const Seconds before = relaxedBlockTime(
            block, state, state.hotCount, num_dimms, problem.syncTime);
        const Seconds after =
            relaxedBlockTime(block, state, state.hotCount + 1,
                             num_dimms, problem.syncTime);
        return (before - after) /
               static_cast<double>(block.neuronBytes);
    };

    for (std::size_t b = 0; b < problem.blocks.size(); ++b) {
        const double gain = marginal_gain(b);
        if (gain > 0.0)
            heap.push({gain, b});
    }

    Bytes gpu_used = 0;
    while (!heap.empty()) {
        const Candidate top = heap.top();
        heap.pop();
        // Re-validate: the stored gain may be stale after promotions.
        const double gain = marginal_gain(top.block);
        if (gain <= 0.0)
            continue;
        if (gain < top.gainPerByte * (1.0 - 1e-12) && !heap.empty() &&
            gain < heap.top().gainPerByte) {
            heap.push({gain, top.block});
            continue;
        }
        const BlockProblem &block = problem.blocks[top.block];
        if (gpu_used + block.neuronBytes > problem.gpuBudget)
            continue;
        gpu_used += block.neuronBytes;
        ++states[top.block].hotCount;
        const double next = marginal_gain(top.block);
        if (next > 0.0)
            heap.push({next, top.block});
    }

    // Stage 2: LPT assignment of cold neurons to DIMMs, per block,
    // respecting per-DIMM byte budgets across blocks.
    PartitionResult result;
    result.assignment.location.resize(problem.blocks.size());
    std::vector<Bytes> dimm_used(num_dimms, 0);

    for (std::size_t b = 0; b < problem.blocks.size(); ++b) {
        const BlockProblem &block = problem.blocks[b];
        const BlockState &state = states[b];
        auto &location = result.assignment.location[b];
        location.assign(block.frequency.size(), 0);

        std::vector<double> dimm_mass(num_dimms, 0.0);
        std::vector<std::uint64_t> dimm_count(num_dimms, 0);
        for (std::size_t rank = 0; rank < state.byFreq.size(); ++rank) {
            const std::uint32_t id = state.byFreq[rank];
            if (rank < state.hotCount) {
                location[id] = -1;
                continue;
            }
            // Least-loaded DIMM with remaining capacity.  Neurons the
            // profile never saw activate (frequency 0) still fire
            // later — mass-based LPT would dump the whole tail on the
            // single least-mass DIMM, which then melts down when the
            // context drifts; spread the tail by neuron count
            // instead.
            const bool unseen = block.frequency[id] <= 0.0;
            std::uint32_t best = num_dimms;
            for (std::uint32_t d = 0; d < num_dimms; ++d) {
                if (dimm_used[d] + block.neuronBytes >
                    problem.dimmBudgets[d])
                    continue;
                if (best == num_dimms) {
                    best = d;
                    continue;
                }
                const bool better =
                    unseen ? dimm_count[d] < dimm_count[best]
                           : std::make_pair(dimm_mass[d],
                                            dimm_count[d]) <
                                 std::make_pair(dimm_mass[best],
                                                dimm_count[best]);
                if (better)
                    best = d;
            }
            if (best == num_dimms) {
                Bytes budget = 0;
                for (const Bytes dimm : problem.dimmBudgets)
                    budget += dimm;
                throw std::runtime_error(
                    "IlpPartitioner::solve: cold neurons of block " +
                    std::to_string(b) + " exceed the DIMM budgets (" +
                    std::to_string(budget) + " bytes over " +
                    std::to_string(num_dimms) + " DIMMs)");
            }
            location[id] = static_cast<std::int16_t>(best);
            dimm_mass[best] += block.frequency[id];
            dimm_count[best] += 1;
            dimm_used[best] += block.neuronBytes;
        }
    }

    result.objective = objective(problem, result.assignment);
    return result;
}

PartitionResult
IlpPartitioner::solveExhaustive(const PartitionProblem &problem) const
{
    const auto num_dimms =
        static_cast<std::uint32_t>(problem.dimmBudgets.size());
    std::size_t total_neurons = 0;
    for (const auto &block : problem.blocks)
        total_neurons += block.frequency.size();
    hermes_assert(total_neurons <= 12,
                  "exhaustive solver limited to tiny instances");

    // Flatten (block, neuron) pairs and enumerate (D+1)^N choices.
    std::vector<std::pair<std::size_t, std::uint32_t>> flat;
    for (std::size_t b = 0; b < problem.blocks.size(); ++b)
        for (std::uint32_t i = 0; i < problem.blocks[b].frequency.size();
             ++i)
            flat.emplace_back(b, i);

    PartitionResult best;
    best.objective = -1.0;

    PartitionAssignment assignment;
    assignment.location.resize(problem.blocks.size());
    for (std::size_t b = 0; b < problem.blocks.size(); ++b)
        assignment.location[b].assign(
            problem.blocks[b].frequency.size(), 0);

    const std::uint64_t choices = num_dimms + 1;
    std::uint64_t combos = 1;
    for (std::size_t i = 0; i < flat.size(); ++i)
        combos *= choices;

    for (std::uint64_t code = 0; code < combos; ++code) {
        std::uint64_t rest = code;
        for (const auto &[b, i] : flat) {
            const auto choice =
                static_cast<std::int16_t>(rest % choices);
            rest /= choices;
            assignment.location[b][i] =
                choice == 0 ? -1
                            : static_cast<std::int16_t>(choice - 1);
        }
        if (!feasible(problem, assignment))
            continue;
        const Seconds obj = objective(problem, assignment);
        if (best.objective < 0.0 || obj < best.objective) {
            best.objective = obj;
            best.assignment = assignment;
        }
    }
    hermes_assert(best.objective >= 0.0, "no feasible assignment");
    return best;
}

bool
IlpPartitioner::feasible(const PartitionProblem &problem,
                         const PartitionAssignment &assignment)
{
    const auto num_dimms =
        static_cast<std::uint32_t>(problem.dimmBudgets.size());
    Bytes gpu_used = 0;
    std::vector<Bytes> dimm_used(num_dimms, 0);
    for (std::size_t b = 0; b < problem.blocks.size(); ++b) {
        const BlockProblem &block = problem.blocks[b];
        for (const std::int16_t loc : assignment.location[b]) {
            if (loc < 0) {
                gpu_used += block.neuronBytes;
            } else {
                hermes_assert(static_cast<std::uint32_t>(loc) <
                              num_dimms);
                dimm_used[static_cast<std::size_t>(loc)] +=
                    block.neuronBytes;
            }
        }
    }
    if (gpu_used > problem.gpuBudget)
        return false;
    for (std::uint32_t d = 0; d < num_dimms; ++d)
        if (dimm_used[d] > problem.dimmBudgets[d])
            return false;
    return true;
}

Seconds
IlpPartitioner::objective(const PartitionProblem &problem,
                          const PartitionAssignment &assignment)
{
    hermes_assert(assignment.location.size() == problem.blocks.size(),
                  "assignment/problem shape mismatch");
    const auto num_dimms =
        static_cast<std::uint32_t>(problem.dimmBudgets.size());
    Seconds total = 0.0;
    for (std::size_t b = 0; b < problem.blocks.size(); ++b) {
        const BlockProblem &block = problem.blocks[b];
        const auto &location = assignment.location[b];
        hermes_assert(location.size() == block.frequency.size());
        double gpu_mass = 0.0;
        std::vector<double> dimm_mass(num_dimms, 0.0);
        for (std::size_t i = 0; i < location.size(); ++i) {
            if (location[i] < 0)
                gpu_mass += block.frequency[i];
            else
                dimm_mass[static_cast<std::size_t>(location[i])] +=
                    block.frequency[i];
        }
        const Seconds gpu = block.gpuTimePerNeuron * gpu_mass +
                            2.0 * problem.syncTime;
        Seconds dimm = 0.0;
        for (const double mass : dimm_mass)
            dimm = std::max(dimm, block.dimmTimePerNeuron * mass);
        total += std::max(gpu, dimm);
    }
    return total;
}

} // namespace hermes::sched
