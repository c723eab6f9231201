/**
 * @file
 * Offline neuron-mapping solver (Sec. IV-B, Eqs. 1-7).
 *
 * The paper formalizes the initial hot/cold placement as an ILP over
 * binary placement variables x_il^j and solves it offline with PuLP.
 * This implementation keeps the exact objective
 *
 *   min sum_b max( T_b^GPU * sum_{i in GPU} f_i + 2*Tsync,
 *                  max_j T_b^DIMM * sum_{i in DIMM j} f_i )
 *
 * subject to the GPU and per-DIMM capacity constraints, and solves it
 * with a two-stage method that exploits the problem's structure:
 *
 *  1. Waterline stage: within a block the optimum always promotes the
 *     most frequent neurons to the GPU (exchange argument), so the
 *     only per-block decision is the hot count.  Under the balanced-
 *     DIMM relaxation, GPU bytes are allocated across blocks greedily
 *     by marginal latency reduction per byte (a Lagrangian argument;
 *     gains are diminishing because frequencies are sorted).
 *  2. Assignment stage: cold neurons are distributed over DIMMs by
 *     LPT (longest-processing-time-first) on frequency, which is a
 *     4/3-approximation of the makespan-minimizing assignment.
 *
 * An exhaustive solver over tiny instances validates optimality in
 * the tests.
 */

#ifndef HERMES_SCHED_ILP_PARTITION_HH
#define HERMES_SCHED_ILP_PARTITION_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"

namespace hermes::sched {

/** One block (layer x attention/MLP) of the partition problem. */
struct BlockProblem
{
    /** Profiled activation frequency per neuron. */
    std::vector<double> frequency;

    /** Weight bytes per neuron. */
    Bytes neuronBytes = 0;

    /** GPU compute time per activated neuron (T_l^GPU). */
    Seconds gpuTimePerNeuron = 0.0;

    /** NDP-DIMM compute time per activated neuron (T_l^DIMM). */
    Seconds dimmTimePerNeuron = 0.0;
};

/** Whole-model partition problem. */
struct PartitionProblem
{
    std::vector<BlockProblem> blocks;
    Seconds syncTime = 10.0e-6;        ///< Tsync (one direction).
    Bytes gpuBudget = 0;               ///< GPU bytes for hot neurons.
    std::vector<Bytes> dimmBudgets;    ///< Per-DIMM weight capacity.
};

/** Assignment: per block, per neuron, -1 = GPU else the DIMM index. */
struct PartitionAssignment
{
    std::vector<std::vector<std::int16_t>> location;
};

/** Solver output. */
struct PartitionResult
{
    PartitionAssignment assignment;
    Seconds objective = 0.0;
};

/** Two-stage solver for the offline mapping ILP. */
class IlpPartitioner
{
  public:
    /**
     * Solve with the waterline + LPT method described above.
     *
     * @param threads Threads the per-block sorts of the waterline
     *        stage may use (<= 1: the calling thread only); the
     *        result never depends on it.
     * @throws std::invalid_argument when `problem` has no DIMM budget.
     */
    PartitionResult solve(const PartitionProblem &problem,
                          std::uint32_t threads = 1) const;

    /**
     * Exhaustive optimum over all (D+1)^N assignments.  Exponential;
     * only for validating `solve` on tiny instances.
     */
    PartitionResult solveExhaustive(
        const PartitionProblem &problem) const;

    /** Evaluate Eq. 1 for an assignment (fatal on budget violation). */
    static Seconds objective(const PartitionProblem &problem,
                             const PartitionAssignment &assignment);

    /** Check capacity constraints (Eqs. 6-7). */
    static bool feasible(const PartitionProblem &problem,
                         const PartitionAssignment &assignment);
};

} // namespace hermes::sched

#endif // HERMES_SCHED_ILP_PARTITION_HH
