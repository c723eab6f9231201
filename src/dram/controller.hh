/**
 * @file
 * Command-level timing simulation of one DDR4 rank.
 *
 * The NDP center buffer taps each rank's data bus independently, so the
 * simulator models a single rank (2 bank groups x 4 banks sharing one
 * command bus and one 64-bit data bus) and the DIMM aggregates up to
 * DimmConfig::rankParallelism concurrent rank streams.
 *
 * The controller implements:
 *  - open-page policy with FR-FCFS scheduling over a lookahead window,
 *  - all Table II constraints (tRC, tRCD, tCL, tRP, tBL, tCCD_S/L,
 *    tRRD_S/L, tFAW) plus tRAS/tRTP/refresh,
 *  - one command per command-clock cycle on the shared command bus.
 *
 * Inputs are streams of row-read requests (a row id plus a burst
 * count); the output is the cycle at which the last data beat leaves
 * the rank, from which sustained bandwidth is derived.
 *
 * Cost: O(window) per issued command (one command per RD burst, ACT
 * or PRE), plus O(banks) per refresh.  Each issue step flags, per
 * bank, whether some window entry hits the open row, so the
 * row-conflict test is one lookup rather than a rescan of the window.
 */

#ifndef HERMES_DRAM_CONTROLLER_HH
#define HERMES_DRAM_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/units.hh"
#include "dram/config.hh"

namespace hermes::dram {

/** A read of `bursts` consecutive bursts from one DRAM row. */
struct RowRead
{
    std::uint32_t bankGroup = 0;
    std::uint32_t bank = 0;     ///< Bank index within the bank group.
    std::uint64_t row = 0;
    std::uint32_t bursts = 1;
};

/**
 * Maps a linear "chunk" index to rank-local coordinates, interleaving
 * consecutive chunks across bank groups first (to exploit tCCD_S),
 * then banks, then rows.
 */
class AddressMapper
{
  public:
    explicit AddressMapper(const DimmConfig &config) : config_(config) {}

    /** Coordinates of the idx-th row-sized chunk in this rank. */
    RowRead
    mapRowChunk(std::uint64_t idx, std::uint32_t bursts) const
    {
        RowRead read;
        read.bankGroup = static_cast<std::uint32_t>(
            idx % config_.bankGroups);
        read.bank = static_cast<std::uint32_t>(
            (idx / config_.bankGroups) % config_.banksPerGroup);
        read.row = idx / (static_cast<std::uint64_t>(config_.bankGroups) *
                          config_.banksPerGroup);
        read.bursts = bursts;
        return read;
    }

  private:
    const DimmConfig &config_;
};

/** Aggregate statistics from one controller simulation. */
struct ControllerStats
{
    std::uint64_t activates = 0;
    std::uint64_t reads = 0;       ///< RD commands (one burst each).
    std::uint64_t precharges = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t rowHits = 0;     ///< RDs that hit an open row.
    Cycles finishCycle = 0;        ///< Last data beat.
};

/**
 * Cycle/command-level model of one rank.  Stateless across simulate()
 * calls: each call starts from an idle, all-banks-precharged rank.
 */
class RankController
{
  public:
    explicit RankController(const DimmConfig &config);

    /**
     * Simulate the request stream and return timing statistics.
     *
     * @param reads Row reads, in arrival order.  FR-FCFS may reorder
     *              service within the lookahead window.
     * @throws std::invalid_argument if a read names a bank group or
     *         bank outside the rank geometry.
     */
    ControllerStats simulate(const std::vector<RowRead> &reads);

    /** Sustained read bandwidth achieved for the request stream. */
    BytesPerSecond measuredBandwidth(const std::vector<RowRead> &reads);

    /** Scheduling lookahead window (FR-FCFS scan depth). */
    void setWindow(std::uint32_t window) { window_ = window; }

    /** Disable reordering entirely (plain FCFS) for ablation. */
    void setFcfs(bool fcfs) { fcfs_ = fcfs; }

  private:
    struct BankState
    {
        std::int64_t openRow = -1;
        Cycles nextActivate = 0;
        Cycles nextRead = 0;
        Cycles nextPrecharge = 0;
    };

    struct PendingRead
    {
        RowRead request;
        std::uint32_t bank = 0; ///< flatBank() of the request.
        std::uint32_t burstsDone = 0;
    };

    std::uint32_t flatBank(std::uint32_t bg, std::uint32_t bank) const;

    const DimmConfig config_;
    std::uint32_t window_ = 16;
    bool fcfs_ = false;
};

} // namespace hermes::dram

#endif // HERMES_DRAM_CONTROLLER_HH
