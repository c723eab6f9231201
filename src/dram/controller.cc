#include "dram/controller.hh"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace hermes::dram {

namespace {

constexpr Cycles kNever = std::numeric_limits<Cycles>::max();

std::invalid_argument
outsideGeometry(const RowRead &read, const DimmConfig &config)
{
    return std::invalid_argument(
        "RankController::simulate: read at bank group " +
        std::to_string(read.bankGroup) + ", bank " +
        std::to_string(read.bank) + " is outside the rank geometry (" +
        std::to_string(config.bankGroups) + " bank groups x " +
        std::to_string(config.banksPerGroup) + " banks)");
}

} // namespace

RankController::RankController(const DimmConfig &config) : config_(config)
{
    hermes_assert(config_.bankGroups > 0 && config_.banksPerGroup > 0);
}

std::uint32_t
RankController::flatBank(std::uint32_t bg, std::uint32_t bank) const
{
    return bg * config_.banksPerGroup + bank;
}

ControllerStats
RankController::simulate(const std::vector<RowRead> &reads)
{
    const TimingParams &t = config_.timing;
    const std::uint32_t num_banks = config_.banksPerRank();

    std::vector<BankState> banks(num_banks);
    // Pending reads in age order live in queue[head, end).  Retiring
    // the entry at head + k shifts the k older window entries up one
    // slot and advances head: O(window), age order kept.
    std::vector<PendingRead> queue;
    queue.reserve(reads.size());
    for (const auto &read : reads) {
        if (read.bankGroup >= config_.bankGroups ||
            read.bank >= config_.banksPerGroup)
            throw outsideGeometry(read, config_);
        queue.push_back(
            PendingRead{read, flatBank(read.bankGroup, read.bank), 0});
    }
    std::size_t head = 0;

    // Per bank, rebuilt at every issue step: does some window entry
    // hit the bank's open row?  A row-conflict entry only precharges
    // a bank nobody in the window still wants.
    std::vector<char> open_row_wanted(num_banks, 0);

    ControllerStats stats;
    Cycles now = 0;

    // Rank-wide constraint trackers.
    std::array<Cycles, 4> act_times{}; // Last 4 ACTs (ring), for tFAW.
    std::uint64_t acts_issued = 0;
    Cycles last_act = 0;                 // For tRRD_S.
    std::vector<Cycles> last_act_group(config_.bankGroups, 0);
    std::vector<char> any_act_group(config_.bankGroups, 0);
    Cycles last_read = 0;                // For tCCD.
    std::uint32_t last_read_group = 0;
    bool any_read = false;
    Cycles bus_free = 0;                 // Data bus availability.
    Cycles next_refresh = t.tREFI;
    Cycles last_data = 0;

    auto apply_refresh = [&](Cycles upto) {
        while (next_refresh <= upto) {
            // All-bank refresh: close every row and stall the rank.
            const Cycles resume = next_refresh + t.tRFC;
            for (auto &bank : banks) {
                bank.openRow = -1;
                bank.nextActivate = std::max(bank.nextActivate, resume);
                bank.nextRead = std::max(bank.nextRead, resume);
                bank.nextPrecharge = std::max(bank.nextPrecharge, resume);
            }
            ++stats.refreshes;
            next_refresh += t.tREFI;
        }
    };

    // Earliest cycle an ACT may issue to the given bank group, given
    // rank-wide activate constraints.
    auto act_ready = [&](std::uint32_t bg, Cycles bank_ready) {
        Cycles ready = std::max(now, bank_ready);
        if (acts_issued > 0)
            ready = std::max(ready, last_act + t.tRRD_S);
        if (any_act_group[bg])
            ready = std::max(ready, last_act_group[bg] + t.tRRD_L);
        // The slot the next ACT overwrites holds the oldest of the
        // last four.
        if (acts_issued >= 4)
            ready = std::max(ready, act_times[acts_issued % 4] + t.tFAW);
        return ready;
    };

    auto read_ready = [&](std::uint32_t bg, Cycles bank_ready) {
        Cycles ready = std::max(now, bank_ready);
        if (any_read) {
            const Cycles ccd =
                (bg == last_read_group) ? t.tCCD_L : t.tCCD_S;
            ready = std::max(ready, last_read + ccd);
        }
        // Data bus: next burst's data window must not overlap the
        // previous one.  All reads share tCL, so spacing the command by
        // the remaining bus occupancy is exact.
        if (bus_free > t.tCL)
            ready = std::max(ready, bus_free - t.tCL);
        return ready;
    };

    while (head < queue.size()) {
        const std::size_t scan =
            fcfs_ ? 1 : std::min<std::size_t>(queue.size() - head,
                                              window_);
        const PendingRead *window = queue.data() + head;

        for (std::size_t i = 0; i < scan; ++i) {
            const PendingRead &pending = window[i];
            if (banks[pending.bank].openRow ==
                static_cast<std::int64_t>(pending.request.row))
                open_row_wanted[pending.bank] = 1;
        }

        // Find the best issuable command in the window.  FR-FCFS:
        // row-hit reads first (earliest ready; ties to the oldest),
        // otherwise the oldest request's next command.
        std::size_t best_idx = scan;
        Cycles best_time = kNever;
        bool best_is_hit = false;

        for (std::size_t i = 0; i < scan; ++i) {
            const PendingRead &pending = window[i];
            const RowRead &req = pending.request;
            const BankState &bank = banks[pending.bank];
            const bool hit =
                bank.openRow == static_cast<std::int64_t>(req.row);

            Cycles when;
            if (hit) {
                when = read_ready(req.bankGroup, bank.nextRead);
            } else if (bank.openRow < 0) {
                when = act_ready(req.bankGroup, bank.nextActivate);
            } else {
                // Row conflict: only precharge if no other window
                // entry still wants the open row in this bank (this
                // entry's own row is not the open one).
                if (open_row_wanted[pending.bank])
                    continue;
                when = std::max(now, bank.nextPrecharge);
            }

            // Issue the command that is ready soonest so ACTs to idle
            // banks overlap with in-flight column reads; among commands
            // ready at the same cycle, prefer row hits (FR-FCFS), then
            // the oldest request.
            const bool better =
                when < best_time ||
                (when == best_time && hit && !best_is_hit);
            if (better) {
                best_idx = i;
                best_time = when;
                best_is_hit = hit;
            }
        }

        for (std::size_t i = 0; i < scan; ++i)
            open_row_wanted[window[i].bank] = 0;

        hermes_assert(best_idx < scan, "scheduler deadlock");

        PendingRead &pending = queue[head + best_idx];
        const RowRead &req = pending.request;
        BankState &bank = banks[pending.bank];
        const bool hit =
            bank.openRow == static_cast<std::int64_t>(req.row);

        apply_refresh(best_time);

        if (hit) {
            const Cycles issue = read_ready(req.bankGroup, bank.nextRead);
            now = std::max(now, issue) + 1; // Command bus: 1 cmd/cycle.
            last_read = issue;
            last_read_group = req.bankGroup;
            any_read = true;
            bus_free = issue + t.tCL + t.tBL;
            last_data = std::max(last_data, bus_free);
            bank.nextPrecharge =
                std::max(bank.nextPrecharge, issue + t.tRTP);
            ++stats.reads;
            if (++pending.burstsDone >= req.bursts) {
                for (std::size_t k = head + best_idx; k > head; --k)
                    queue[k] = queue[k - 1];
                ++head;
            }
        } else if (bank.openRow < 0) {
            const Cycles issue =
                act_ready(req.bankGroup, bank.nextActivate);
            now = std::max(now, issue) + 1;
            bank.openRow = static_cast<std::int64_t>(req.row);
            bank.nextRead = issue + t.tRCD;
            bank.nextPrecharge = issue + t.tRAS;
            bank.nextActivate = issue + t.tRC;
            last_act = issue;
            last_act_group[req.bankGroup] = issue;
            any_act_group[req.bankGroup] = 1;
            act_times[acts_issued % 4] = issue;
            ++acts_issued;
            ++stats.activates;
        } else {
            const Cycles issue = std::max(now, bank.nextPrecharge);
            now = std::max(now, issue) + 1;
            bank.openRow = -1;
            bank.nextActivate =
                std::max(bank.nextActivate, issue + t.tRP);
            ++stats.precharges;
        }
    }

    // Every RD issues against an open row; reads that did not require a
    // fresh ACT of their row are the row-buffer hits.
    stats.rowHits = stats.reads >= stats.activates
                        ? stats.reads - stats.activates
                        : 0;
    stats.finishCycle = last_data;
    return stats;
}

BytesPerSecond
RankController::measuredBandwidth(const std::vector<RowRead> &reads)
{
    if (reads.empty())
        return 0.0;
    Bytes total = 0;
    for (const auto &read : reads)
        total += static_cast<Bytes>(read.bursts) * config_.burstBytes;
    const ControllerStats stats = simulate(reads);
    if (stats.finishCycle == 0)
        return 0.0;
    return static_cast<double>(total) /
           config_.timing.toSeconds(stats.finishCycle);
}

} // namespace hermes::dram
