/**
 * @file
 * Unit and property tests for the DDR4 command-level timing model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/bandwidth_probe.hh"
#include "dram/config.hh"
#include "dram/controller.hh"
#include "dram/timing.hh"

namespace hermes::dram {
namespace {

DimmConfig
tableIiConfig()
{
    return DimmConfig{};
}

std::vector<RowRead>
sequentialRows(const DimmConfig &cfg, std::uint64_t rows)
{
    AddressMapper mapper(cfg);
    const auto bursts =
        static_cast<std::uint32_t>(cfg.rowBytes / cfg.burstBytes);
    std::vector<RowRead> reads;
    for (std::uint64_t i = 0; i < rows; ++i)
        reads.push_back(mapper.mapRowChunk(i, bursts));
    return reads;
}

/**
 * The FR-FCFS scheduler as it was before the O(window) rewrite, kept
 * verbatim (bar the geometry check, which the fast path now throws
 * for) as the slow reference: each command rescans the window, and a
 * row-conflict entry rescans it again for a wanted open row.
 */
ControllerStats
referenceSimulate(const DimmConfig &config, std::uint32_t window,
                  bool fcfs, const std::vector<RowRead> &reads)
{
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
        std::uint32_t burstsDone = 0;
    };
    constexpr Cycles kNever = std::numeric_limits<Cycles>::max();
    const auto flat_bank = [&](std::uint32_t bg, std::uint32_t bank) {
        return bg * config.banksPerGroup + bank;
    };

    const TimingParams &t = config.timing;
    const std::uint32_t num_banks = config.banksPerRank();

    std::vector<BankState> banks(num_banks);
    std::deque<PendingRead> queue;
    for (const auto &read : reads)
        queue.push_back(PendingRead{read, 0});

    ControllerStats stats;
    Cycles now = 0;

    std::deque<Cycles> act_window;
    Cycles last_act = 0;
    bool any_act = false;
    std::vector<Cycles> last_act_group(config.bankGroups, 0);
    std::vector<bool> any_act_group(config.bankGroups, false);
    Cycles last_read = 0;
    std::uint32_t last_read_group = 0;
    bool any_read = false;
    Cycles bus_free = 0;
    Cycles next_refresh = t.tREFI;
    Cycles last_data = 0;

    auto apply_refresh = [&](Cycles upto) {
        while (next_refresh <= upto) {
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

    auto act_ready = [&](std::uint32_t bg, Cycles bank_ready) {
        Cycles ready = std::max(now, bank_ready);
        if (any_act)
            ready = std::max(ready, last_act + t.tRRD_S);
        if (any_act_group[bg])
            ready = std::max(ready, last_act_group[bg] + t.tRRD_L);
        if (act_window.size() >= 4)
            ready = std::max(ready, act_window.front() + t.tFAW);
        return ready;
    };

    auto read_ready = [&](std::uint32_t bg, Cycles bank_ready) {
        Cycles ready = std::max(now, bank_ready);
        if (any_read) {
            const Cycles ccd =
                (bg == last_read_group) ? t.tCCD_L : t.tCCD_S;
            ready = std::max(ready, last_read + ccd);
        }
        if (bus_free > t.tCL)
            ready = std::max(ready, bus_free - t.tCL);
        return ready;
    };

    while (!queue.empty()) {
        const std::size_t scan =
            fcfs ? 1 : std::min<std::size_t>(queue.size(), window);

        std::size_t best_idx = scan;
        Cycles best_time = kNever;
        bool best_is_hit = false;

        for (std::size_t i = 0; i < scan; ++i) {
            const PendingRead &pending = queue[i];
            const RowRead &req = pending.request;
            const BankState &bank =
                banks[flat_bank(req.bankGroup, req.bank)];
            const bool hit =
                bank.openRow == static_cast<std::int64_t>(req.row);

            Cycles when;
            if (hit) {
                when = read_ready(req.bankGroup, bank.nextRead);
            } else if (bank.openRow < 0) {
                when = act_ready(req.bankGroup, bank.nextActivate);
            } else {
                bool wanted = false;
                for (std::size_t j = 0; j < scan && !wanted; ++j) {
                    const RowRead &other = queue[j].request;
                    wanted = j != i &&
                             other.bankGroup == req.bankGroup &&
                             other.bank == req.bank &&
                             static_cast<std::int64_t>(other.row) ==
                                 bank.openRow;
                }
                if (wanted && !fcfs)
                    continue;
                when = std::max(now, bank.nextPrecharge);
            }

            const bool better =
                when < best_time ||
                (when == best_time && hit && !best_is_hit);
            if (better) {
                best_idx = i;
                best_time = when;
                best_is_hit = hit;
            }
        }

        if (best_idx >= scan)
            throw std::logic_error("reference scheduler deadlock");

        PendingRead &pending = queue[best_idx];
        const RowRead &req = pending.request;
        BankState &bank = banks[flat_bank(req.bankGroup, req.bank)];
        const bool hit =
            bank.openRow == static_cast<std::int64_t>(req.row);

        apply_refresh(best_time);

        if (hit) {
            const Cycles issue = read_ready(req.bankGroup, bank.nextRead);
            now = std::max(now, issue) + 1;
            last_read = issue;
            last_read_group = req.bankGroup;
            any_read = true;
            bus_free = issue + t.tCL + t.tBL;
            last_data = std::max(last_data, bus_free);
            bank.nextPrecharge =
                std::max(bank.nextPrecharge, issue + t.tRTP);
            ++stats.reads;
            if (++pending.burstsDone >= req.bursts)
                queue.erase(queue.begin() +
                            static_cast<std::ptrdiff_t>(best_idx));
        } else if (bank.openRow < 0) {
            const Cycles issue =
                act_ready(req.bankGroup, bank.nextActivate);
            now = std::max(now, issue) + 1;
            bank.openRow = static_cast<std::int64_t>(req.row);
            bank.nextRead = issue + t.tRCD;
            bank.nextPrecharge = issue + t.tRAS;
            bank.nextActivate = issue + t.tRC;
            last_act = issue;
            any_act = true;
            last_act_group[req.bankGroup] = issue;
            any_act_group[req.bankGroup] = true;
            act_window.push_back(issue);
            while (act_window.size() > 4)
                act_window.pop_front();
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

    stats.rowHits = stats.reads >= stats.activates
                        ? stats.reads - stats.activates
                        : 0;
    stats.finishCycle = last_data;
    return stats;
}

TEST(Timing, TableIiDefaults)
{
    const TimingParams t = ddr4_3200();
    EXPECT_EQ(t.tRC, 76u);
    EXPECT_EQ(t.tRCD, 24u);
    EXPECT_EQ(t.tCL, 24u);
    EXPECT_EQ(t.tRP, 24u);
    EXPECT_EQ(t.tBL, 4u);
    EXPECT_EQ(t.tCCD_S, 4u);
    EXPECT_EQ(t.tCCD_L, 8u);
    EXPECT_EQ(t.tRRD_S, 4u);
    EXPECT_EQ(t.tRRD_L, 6u);
    EXPECT_EQ(t.tFAW, 26u);
    EXPECT_DOUBLE_EQ(t.clockHz, 1600.0e6);
}

TEST(Config, TableIiGeometry)
{
    const DimmConfig cfg = tableIiConfig();
    EXPECT_EQ(cfg.capacity, 32ull * kGiB);
    EXPECT_EQ(cfg.ranks, 4u);
    EXPECT_EQ(cfg.banksPerRank(), 8u);
    // 32 GiB / (4 ranks * 8 banks * 8 KiB rows).
    EXPECT_EQ(cfg.rowsPerBank(), 32ull * kGiB / (32 * 8 * kKiB));
}

TEST(Config, PeakBandwidthMatchesDdr4_3200)
{
    const DimmConfig cfg = tableIiConfig();
    // 64 B per 4 cycles at 1600 MHz = 25.6 GB/s.
    EXPECT_NEAR(cfg.rankPeakBandwidth(), 25.6e9, 1e6);
    EXPECT_NEAR(cfg.internalPeakBandwidth(), 4 * 25.6e9, 1e7);
}

TEST(Config, BurstsForRoundsUp)
{
    const DimmConfig cfg = tableIiConfig();
    EXPECT_EQ(cfg.burstsFor(0), 0u);
    EXPECT_EQ(cfg.burstsFor(1), 1u);
    EXPECT_EQ(cfg.burstsFor(64), 1u);
    EXPECT_EQ(cfg.burstsFor(65), 2u);
    EXPECT_EQ(cfg.burstsFor(8192), 128u);
}

TEST(AddressMapperTest, InterleavesBankGroupsFirst)
{
    const DimmConfig cfg = tableIiConfig();
    AddressMapper mapper(cfg);
    const RowRead r0 = mapper.mapRowChunk(0, 1);
    const RowRead r1 = mapper.mapRowChunk(1, 1);
    const RowRead r2 = mapper.mapRowChunk(2, 1);
    EXPECT_EQ(r0.bankGroup, 0u);
    EXPECT_EQ(r1.bankGroup, 1u);
    EXPECT_EQ(r2.bankGroup, 0u);
    EXPECT_EQ(r0.bank, 0u);
    EXPECT_EQ(r2.bank, 1u);
}

TEST(AddressMapperTest, RowAdvancesAfterAllBanks)
{
    const DimmConfig cfg = tableIiConfig();
    AddressMapper mapper(cfg);
    const auto banks = cfg.banksPerRank();
    EXPECT_EQ(mapper.mapRowChunk(banks - 1, 1).row, 0u);
    EXPECT_EQ(mapper.mapRowChunk(banks, 1).row, 1u);
}

TEST(Controller, SingleBurstLatency)
{
    const DimmConfig cfg = tableIiConfig();
    RankController controller(cfg);
    const ControllerStats stats =
        controller.simulate({RowRead{0, 0, 0, 1}});
    // ACT at 0, RD at tRCD, data complete at tRCD + tCL + tBL.
    const TimingParams &t = cfg.timing;
    EXPECT_EQ(stats.finishCycle, t.tRCD + t.tCL + t.tBL);
    EXPECT_EQ(stats.activates, 1u);
    EXPECT_EQ(stats.reads, 1u);
    EXPECT_EQ(stats.rowHits, 0u);
}

TEST(Controller, RowHitsWithinOneRow)
{
    const DimmConfig cfg = tableIiConfig();
    RankController controller(cfg);
    const ControllerStats stats =
        controller.simulate({RowRead{0, 0, 0, 16}});
    EXPECT_EQ(stats.activates, 1u);
    EXPECT_EQ(stats.reads, 16u);
    EXPECT_EQ(stats.rowHits, 15u);
}

TEST(Controller, SameBankRowConflictPaysPrecharge)
{
    const DimmConfig cfg = tableIiConfig();
    RankController controller(cfg);
    const ControllerStats stats = controller.simulate(
        {RowRead{0, 0, 0, 1}, RowRead{0, 0, 1, 1}});
    EXPECT_EQ(stats.activates, 2u);
    EXPECT_EQ(stats.precharges, 1u);
    // Second access cannot complete before tRC-level spacing.
    const TimingParams &t = cfg.timing;
    EXPECT_GE(stats.finishCycle,
              t.tRAS + t.tRP + t.tRCD + t.tCL + t.tBL);
}

TEST(Controller, BankGroupInterleavingBeatsSingleGroup)
{
    const DimmConfig cfg = tableIiConfig();

    // 64 bursts alternating across groups vs. all in one bank.
    std::vector<RowRead> interleaved;
    for (int i = 0; i < 8; ++i)
        interleaved.push_back(
            RowRead{static_cast<std::uint32_t>(i % 2),
                    static_cast<std::uint32_t>((i / 2) % 4), 0, 8});
    std::vector<RowRead> single = {RowRead{0, 0, 0, 64}};

    RankController controller(cfg);
    const Cycles inter = controller.simulate(interleaved).finishCycle;
    const Cycles mono = controller.simulate(single).finishCycle;
    EXPECT_LT(inter, mono);
}

TEST(Controller, SequentialStreamApproachesPeak)
{
    const DimmConfig cfg = tableIiConfig();
    RankController controller(cfg);
    const BytesPerSecond bw =
        controller.measuredBandwidth(sequentialRows(cfg, 256));
    EXPECT_GT(bw, 0.90 * cfg.rankPeakBandwidth());
    EXPECT_LE(bw, cfg.rankPeakBandwidth());
}

TEST(Controller, FcfsNoSlowerThanZeroWindowButBelowFrFcfs)
{
    const DimmConfig cfg = tableIiConfig();
    const auto reads = sequentialRows(cfg, 64);

    RankController frfcfs(cfg);
    RankController fcfs(cfg);
    fcfs.setFcfs(true);
    const Cycles fast = frfcfs.simulate(reads).finishCycle;
    const Cycles slow = fcfs.simulate(reads).finishCycle;
    // FCFS services one request at a time and cannot overlap ACTs as
    // aggressively; it must not be faster.
    EXPECT_LE(fast, slow);
}

TEST(Controller, RefreshOverheadVisibleOnLongStreams)
{
    DimmConfig cfg = tableIiConfig();
    RankController controller(cfg);
    const auto reads = sequentialRows(cfg, 2048);
    const ControllerStats stats = controller.simulate(reads);
    // 2048 rows * 128 bursts * 4 cycles > several tREFI windows.
    EXPECT_GT(stats.refreshes, 0u);
}

TEST(Controller, EmptyRequestStream)
{
    const DimmConfig cfg = tableIiConfig();
    RankController controller(cfg);
    const ControllerStats stats = controller.simulate({});
    EXPECT_EQ(stats.finishCycle, 0u);
    EXPECT_EQ(stats.reads, 0u);
    EXPECT_DOUBLE_EQ(controller.measuredBandwidth({}), 0.0);
}

TEST(Controller, ThroughputMonotonicInBurstCount)
{
    // Reading more bursts from the same row amortizes the ACT: the
    // per-byte cost must go down.
    const DimmConfig cfg = tableIiConfig();
    RankController controller(cfg);
    double prev_cost = 1e30;
    for (std::uint32_t bursts : {1u, 2u, 8u, 32u, 128u}) {
        const ControllerStats stats =
            controller.simulate({RowRead{0, 0, 0, bursts}});
        const double cost =
            static_cast<double>(stats.finishCycle) / bursts;
        EXPECT_LT(cost, prev_cost + 1e-9);
        prev_cost = cost;
    }
}

void
expectSameStats(const ControllerStats &fast, const ControllerStats &slow,
                const std::string &what)
{
    EXPECT_EQ(fast.activates, slow.activates) << what;
    EXPECT_EQ(fast.reads, slow.reads) << what;
    EXPECT_EQ(fast.precharges, slow.precharges) << what;
    EXPECT_EQ(fast.refreshes, slow.refreshes) << what;
    EXPECT_EQ(fast.rowHits, slow.rowHits) << what;
    EXPECT_EQ(fast.finishCycle, slow.finishCycle) << what;
}

TEST(Controller, MatchesTheRescanningReferenceOnRandomStreams)
{
    // Random row-read streams over random geometries, with few
    // enough distinct rows per bank that hits, idle banks and
    // conflicts (wanted and unwanted open rows) all occur; long
    // streams cross many tREFI refreshes.  Every statistic must
    // equal the rescanning scheduler's, at every window and in
    // FCFS mode.
    Rng rng(0x5eedf00d);
    std::uint64_t max_refreshes = 0;
    for (int trial = 0; trial < 24; ++trial) {
        DimmConfig cfg = tableIiConfig();
        cfg.bankGroups = 1 + static_cast<std::uint32_t>(rng.below(4));
        cfg.banksPerGroup =
            1 + static_cast<std::uint32_t>(rng.below(8));
        const std::uint64_t rows = std::uint64_t{1} << rng.below(4);
        const std::uint64_t max_bursts =
            trial % 3 == 0 ? 128 : 1 + rng.below(128);
        const std::size_t count =
            trial == 0 ? 600 : 1 + static_cast<std::size_t>(
                                       rng.below(600));
        std::vector<RowRead> reads;
        for (std::size_t i = 0; i < count; ++i) {
            RowRead read;
            read.bankGroup =
                static_cast<std::uint32_t>(rng.below(cfg.bankGroups));
            read.bank = static_cast<std::uint32_t>(
                rng.below(cfg.banksPerGroup));
            read.row = rng.below(rows);
            read.bursts = trial == 0
                              ? 128
                              : 1 + static_cast<std::uint32_t>(
                                        rng.below(max_bursts));
            reads.push_back(read);
        }
        for (const std::uint32_t window : {1u, 4u, 16u, 64u}) {
            for (const bool fcfs : {false, true}) {
                RankController controller(cfg);
                controller.setWindow(window);
                controller.setFcfs(fcfs);
                const ControllerStats fast = controller.simulate(reads);
                const ControllerStats slow =
                    referenceSimulate(cfg, window, fcfs, reads);
                expectSameStats(
                    fast, slow,
                    "trial " + std::to_string(trial) + " (" +
                        std::to_string(cfg.bankGroups) + "x" +
                        std::to_string(cfg.banksPerGroup) + " banks, " +
                        std::to_string(count) + " reads, window " +
                        std::to_string(window) +
                        (fcfs ? ", fcfs)" : ")"));
                max_refreshes = std::max(max_refreshes, slow.refreshes);
            }
        }
    }
    EXPECT_GE(max_refreshes, 10u);
}

TEST(Controller, ReadOutsideGeometryThrowsNamingIt)
{
    const DimmConfig cfg = tableIiConfig();
    RankController controller(cfg);
    EXPECT_THROW(controller.simulate({RowRead{cfg.bankGroups, 0, 0, 1}}),
                 std::invalid_argument);
    try {
        controller.simulate(
            {RowRead{0, 0, 0, 1}, RowRead{1, cfg.banksPerGroup, 0, 1}});
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("bank group 1, bank 4"), std::string::npos)
            << what;
    }
}

TEST(Probe, ScatteredRowsNearSequential)
{
    // With 8 banks hiding tRC, scattered full-row reads should land
    // within a few percent of the sequential stream.
    DimmConfig cfg = tableIiConfig();
    BandwidthProbe probe(cfg);
    const double seq = probe.rankBandwidth(AccessPattern::SequentialRows);
    const double scat =
        probe.rankBandwidth(AccessPattern::ScatteredRows);
    EXPECT_GT(scat, 0.9 * seq);
}

TEST(Probe, ScatteredBurstsAreRowMissBound)
{
    DimmConfig cfg = tableIiConfig();
    BandwidthProbe probe(cfg);
    const double bursts =
        probe.rankBandwidth(AccessPattern::ScatteredBursts);
    const double rows = probe.rankBandwidth(AccessPattern::ScatteredRows);
    EXPECT_LT(bursts, 0.5 * rows);
    EXPECT_GT(bursts, 0.0);
}

TEST(Probe, InternalBandwidthScalesWithRankParallelism)
{
    DimmConfig one = tableIiConfig();
    one.rankParallelism = 1;
    DimmConfig four = tableIiConfig();
    four.rankParallelism = 4;
    BandwidthProbe probe_one(one);
    BandwidthProbe probe_four(four);
    const double bw1 =
        probe_one.internalBandwidth(AccessPattern::ScatteredRows);
    const double bw4 =
        probe_four.internalBandwidth(AccessPattern::ScatteredRows);
    EXPECT_NEAR(bw4 / bw1, 4.0, 1e-9);
}

TEST(Probe, StreamTimeLinearInBytes)
{
    DimmConfig cfg = tableIiConfig();
    BandwidthProbe probe(cfg);
    const Seconds t1 =
        probe.streamTime(1 * kMiB, AccessPattern::ScatteredRows);
    const Seconds t2 =
        probe.streamTime(2 * kMiB, AccessPattern::ScatteredRows);
    EXPECT_NEAR(t2, 2.0 * t1, 1e-12);
    EXPECT_DOUBLE_EQ(
        probe.streamTime(0, AccessPattern::ScatteredRows), 0.0);
}

TEST(Probe, CachingReturnsIdenticalValues)
{
    DimmConfig cfg = tableIiConfig();
    BandwidthProbe probe(cfg);
    const double a = probe.rankBandwidth(AccessPattern::ScatteredRows);
    const double b = probe.rankBandwidth(AccessPattern::ScatteredRows);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(Probe, SlowerBinYieldsLowerBandwidth)
{
    DimmConfig fast = tableIiConfig();
    DimmConfig slow = tableIiConfig();
    slow.timing = ddr4_2400();
    BandwidthProbe fast_probe(fast);
    BandwidthProbe slow_probe(slow);
    EXPECT_LT(slow_probe.rankBandwidth(AccessPattern::SequentialRows),
              fast_probe.rankBandwidth(AccessPattern::SequentialRows));
}

TEST(Probe, DefaultConfigBandwidthIsPinned)
{
    // Bit patterns of the default-config probe, as recorded before
    // the O(window) scheduler rewrite: the scheduler may get faster,
    // never different.
    BandwidthProbe probe(tableIiConfig());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  probe.rankBandwidth(AccessPattern::SequentialRows)),
              0x4216c6085e04f127ull);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  probe.rankBandwidth(AccessPattern::ScatteredRows)),
              0x4216510a84b57b96ull);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  probe.rankBandwidth(AccessPattern::ScatteredBursts)),
              0x41feba952f86d8dbull);
}

TEST(Probe, SimulatesEachPatternOnce)
{
    BandwidthProbe probe(tableIiConfig());
    EXPECT_EQ(probe.simulations(), 0u);
    probe.streamTime(kMiB, AccessPattern::ScatteredRows);
    probe.internalBandwidth(AccessPattern::ScatteredRows);
    EXPECT_EQ(probe.simulations(), 1u);
    probe.rankBandwidth(AccessPattern::SequentialRows);
    probe.rankBandwidth(AccessPattern::SequentialRows, 64);
    EXPECT_EQ(probe.simulations(), 3u);
}

TEST(Probe, UnknownPatternThrows)
{
    BandwidthProbe probe(tableIiConfig());
    EXPECT_THROW(probe.rankBandwidth(static_cast<AccessPattern>(99)),
                 std::invalid_argument);
    EXPECT_EQ(probe.simulations(), 0u);
}

/** No pattern may exceed the physical pin bandwidth. */
class ProbePatternTest
    : public ::testing::TestWithParam<AccessPattern>
{
};

TEST_P(ProbePatternTest, BandwidthWithinPhysicalBounds)
{
    DimmConfig cfg = tableIiConfig();
    BandwidthProbe probe(cfg);
    const double bw = probe.rankBandwidth(GetParam());
    EXPECT_GT(bw, 0.0);
    EXPECT_LE(bw, cfg.rankPeakBandwidth() * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, ProbePatternTest,
                         ::testing::Values(
                             AccessPattern::SequentialRows,
                             AccessPattern::ScatteredRows,
                             AccessPattern::ScatteredBursts));

} // namespace
} // namespace hermes::dram
