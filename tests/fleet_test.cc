/** @file runChips batches and FleetExecutor streaming fleets — solo
 * bit-exactness, worker-count determinism, error propagation, work
 * stealing, and snapshot/clone warm-start equivalence on every
 * scheduler backend. */

#include <gtest/gtest.h>

#include <any>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/app_harness.hh"
#include "apps/app_registry.hh"
#include "apps/pipeline_runner.hh"
#include "apps/wifi_runner.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "sim/fleet.hh"
#include "test_util.hh"

using namespace synchro;
using namespace synchro::arch;
using synchro::isa::assemble;
using synchro::test::allStats;
using synchro::test::singleColumnChip;

namespace
{

constexpr unsigned SumInputs = 16;
constexpr uint32_t SumInBase = 0x0000;
constexpr uint32_t SumOutBase = 0x0100;

/** The synthetic item input: SumInputs small positive halves. */
std::vector<int16_t>
sumInput(uint32_t base_seed, uint64_t item)
{
    Rng rng(sim::fleetItemSeed(base_seed, item));
    std::vector<int16_t> h(SumInputs);
    for (auto &v : h)
        v = int16_t(rng.below(100));
    return h;
}

/**
 * A minimal single-column workload — sum SumInputs halves from SRAM
 * into one output half — whose data path still exercises the full
 * fleet contract: restart, SRAM wipe, per-item refeed, golden
 * verification.
 */
sim::FleetWorkload
sumWorkload(uint32_t base_seed)
{
    sim::FleetWorkload wl;
    wl.name = "sum";
    wl.tick_limit = 100'000;
    wl.build = [](SchedulerKind kind) {
        ChipConfig cfg;
        cfg.dividers = {1};
        cfg.tiles_per_column = 1;
        cfg.scheduler = kind;
        auto chip = std::make_unique<Chip>(cfg);
        chip->column(0).controller().loadProgram(
            assemble(strprintf(R"(
            movpi p0, %u
            movpi p1, %u
            movi r0, 0
            lsetup lc0, e, %u
            ld.h r1, [p0]+2
            add r0, r0, r1
        e:
            st.h r0, [p1]+2
            halt
        )",
                               SumInBase, SumOutBase, SumInputs)));
        return chip;
    };
    wl.feed = [base_seed](Chip &chip, uint64_t item) {
        chip.restart();
        Tile &tile = chip.column(0).tile(0);
        tile.clearMem();
        tile.writeMemHalves(SumInBase, sumInput(base_seed, item));
    };
    wl.read_output = [](Chip &chip) {
        return apps::bytesOfHalves(
            chip.column(0).tile(0).readMemHalves(SumOutBase, 1));
    };
    wl.golden = [base_seed](uint64_t item) {
        int16_t sum = 0;
        for (int16_t v : sumInput(base_seed, item))
            sum = int16_t(sum + v);
        return apps::bytesOfHalves({sum});
    };
    return wl;
}

/**
 * A three-column variant of sumWorkload on mixed dividers (1/2/3),
 * so the Compiled backend's per-domain window walk sees columns
 * whose edges interleave.
 */
sim::FleetWorkload
mixedSumWorkload(uint32_t base_seed)
{
    sim::FleetWorkload wl;
    wl.name = "mixedsum";
    wl.tick_limit = 100'000;
    wl.build = [](SchedulerKind kind) {
        ChipConfig cfg;
        cfg.dividers = {1, 2, 3};
        cfg.tiles_per_column = 1;
        cfg.scheduler = kind;
        auto chip = std::make_unique<Chip>(cfg);
        for (unsigned c = 0; c < 3; ++c) {
            chip->column(c).controller().loadProgram(
                assemble(strprintf(R"(
                movpi p0, %u
                movpi p1, %u
                movi r0, 0
                lsetup lc0, e, %u
                ld.h r1, [p0]+2
                add r0, r0, r1
            e:
                st.h r0, [p1]+2
                halt
            )",
                                   SumInBase, SumOutBase,
                                   SumInputs)));
        }
        return chip;
    };
    wl.feed = [base_seed](Chip &chip, uint64_t item) {
        chip.restart();
        for (unsigned c = 0; c < 3; ++c) {
            Tile &tile = chip.column(c).tile(0);
            tile.clearMem();
            tile.writeMemHalves(
                SumInBase, sumInput(base_seed + 31 * c, item));
        }
    };
    wl.read_output = [](Chip &chip) {
        std::vector<int16_t> sums;
        for (unsigned c = 0; c < 3; ++c) {
            auto h =
                chip.column(c).tile(0).readMemHalves(SumOutBase, 1);
            sums.push_back(h[0]);
        }
        return apps::bytesOfHalves(sums);
    };
    wl.golden = [base_seed](uint64_t item) {
        std::vector<int16_t> sums;
        for (unsigned c = 0; c < 3; ++c) {
            int16_t sum = 0;
            for (int16_t v : sumInput(base_seed + 31 * c, item))
                sum = int16_t(sum + v);
            sums.push_back(sum);
        }
        return apps::bytesOfHalves(sums);
    };
    return wl;
}

/** A chip whose every column counts to @p count, then halts. */
std::unique_ptr<Chip>
countingChip(const ChipConfig &cfg, unsigned count)
{
    const isa::Program prog = assemble(strprintf(R"(
        movi r0, 0
        lsetup lc0, e, %u
        addi r0, 1
    e:
        halt
    )",
                                                 count));
    auto chip = std::make_unique<Chip>(cfg);
    for (unsigned c = 0; c < chip->numColumns(); ++c)
        chip->column(c).controller().loadProgram(prog);
    return chip;
}

constexpr const char *Spin = R"(
spin:
    jump spin
)";

constexpr const char *SetThree = R"(
    movi r0, 3
    halt
)";

/** Falls off the program end: the controller fatal()s. */
constexpr const char *NoHalt = R"(
    movi r0, 1
)";

/** A batch running every chip of @p chips for @p budget ticks. */
std::vector<sim::ChipRun>
batchOf(const std::vector<std::unique_ptr<Chip>> &chips, Tick budget)
{
    std::vector<sim::ChipRun> batch;
    for (const auto &chip : chips)
        batch.push_back({chip.get(), budget, {}});
    return batch;
}

} // namespace

TEST(RunChips, RunsEveryChipToCompletion)
{
    std::vector<std::unique_ptr<Chip>> chips;
    for (unsigned i = 0; i < 6; ++i) {
        ChipConfig cfg;
        cfg.dividers = {1u + i % 4, 2u + i % 3};
        cfg.tiles_per_column = 1 + i % 4;
        chips.push_back(countingChip(cfg, 50 + 13 * i));
    }
    auto batch = batchOf(chips, 1'000'000);
    sim::runChips(batch);
    for (unsigned i = 0; i < 6; ++i) {
        EXPECT_EQ(int(batch[i].result.exit), int(RunExit::AllHalted))
            << i;
        EXPECT_EQ(chips[i]->column(0).tile(0).reg(0), 50u + 13 * i);
    }
}

TEST(RunChips, HeterogeneousBatchDeterministicAcrossThreadCounts)
{
    // The same heterogeneous batch — mixed dividers, schedulers and
    // per-chip budgets — run under different pool widths must
    // produce identical per-chip ticks and statistics.
    auto run = [](unsigned threads) {
        std::vector<std::unique_ptr<Chip>> chips;
        std::vector<sim::ChipRun> batch;
        for (unsigned i = 0; i < 9; ++i) {
            ChipConfig cfg;
            cfg.dividers = {1u + i % 5, 2u + i % 4};
            cfg.tiles_per_column = 1 + i % 4;
            cfg.scheduler = i % 2 ? SchedulerKind::EventQueue
                                  : SchedulerKind::Compiled;
            chips.push_back(countingChip(cfg, 40 + 17 * i));
            batch.push_back({chips.back().get(),
                             i % 3 == 0 ? 200 + 100 * i : 1'000'000,
                             {}});
        }
        sim::runChips(batch, threads);
        return std::make_pair(std::move(chips), batch);
    };

    auto [serial_chips, serial] = run(1);
    auto [wide_chips, wide] = run(4);
    ASSERT_EQ(serial.size(), wide.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(int(wide[i].result.exit), int(serial[i].result.exit))
            << i;
        EXPECT_EQ(wide[i].result.ticks, serial[i].result.ticks) << i;
        EXPECT_EQ(allStats(*wide_chips[i]), allStats(*serial_chips[i]))
            << i;
    }
}

TEST(RunChips, MixedSchedulerBackendsAgree)
{
    // A batch may mix backends chip by chip; both halves of a
    // mirrored pair must produce identical results.
    std::vector<std::unique_ptr<Chip>> chips;
    for (auto kind :
         {SchedulerKind::EventQueue, SchedulerKind::Compiled}) {
        ChipConfig cfg;
        cfg.dividers = {8, 8, 4, 2};
        cfg.scheduler = kind;
        chips.push_back(countingChip(cfg, 400));
    }
    auto batch = batchOf(chips, 1'000'000);
    sim::runChips(batch);
    EXPECT_EQ(batch[0].result.ticks, batch[1].result.ticks);
    EXPECT_EQ(allStats(*chips[0]), allStats(*chips[1]));
}

TEST(RunChips, PerChipBudgetsGovern)
{
    std::vector<std::unique_ptr<Chip>> chips;
    for (unsigned i = 0; i < 3; ++i)
        chips.push_back(singleColumnChip(Spin, 1));
    std::vector<sim::ChipRun> batch = {{chips[0].get(), 100, {}},
                                       {chips[1].get(), 500, {}},
                                       {chips[2].get(), 50, {}}};
    sim::runChips(batch, 3);
    EXPECT_EQ(batch[0].result.ticks, 100u);
    EXPECT_EQ(batch[1].result.ticks, 500u);
    EXPECT_EQ(batch[2].result.ticks, 50u);
}

TEST(RunChips, RepeatedRunsAccumulateTime)
{
    std::vector<std::unique_ptr<Chip>> chips;
    chips.push_back(singleColumnChip(Spin, 1));
    auto batch = batchOf(chips, 100);
    sim::runChips(batch);
    EXPECT_EQ(batch[0].result.ticks, 100u);
    sim::runChips(batch);
    EXPECT_EQ(batch[0].result.ticks, 200u);
}

TEST(RunChips, EmptyBatchIsHarmless)
{
    std::vector<sim::ChipRun> batch;
    sim::runChips(batch);
    sim::runChips(batch, 4);
    EXPECT_TRUE(batch.empty());
}

TEST(RunChips, SingleChipRunsInlineAndSurfacesErrors)
{
    // One chip needs no pool: it runs on the caller's thread, and a
    // fatal() from inside the chip arrives as FatalError.
    std::vector<std::unique_ptr<Chip>> chips;
    chips.push_back(singleColumnChip(SetThree, 1));
    auto batch = batchOf(chips, 1'000);
    sim::runChips(batch, 4);
    EXPECT_EQ(int(batch[0].result.exit), int(RunExit::AllHalted));
    EXPECT_EQ(chips[0]->column(0).tile(0).reg(0), 3u);

    std::vector<std::unique_ptr<Chip>> bad;
    bad.push_back(singleColumnChip(NoHalt, 1));
    auto bad_batch = batchOf(bad, 1'000);
    EXPECT_THROW(sim::runChips(bad_batch, 4), FatalError);
}

TEST(RunChips, ErrorInPoolIsRethrownAfterWorkersStop)
{
    // One chip of an 8-chip, 4-worker batch has no halt: its fatal()
    // must reach the caller, and only after every worker stopped —
    // the chips are safe to inspect once runChips has thrown.
    std::vector<std::unique_ptr<Chip>> chips;
    for (unsigned i = 0; i < 8; ++i)
        chips.push_back(singleColumnChip(i == 5 ? NoHalt : Spin, 1));
    auto batch = batchOf(chips, 2'000);
    EXPECT_THROW(sim::runChips(batch, 4), FatalError);
    for (const auto &chip : chips)
        EXPECT_LE(chip->curTick(), 2'000u);
}

TEST(Fleet, StreamsMatchSoloRunsBitExactly)
{
    // Every item served through the fleet must equal a solo run of
    // the same item on a fresh chip — the golden hook *is* that
    // solo-derived truth, and all_verified asserts it item by item.
    sim::FleetConfig fc;
    fc.workers = 3;
    fc.keep_outputs = true;
    sim::FleetExecutor fleet(fc);
    unsigned w = fleet.addWorkload(sumWorkload(7));

    fleet.admitStream(w, 4, 0);
    fleet.admitStream(w, 1, 4);
    fleet.admitStream(w, 3, 5);
    sim::FleetReport rep = fleet.drain();

    EXPECT_TRUE(rep.all_verified);
    EXPECT_EQ(rep.streams, 3u);
    EXPECT_EQ(rep.items, 8u);
    EXPECT_EQ(rep.clones, 3u);
    EXPECT_EQ(rep.totals.halted, 8u);
    ASSERT_EQ(rep.stream_results.size(), 3u);

    // And independently: each kept output equals a from-scratch chip
    // run of that item, outside the fleet entirely.
    sim::FleetWorkload wl = sumWorkload(7);
    for (const auto &s : rep.stream_results) {
        ASSERT_EQ(s.outputs.size(), s.items);
        EXPECT_EQ(s.first_failure, "");
        for (uint64_t i = 0; i < s.items; ++i) {
            auto solo = wl.build(defaultSchedulerKind());
            wl.feed(*solo, s.item_base + i);
            ASSERT_EQ(int(solo->run(wl.tick_limit).exit),
                      int(RunExit::AllHalted));
            EXPECT_EQ(s.outputs[i], wl.read_output(*solo))
                << "stream item " << s.item_base + i;
        }
    }
}

TEST(Fleet, DeterministicAcrossWorkerCounts)
{
    // The same streams served by 1 worker and by 4 must produce
    // identical per-stream outputs and identical merged counters —
    // scheduling freedom must never leak into results.
    auto serve = [](unsigned workers) {
        sim::FleetConfig fc;
        fc.workers = workers;
        fc.keep_outputs = true;
        sim::FleetExecutor fleet(fc);
        unsigned w = fleet.addWorkload(sumWorkload(21));
        for (unsigned s = 0; s < 6; ++s)
            fleet.admitStream(w, 1 + s % 3, 10 * s);
        return fleet.drain();
    };

    sim::FleetReport serial = serve(1);
    sim::FleetReport wide = serve(4);
    EXPECT_TRUE(serial.all_verified);
    EXPECT_TRUE(wide.all_verified);
    ASSERT_EQ(wide.stream_results.size(),
              serial.stream_results.size());
    for (size_t i = 0; i < serial.stream_results.size(); ++i) {
        EXPECT_EQ(wide.stream_results[i].outputs,
                  serial.stream_results[i].outputs)
            << i;
        EXPECT_EQ(wide.stream_results[i].ticks,
                  serial.stream_results[i].ticks)
            << i;
    }
    EXPECT_EQ(wide.totals.counters, serial.totals.counters);
    EXPECT_EQ(wide.totals.total_ticks, serial.totals.total_ticks);
}

TEST(Fleet, SixtyFourStreamSmoke)
{
    // The CI sanitize/TSan smoke: a 64-stream fleet across many
    // workers, every stream verified.
    sim::FleetConfig fc;
    fc.workers = 8;
    sim::FleetExecutor fleet(fc);
    unsigned w = fleet.addWorkload(sumWorkload(64));
    for (unsigned s = 0; s < 64; ++s)
        fleet.admitStream(w, 2, 2 * s);
    sim::FleetReport rep = fleet.drain();
    EXPECT_TRUE(rep.all_verified);
    EXPECT_EQ(rep.streams, 64u);
    EXPECT_EQ(rep.items, 128u);
    EXPECT_GT(rep.chips_per_sec, 0.0);
    EXPECT_GT(rep.ticks_per_sec, 0.0);
    EXPECT_EQ(rep.items_by_worker.size(), 8u);
}

TEST(Fleet, WorkStealingDrainsSkewedStreams)
{
    // Deterministic steal setup: gate both workers inside a blocked
    // feed, queue real work behind them, then release one worker —
    // it must finish its gated item and STEAL the queued streams
    // while the other worker is still blocked.
    std::promise<void> release_first, release_second;
    std::shared_future<void> first(release_first.get_future());
    std::shared_future<void> second(release_second.get_future());

    sim::FleetConfig fc;
    fc.workers = 2;
    fc.keep_outputs = true;
    sim::FleetExecutor fleet(fc);

    sim::FleetWorkload gated = sumWorkload(3);
    auto inner_feed = gated.feed;
    gated.feed = [inner_feed, first, second](Chip &chip,
                                             uint64_t item) {
        (item == 0 ? first : second)
            .wait_for(std::chrono::seconds(30));
        inner_feed(chip, item);
    };
    unsigned g = fleet.addWorkload(gated);
    unsigned w = fleet.addWorkload(sumWorkload(5));

    // Two 1-item gated streams occupy both workers...
    fleet.admitStream(g, 1, 0);
    fleet.admitStream(g, 1, 1);
    // ...then real work queues up behind them.
    fleet.admitStream(w, 3, 0);
    fleet.admitStream(w, 1, 3);

    // Release only the second gate: exactly one worker wakes and
    // must cross deques for at least one of the queued streams.
    release_second.set_value();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    release_first.set_value();

    sim::FleetReport rep = fleet.drain();
    EXPECT_TRUE(rep.all_verified);
    EXPECT_EQ(rep.items, 6u);
    EXPECT_GE(rep.steals, 1u);
}

TEST(Fleet, FailuresAreRecordedNotThrown)
{
    sim::FleetConfig fc;
    fc.workers = 2;
    sim::FleetExecutor fleet(fc);

    sim::FleetWorkload bad = sumWorkload(9);
    bad.name = "bad";
    bad.golden = [](uint64_t) {
        return std::vector<uint8_t>{0xde, 0xad};
    };
    unsigned b = fleet.addWorkload(bad);
    unsigned ok = fleet.addWorkload(sumWorkload(9));
    fleet.admitStream(b, 2, 0);
    fleet.admitStream(ok, 2, 0);

    sim::FleetReport rep = fleet.drain();
    EXPECT_FALSE(rep.all_verified);
    ASSERT_EQ(rep.stream_results.size(), 2u);
    EXPECT_GT(rep.stream_results[0].mismatches, 0u);
    EXPECT_NE(rep.stream_results[0].first_failure, "");
    EXPECT_EQ(rep.stream_results[1].mismatches, 0u);
    EXPECT_EQ(rep.stream_results[1].first_failure, "");
}

TEST(Fleet, AddWorkloadWhileServingIsSafe)
{
    // Workload registration must be safe while workers are already
    // serving earlier streams: workload storage is
    // reallocation-stable, so the references/pointers serving
    // workers hold survive every push_back. Register-admit in a
    // tight loop so serving overlaps registration (TSan covers the
    // race in CI).
    sim::FleetConfig fc;
    fc.workers = 4;
    sim::FleetExecutor fleet(fc);

    constexpr unsigned Rounds = 12;
    for (unsigned r = 0; r < Rounds; ++r) {
        unsigned w = fleet.addWorkload(sumWorkload(100 + r));
        fleet.admitStream(w, 3, 7 * r);
        // References handed out before later registrations must
        // remain valid afterwards.
        EXPECT_EQ(fleet.workload(w).name, "sum");
        EXPECT_EQ(fleet.templateChip(w).curTick(), 0u);
    }

    sim::FleetReport rep = fleet.drain();
    EXPECT_TRUE(rep.all_verified);
    EXPECT_EQ(rep.streams, Rounds);
    EXPECT_EQ(rep.items, 3u * Rounds);
    EXPECT_EQ(rep.clones, Rounds);
}

TEST(Fleet, ThrowingFeedAbandonsStreamWithoutDeadlockingDrain)
{
    // A hook that throws mid-stream abandons the rest of that stream;
    // the skipped items must still be credited or drain() waits
    // forever for work no worker will ever pick up. Cover both the
    // worst case (throw on item 0, nothing served) and a mid-stream
    // throw, with a healthy stream riding alongside.
    sim::FleetConfig fc;
    fc.workers = 2;
    sim::FleetExecutor fleet(fc);

    sim::FleetWorkload first = sumWorkload(17);
    first.name = "throws-first";
    auto inner = first.feed;
    first.feed = [inner](Chip &chip, uint64_t item) {
        if (item < 100)
            throw std::runtime_error("feed rejected item");
        inner(chip, item);
    };
    sim::FleetWorkload mid = sumWorkload(17);
    mid.name = "throws-mid";
    mid.feed = [inner](Chip &chip, uint64_t item) {
        if (item == 1)
            throw std::runtime_error("feed rejected item");
        inner(chip, item);
    };
    unsigned f = fleet.addWorkload(first);
    unsigned m = fleet.addWorkload(mid);
    unsigned ok = fleet.addWorkload(sumWorkload(17));
    fleet.admitStream(f, 3, 0);  // throws on its first item
    fleet.admitStream(m, 4, 0);  // serves item 0, throws on item 1
    fleet.admitStream(ok, 2, 0); // unaffected

    sim::FleetReport rep = fleet.drain();
    EXPECT_FALSE(rep.all_verified);
    // Items 'served' = pickups that ran (including the two throwing
    // ones); the rest of each broken stream was abandoned.
    EXPECT_EQ(rep.items, 5u);
    EXPECT_EQ(rep.items_abandoned, 4u);
    ASSERT_EQ(rep.stream_results.size(), 3u);

    EXPECT_EQ(rep.stream_results[0].items_done, 0u);
    EXPECT_NE(rep.stream_results[0].first_failure.find(
                  "feed rejected item"),
              std::string::npos);
    EXPECT_EQ(rep.stream_results[1].items_done, 1u);
    EXPECT_NE(rep.stream_results[1].first_failure, "");
    EXPECT_EQ(rep.stream_results[2].items_done, 2u);
    EXPECT_EQ(rep.stream_results[2].mismatches, 0u);
    EXPECT_EQ(rep.stream_results[2].first_failure, "");

    // The fleet is still serviceable after the failures: a fresh
    // healthy stream admitted post-drain drains clean.
    fleet.admitStream(ok, 1, 50);
    sim::FleetReport rep2 = fleet.drain();
    EXPECT_EQ(rep2.items, 6u);
    EXPECT_EQ(rep2.stream_results[3].items_done, 1u);
    EXPECT_EQ(rep2.stream_results[3].first_failure, "");
}

TEST(Fleet, MappedDdcStreamsMatchSoloRuns)
{
    // The tentpole end-to-end: a mapped DDC fleet, each stream's
    // items golden-verified inside the fleet, then re-checked
    // against one runChips batch of solo warm-start clones.
    apps::DdcPipelineParams p;
    p.samples = 64;
    sim::FleetConfig fc;
    fc.workers = 4;
    fc.keep_outputs = true;
    sim::FleetExecutor fleet(fc);
    unsigned w = fleet.addWorkload(
        apps::AppRegistry::instance().at("ddc").fleet(p));

    fleet.admitStream(w, 2, 0);
    fleet.admitStream(w, 1, 2);
    fleet.admitStream(w, 2, 3);
    sim::FleetReport rep = fleet.drain();
    EXPECT_TRUE(rep.all_verified);
    EXPECT_EQ(rep.items, 5u);

    const sim::FleetWorkload &wl = fleet.workload(w);
    std::vector<std::unique_ptr<Chip>> chips;
    std::vector<sim::ChipRun> batch;
    std::vector<std::vector<uint8_t>> expect;
    for (const auto &s : rep.stream_results) {
        for (uint64_t i = 0; i < s.items; ++i) {
            chips.push_back(fleet.templateChip(w).clone());
            wl.feed(*chips.back(), s.item_base + i);
            batch.push_back({chips.back().get(), wl.tick_limit, {}});
            expect.push_back(s.outputs[i]);
        }
    }
    sim::runChips(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(int(batch[i].result.exit), int(RunExit::AllHalted));
        EXPECT_EQ(wl.read_output(*chips[i]), expect[i]) << i;
    }
}

TEST(Fleet, CloneMatchesFreshBuildOnEveryBackend)
{
    // Chip::clone of a programmed chip must be indistinguishable
    // from re-running codegen + program load, on both
    // scheduler backends: same outputs, same final tick, same
    // statistics — both straight from the template images and after
    // a per-item refeed.
    apps::DdcPipelineParams dp;
    dp.samples = 64;
    apps::WifiPipelineParams wp;
    wp.symbols = 2;
    const apps::AppRegistry &reg = apps::AppRegistry::instance();
    std::vector<sim::FleetWorkload> workloads = {
        reg.at("ddc").fleet(dp), reg.at("wifi").fleet(wp)};

    for (const sim::FleetWorkload &wl : workloads) {
        for (SchedulerKind kind : synchro::test::AllSchedulerKinds) {
            SCOPED_TRACE(std::string(wl.name) + " on " +
                         schedulerName(kind));
            auto fresh = wl.build(kind);
            auto donor = wl.build(kind);
            auto cloned = donor->clone();

            auto rf = fresh->run(wl.tick_limit);
            auto rc = cloned->run(wl.tick_limit);
            EXPECT_EQ(int(rc.exit), int(rf.exit));
            EXPECT_EQ(rc.ticks, rf.ticks);
            EXPECT_EQ(wl.read_output(*cloned),
                      wl.read_output(*fresh));
            EXPECT_EQ(allStats(*cloned), allStats(*fresh));

            // Warm path: refeed an item into a clone vs a fresh
            // build fed the same item.
            auto fresh2 = wl.build(kind);
            auto cloned2 = donor->clone();
            wl.feed(*fresh2, 3);
            wl.feed(*cloned2, 3);
            auto rf2 = fresh2->run(wl.tick_limit);
            auto rc2 = cloned2->run(wl.tick_limit);
            EXPECT_EQ(int(rc2.exit), int(rf2.exit));
            EXPECT_EQ(rc2.ticks, rf2.ticks);
            EXPECT_EQ(wl.read_output(*cloned2),
                      wl.read_output(*fresh2));
            EXPECT_EQ(allStats(*cloned2), allStats(*fresh2));
        }
    }
}

TEST(Fleet, CloneCanRehomeAcrossBackends)
{
    // clone(kind) re-homes the snapshot on a different scheduler
    // backend; results must still match the original backend.
    sim::FleetWorkload wl = sumWorkload(11);
    auto donor = wl.build(SchedulerKind::EventQueue);
    auto moved = donor->clone(SchedulerKind::Compiled);
    EXPECT_EQ(int(moved->schedulerKind()),
              int(SchedulerKind::Compiled));

    auto ref = donor->clone();
    wl.feed(*ref, 1);
    wl.feed(*moved, 1);
    auto rr = ref->run(wl.tick_limit);
    auto rm = moved->run(wl.tick_limit);
    EXPECT_EQ(int(rm.exit), int(rr.exit));
    EXPECT_EQ(rm.ticks, rr.ticks);
    EXPECT_EQ(wl.read_output(*moved), wl.read_output(*ref));
}

TEST(Fleet, MixedDividerFleetMatchesEventQueue)
{
    // A Compiled fleet serving mixed-divider chips from two workers
    // must produce exactly what an event-queue fleet does on the
    // same streams.
    auto serve = [](SchedulerKind kind) {
        sim::FleetConfig fc;
        fc.workers = 2;
        fc.scheduler = kind;
        fc.keep_outputs = true;
        sim::FleetExecutor fleet(fc);
        unsigned w = fleet.addWorkload(mixedSumWorkload(41));
        for (unsigned s = 0; s < 4; ++s)
            fleet.admitStream(w, 2, 3 * s);
        return fleet.drain();
    };

    sim::FleetReport co = serve(SchedulerKind::Compiled);
    sim::FleetReport eq = serve(SchedulerKind::EventQueue);
    EXPECT_TRUE(co.all_verified);
    EXPECT_TRUE(eq.all_verified);
    ASSERT_EQ(co.stream_results.size(), eq.stream_results.size());
    for (size_t i = 0; i < eq.stream_results.size(); ++i) {
        EXPECT_EQ(co.stream_results[i].outputs,
                  eq.stream_results[i].outputs)
            << i;
        EXPECT_EQ(co.stream_results[i].ticks,
                  eq.stream_results[i].ticks)
            << i;
    }
    EXPECT_EQ(co.totals.counters, eq.totals.counters);
    EXPECT_EQ(co.totals.total_ticks, eq.totals.total_ticks);
}

TEST(Fleet, MixedDividerCloneRehomesBitExactly)
{
    // A clone of a Compiled chip re-homed onto the event queue must
    // be bit-identical to a clone that kept its backend — the
    // snapshot carries no backend-specific state.
    sim::FleetWorkload wl = mixedSumWorkload(23);
    auto donor = wl.build(SchedulerKind::Compiled);
    auto moved = donor->clone(SchedulerKind::EventQueue);
    EXPECT_EQ(int(moved->schedulerKind()),
              int(SchedulerKind::EventQueue));

    auto kept = donor->clone();
    EXPECT_EQ(int(kept->schedulerKind()),
              int(SchedulerKind::Compiled));
    wl.feed(*kept, 1);
    wl.feed(*moved, 1);
    auto rk = kept->run(wl.tick_limit);
    auto rm = moved->run(wl.tick_limit);
    EXPECT_EQ(int(rm.exit), int(rk.exit));
    EXPECT_EQ(rm.ticks, rk.ticks);
    EXPECT_EQ(wl.read_output(*moved), wl.read_output(*kept));
    EXPECT_EQ(allStats(*moved), allStats(*kept));
}

TEST(Fleet, CloneAfterRunningIsRejected)
{
    sim::FleetWorkload wl = sumWorkload(13);
    auto chip = wl.build(defaultSchedulerKind());
    ASSERT_EQ(int(chip->run(wl.tick_limit).exit),
              int(RunExit::AllHalted));
    EXPECT_THROW(chip->clone(), FatalError);

    // restart() rewinds to tick 0, after which snapshots are legal
    // again.
    chip->restart();
    wl.feed(*chip, 0);
    auto again = chip->clone();
    EXPECT_EQ(int(again->run(wl.tick_limit).exit),
              int(RunExit::AllHalted));
}

namespace
{

/** Every gated tile of @p chip owns no SRAM and reads as zeros. */
void
expectGatedTilesOwnNoSram(const Chip &chip)
{
    for (unsigned c = 0; c < chip.numColumns(); ++c) {
        const Column &col = chip.column(c);
        for (unsigned t = 0; t < col.numTiles(); ++t) {
            if (col.tileActive(t))
                continue;
            EXPECT_FALSE(col.tile(t).hasMem()) << c << "," << t;
            EXPECT_EQ(col.tile(t).readMemWords(0, 2),
                      (std::vector<int32_t>{0, 0}))
                << c << "," << t;
        }
    }
}

/** One registry fleet view per app, at test-sized shapes. */
std::vector<sim::FleetWorkload>
registryWorkloads()
{
    apps::DdcPipelineParams dp;
    dp.samples = 64;
    apps::WifiPipelineParams wp;
    wp.symbols = 2;
    const apps::AppRegistry &reg = apps::AppRegistry::instance();
    std::vector<sim::FleetWorkload> out;
    for (const std::string &name : reg.names()) {
        std::any params;
        if (name == "ddc")
            params = dp;
        else if (name == "wifi")
            params = wp;
        out.push_back(reg.at(name).fleet(params));
    }
    return out;
}

} // namespace

TEST(Fleet, GatedTilesOwnNoSramInTemplatesAndClones)
{
    // Supply-gated tiles hold no state, so neither a registry
    // template nor its clone allocates their SRAM — not at load,
    // not after serving an item.
    for (const sim::FleetWorkload &wl : registryWorkloads()) {
        SCOPED_TRACE(wl.name);
        auto tmpl = wl.build(defaultSchedulerKind());
        unsigned gated = 0;
        for (unsigned c = 0; c < tmpl->numColumns(); ++c) {
            for (unsigned t = 0; t < tmpl->column(c).numTiles(); ++t)
                gated += !tmpl->column(c).tileActive(t);
        }
        EXPECT_GT(gated, 0u);
        expectGatedTilesOwnNoSram(*tmpl);

        auto chip = tmpl->clone();
        expectGatedTilesOwnNoSram(*chip);
        wl.feed(*chip, 1);
        ASSERT_EQ(int(chip->run(wl.tick_limit).exit),
                  int(RunExit::AllHalted));
        EXPECT_EQ(wl.read_output(*chip), wl.golden(1));
        expectGatedTilesOwnNoSram(*chip);
        expectGatedTilesOwnNoSram(*tmpl);
    }
}

TEST(Fleet, CloneSramWritesLeaveTemplateUnchanged)
{
    sim::FleetWorkload wl = registryWorkloads().front();
    auto tmpl = wl.build(defaultSchedulerKind());
    const Tile &src = tmpl->column(0).tile(0);
    ASSERT_TRUE(src.hasMem());
    const auto before = src.readMemWords(0, Tile::MemBytes / 4);

    auto chip = tmpl->clone();
    Tile &dst = chip->column(0).tile(0);
    EXPECT_EQ(dst.readMemWords(0, Tile::MemBytes / 4), before);
    dst.writeMemWords(0, std::vector<int32_t>(Tile::MemBytes / 4, -1));
    wl.feed(*chip, 2);
    ASSERT_EQ(int(chip->run(wl.tick_limit).exit),
              int(RunExit::AllHalted));
    EXPECT_EQ(src.readMemWords(0, Tile::MemBytes / 4), before);
}
