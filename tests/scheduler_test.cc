/** @file Scheduler-backend seams: ClockDomain edge-iteration
 * equivalence, compiled vs event-queue bit-identical execution, DOU
 * fast-forward arithmetic, and resume/tick-limit semantics. */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "common/log.hh"
#include "isa/assembler.hh"
#include "mapping/comm_schedule.hh"
#include "sim/scheduler.hh"
#include "test_util.hh"

using namespace synchro;
using namespace synchro::arch;
using synchro::isa::assemble;

// ---------------------------------------------------------------
// ClockDomain edge iteration: every edge the fast scheduler would
// visit (walking nextEdgeAfter) is an edge the event queue would
// fire (onEdge scan), and vice versa.

TEST(ClockEdges, IterationMatchesScanForAllDividersAndPhases)
{
    constexpr Tick Horizon = 400;
    for (unsigned div = 1; div <= 16; ++div) {
        for (Tick phase : {Tick(0), Tick(1), Tick(div - 1)}) {
            if (phase >= div)
                continue;
            ClockDomain dom(600e6, div, phase);

            std::vector<Tick> scanned;
            for (Tick t = 0; t <= Horizon; ++t) {
                if (dom.onEdge(t))
                    scanned.push_back(t);
            }

            std::vector<Tick> walked;
            Tick t = dom.onEdge(0) ? 0 : dom.nextEdgeAfter(0);
            while (t <= Horizon) {
                walked.push_back(t);
                t = dom.nextEdgeAfter(t);
            }

            EXPECT_EQ(walked, scanned)
                << "divider " << div << " phase " << phase;
        }
    }
}

TEST(ClockEdges, NextEdgeIsStrictlyAfterAndOnEdge)
{
    for (unsigned div : {1u, 2u, 3u, 5u, 8u, 13u, 16u}) {
        ClockDomain dom(600e6, div, div / 2);
        for (Tick t = 0; t < 100; ++t) {
            Tick n = dom.nextEdgeAfter(t);
            EXPECT_GT(n, t);
            EXPECT_TRUE(dom.onEdge(n));
            // No edge strictly between t and n.
            for (Tick m = t + 1; m < n; ++m)
                EXPECT_FALSE(dom.onEdge(m));
        }
    }
}

// ---------------------------------------------------------------
// Whole-chip cross-checks: every backend must agree bit-for-bit with
// the event queue on architectural state, statistics, final tick,
// and exit reason. The comparison itself lives in test_util.hh
// (crossCheckBackends) so the mapped-app suites hold their pipelines
// to the same contract.

using synchro::test::allStats;
using synchro::test::AllSchedulerKinds;
using synchro::test::crossCheckBackends;

namespace
{

/** Run @p configure on a chip of each backend; compare everything. */
void
crossCheck(ChipConfig cfg, const std::function<void(Chip &)> &configure,
           Tick max_ticks = 1'000'000)
{
    crossCheckBackends(cfg, configure, max_ticks);
}

} // namespace

TEST(SchedulerEquivalence, MultiDividerComputeLoops)
{
    ChipConfig cfg;
    cfg.dividers = {8, 8, 4, 2};
    crossCheck(cfg, [](Chip &chip) {
        for (unsigned c = 0; c < chip.numColumns(); ++c) {
            chip.column(c).controller().loadProgram(assemble(R"(
                movi r0, 0
                lsetup lc0, e, 500
                addi r0, 1
            e:
                halt
            )"));
        }
    });
}

TEST(SchedulerEquivalence, PhasedColumns)
{
    ChipConfig cfg;
    cfg.dividers = {5, 3, 7};
    cfg.phases = {2, 0, 6};
    crossCheck(cfg, [](Chip &chip) {
        for (unsigned c = 0; c < chip.numColumns(); ++c) {
            chip.column(c).controller().loadProgram(assemble(R"(
                movi r0, 0
                lsetup lc0, e, 100
                addi r0, 3
            e:
                halt
            )"));
        }
    });
}

TEST(SchedulerEquivalence, ZormAndBranches)
{
    ChipConfig cfg;
    cfg.dividers = {4};
    crossCheck(cfg, [](Chip &chip) {
        chip.column(0).controller().loadProgram(assemble(R"(
            movi r0, 0
            movi r1, 40
            movi r2, 0
        top:
            addi r0, 2
            addi r1, -1
            cmpeq r1, r2
            jncc top
            halt
        )"));
        chip.column(0).controller().setRateMatch(3, 7);
    });
}

TEST(SchedulerEquivalence, CrossDomainCommunication)
{
    // Producer at divider 1 streams into a divider-3 consumer through
    // DOU schedules — exercises bus cycles, backpressure stalls, and
    // the non-inert DOU path where no edge skipping is possible.
    ChipConfig cfg;
    cfg.dividers = {1, 3};
    cfg.tiles_per_column = 1;
    // (period, prologue, offset) of the producer's and the consumer's
    // slot: a consumer capturing every cycle, then one sparse shared
    // slot, so the bus table's active phases end before its period
    // does and the Compiled backend wraps to the next period.
    const unsigned slots[][2][3] = {{{6, 0, 0}, {1, 0, 0}},
                                    {{9, 2, 4}, {9, 2, 4}}};
    for (const auto &slot : slots) {
        crossCheck(cfg, [&](Chip &chip) {
            chip.column(0).controller().loadProgram(assemble(R"(
                movi r7, 0
                lsetup lc0, e, 40
                addi r7, 1
                cwr r7
            e:
                halt
            )"));
            chip.column(1).controller().loadProgram(assemble(R"(
                movi r1, 0
                lsetup lc0, e, 40
                crd r0
                add r1, r1, r0
            e:
                halt
            )"));
            mapping::CommSchedule prod{slot[0][0], slot[0][1], {}};
            prod.transfers = {{slot[0][2], 0, 0, {}, true}};
            chip.column(0).dou().load(mapping::compileSchedule(prod));
            mapping::CommSchedule cons{slot[1][0], slot[1][1], {}};
            cons.transfers = {{slot[1][2], 0, -1, {0}, false}};
            chip.column(1).dou().load(mapping::compileSchedule(cons));
        });
    }
}

TEST(SchedulerEquivalence, DouReloadBetweenRuns)
{
    // A consumer whose DOU is reloaded mid-stream: the Compiled
    // backend re-merges the bus table from the DOUs' new positions
    // and must land on the event queue's bits, DOU positions
    // included.
    auto build = [](SchedulerKind kind) {
        ChipConfig cfg;
        cfg.dividers = {1, 2};
        cfg.tiles_per_column = 1;
        cfg.scheduler = kind;
        auto chip = std::make_unique<Chip>(cfg);
        chip->column(0).controller().loadProgram(assemble(R"(
            movi r7, 0
            lsetup lc0, e, 30
            addi r7, 1
            cwr r7
        e:
            halt
        )"));
        chip->column(1).controller().loadProgram(assemble(R"(
            movi r1, 0
            lsetup lc0, e, 30
            crd r0
            add r1, r1, r0
        e:
            halt
        )"));
        mapping::CommSchedule prod;
        prod.period = 7;
        prod.prologue = 3;
        prod.transfers = {{2, 0, 0, {}, true}};
        chip->column(0).dou().load(mapping::compileSchedule(prod));
        mapping::CommSchedule cons;
        cons.period = 1;
        cons.transfers = {{0, 0, -1, {0}, false}};
        chip->column(1).dou().load(mapping::compileSchedule(cons));
        chip->run(61);
        cons.period = 2;
        cons.transfers = {{0, 0, -1, {0}, false}, {1, 0, -1, {0}, false}};
        chip->column(1).dou().load(mapping::compileSchedule(cons));
        chip->run(100'000);
        return chip;
    };
    auto ref = build(SchedulerKind::EventQueue);
    auto chip = build(SchedulerKind::Compiled);
    EXPECT_TRUE(ref->allHalted());
    EXPECT_EQ(chip->curTick(), ref->curTick());
    EXPECT_EQ(allStats(*chip), allStats(*ref));
    EXPECT_EQ(synchro::test::allRegs(*chip), synchro::test::allRegs(*ref));
    EXPECT_EQ(synchro::test::allDouStates(*chip),
              synchro::test::allDouStates(*ref));
}

TEST(SchedulerEquivalence, TickLimitAndResume)
{
    // A spinning column: both backends must stop at the same tick,
    // then resume identically across repeated small run() calls.
    auto build = [](SchedulerKind kind) {
        ChipConfig cfg;
        cfg.dividers = {3};
        cfg.scheduler = kind;
        auto chip = std::make_unique<Chip>(cfg);
        chip->column(0).controller().loadProgram(assemble(R"(
        spin:
            jump spin
        )"));
        return chip;
    };
    auto ref = build(SchedulerKind::EventQueue);
    auto rr = ref->run(100);
    EXPECT_EQ(int(rr.exit), int(RunExit::TickLimit));

    for (SchedulerKind kind : AllSchedulerKinds) {
        if (kind == SchedulerKind::EventQueue)
            continue;
        auto ref2 = build(SchedulerKind::EventQueue);
        auto chip = build(kind);
        auto r2 = ref2->run(100);
        auto rc = chip->run(100);
        EXPECT_EQ(int(rc.exit), int(RunExit::TickLimit))
            << schedulerName(kind);
        EXPECT_EQ(rc.ticks, r2.ticks) << schedulerName(kind);

        for (int i = 0; i < 5; ++i) {
            r2 = ref2->run(7);
            rc = chip->run(7);
            EXPECT_EQ(rc.ticks, r2.ticks)
                << schedulerName(kind) << " resume step " << i;
            EXPECT_EQ(allStats(*chip), allStats(*ref2))
                << schedulerName(kind);
        }
    }
}

TEST(SchedulerEquivalence, SteppedRunMatchesBatchOnFastPaths)
{
    auto build = [](SchedulerKind kind) {
        ChipConfig cfg;
        cfg.dividers = {2, 5};
        cfg.scheduler = kind;
        auto chip = std::make_unique<Chip>(cfg);
        for (unsigned c = 0; c < 2; ++c) {
            chip->column(c).controller().loadProgram(assemble(R"(
                movi r0, 0
                lsetup lc0, e, 60
                addi r0, 1
            e:
                halt
            )"));
        }
        return chip;
    };
    for (SchedulerKind kind : AllSchedulerKinds) {
        auto batch = build(kind);
        auto batch_res = batch->run(100'000);
        ASSERT_EQ(int(batch_res.exit), int(RunExit::AllHalted))
            << schedulerName(kind);

        auto stepped = build(kind);
        Tick guard = 0;
        while (!stepped->allHalted() && guard++ < 100'000)
            stepped->run(1);
        EXPECT_EQ(stepped->curTick(), batch->curTick())
            << schedulerName(kind);
        EXPECT_EQ(allStats(*stepped), allStats(*batch))
            << schedulerName(kind);
    }
}

TEST(SchedulerEquivalence, FastPathSkipsWork)
{
    // Sanity that the window walk credits skipped work exactly:
    // with dividers {8,8,4,2} and idle DOUs, the per-tick DOU step
    // stats must still match the event queue exactly (the skipped
    // ticks are credited arithmetically).
    ChipConfig cfg;
    cfg.dividers = {8, 8, 4, 2};
    crossCheck(cfg, [](Chip &chip) {
        for (unsigned c = 0; c < chip.numColumns(); ++c) {
            chip.column(c).controller().loadProgram(assemble(R"(
                movi r0, 0
                lsetup lc0, e, 1000
                addi r0, 1
            e:
                halt
            )"));
        }
    });
}

TEST(SchedulerFactory, NamesAndKinds)
{
    const char *names[] = {"eventq", "compiled"};
    int i = 0;
    for (SchedulerKind kind : AllSchedulerKinds) {
        auto sched = makeScheduler(kind);
        EXPECT_EQ(std::string(sched->name()), names[i++]);
        EXPECT_EQ(int(sched->kind()), int(kind));
        EXPECT_EQ(sched->curTick(), 0u);
    }

    SchedulerKind parsed;
    for (SchedulerKind kind : AllSchedulerKinds) {
        ASSERT_TRUE(parseSchedulerKind(schedulerName(kind), parsed));
        EXPECT_EQ(int(parsed), int(kind));
    }
    EXPECT_FALSE(parseSchedulerKind("warp-drive", parsed));
    // The retired backends are rejected, not silently remapped —
    // by the parser and by the --backend flag.
    for (const char *retired : {"fastedge", "parallel"}) {
        EXPECT_FALSE(parseSchedulerKind(retired, parsed)) << retired;
        std::string flag = std::string("--backend=") + retired;
        char prog[] = "bench";
        char *argv[] = {prog, flag.data(), nullptr};
        int argc = 2;
        EXPECT_THROW(backendFromArgs(argc, argv), FatalError)
            << retired;
    }
}
