/** @file Shared helpers for architecture-level tests. */

#ifndef SYNC_TESTS_TEST_UTIL_HH
#define SYNC_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "isa/assembler.hh"
#include "sim/scheduler.hh"

namespace synchro::test
{

/** A single-column chip with divider 1 running @p asm_src. */
inline std::unique_ptr<arch::Chip>
singleColumnChip(const std::string &asm_src, unsigned tiles = 4)
{
    arch::ChipConfig cfg;
    cfg.dividers = {1};
    cfg.tiles_per_column = tiles;
    auto chip = std::make_unique<arch::Chip>(cfg);
    chip->column(0).controller().loadProgram(isa::assemble(asm_src));
    return chip;
}

/** Run to completion; EXPECTs in callers check the result. */
inline arch::RunResult
runToHalt(arch::Chip &chip, Tick limit = 1'000'000)
{
    return chip.run(limit);
}

/**
 * Every scheduler backend, EventQueue (the reference semantics)
 * first. Cross-check tests iterate this so a new backend is
 * automatically held to the same bit-identical contract.
 */
inline constexpr SchedulerKind AllSchedulerKinds[] = {
    SchedulerKind::EventQueue,
    SchedulerKind::Compiled,
};

/** Every stat of the chip, flattened for comparison. */
inline std::map<std::string, uint64_t>
allStats(const arch::Chip &chip)
{
    std::map<std::string, uint64_t> out;
    chip.forEachStat([&out](const std::string &name, uint64_t v) {
        out[name] = v;
    });
    return out;
}

/** Architectural register state of every tile. */
inline std::vector<uint32_t>
allRegs(arch::Chip &chip)
{
    std::vector<uint32_t> out;
    for (unsigned c = 0; c < chip.numColumns(); ++c) {
        for (unsigned t = 0; t < chip.column(c).numTiles(); ++t) {
            arch::Tile &tile = chip.column(c).tile(t);
            for (unsigned r = 0; r < isa::NumDataRegs; ++r)
                out.push_back(tile.reg(r));
            for (unsigned p = 0; p < isa::NumPtrRegs; ++p)
                out.push_back(tile.preg(p));
            out.push_back(tile.cc());
        }
    }
    return out;
}

/**
 * Every column's DOU position: state index, then its counters. The
 * Compiled backend reads these off the bus table, the EventQueue
 * backend steps the machine.
 */
inline std::vector<uint32_t>
allDouStates(const arch::Chip &chip)
{
    std::vector<uint32_t> out;
    for (unsigned c = 0; c < chip.numColumns(); ++c) {
        const arch::Dou &dou = chip.column(c).dou();
        out.push_back(dou.stateIndex());
        for (unsigned i = 0; i < arch::DouNumCounters; ++i)
            out.push_back(dou.counter(i));
    }
    return out;
}

/**
 * Build a chip per backend via @p configure, run each to completion,
 * and EXPECT bit-identical exit reason, final tick, statistics,
 * register state and DOU positions against the EventQueue
 * reference.
 */
inline void
crossCheckBackends(arch::ChipConfig cfg,
                   const std::function<void(arch::Chip &)> &configure,
                   Tick max_ticks = 1'000'000)
{
    cfg.scheduler = SchedulerKind::EventQueue;
    arch::Chip reference(cfg);
    configure(reference);
    arch::RunResult rr = reference.run(max_ticks);

    for (SchedulerKind kind : AllSchedulerKinds) {
        if (kind == SchedulerKind::EventQueue)
            continue;
        cfg.scheduler = kind;
        arch::Chip chip(cfg);
        configure(chip);
        arch::RunResult rc = chip.run(max_ticks);

        const char *name = schedulerName(kind);
        EXPECT_EQ(int(rc.exit), int(rr.exit)) << name;
        EXPECT_EQ(rc.ticks, rr.ticks) << name;
        EXPECT_EQ(chip.curTick(), reference.curTick()) << name;
        EXPECT_EQ(allStats(chip), allStats(reference)) << name;
        EXPECT_EQ(allRegs(chip), allRegs(reference)) << name;
        EXPECT_EQ(allDouStates(chip), allDouStates(reference)) << name;
    }
}

} // namespace synchro::test

#endif // SYNC_TESTS_TEST_UTIL_HH
