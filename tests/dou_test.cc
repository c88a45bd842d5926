/** @file DOU state machine and state-word packing tests. */

#include <gtest/gtest.h>

#include <set>

#include "apps/app_registry.hh"
#include "arch/dou.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "mapping/comm_schedule.hh"
#include "mapping/verifier.hh"

using namespace synchro;
using namespace synchro::arch;

TEST(DouState, PackUnpackRoundTrip)
{
    DouState s;
    s.cntr = 3;
    s.seg = {0xf, 0x5, 0xa, 0x1};
    s.buf = {0x80, 0x7f, 0x08, 0xff};
    s.nxt0 = 127;
    s.nxt1 = 1;
    DouState back = DouState::unpack(s.pack());
    EXPECT_EQ(back, s);
    EXPECT_EQ(back.cntr, 3);
    EXPECT_EQ(back.seg[0], 0xf);
    EXPECT_EQ(back.buf[3], 0xff);
    EXPECT_EQ(back.nxt0, 127);
}

TEST(DouState, WordIs64BitsExactly)
{
    // CNTR(2) + 4xSEG(4) + 4xBUF(8) + NXT0(7) + NXT1(7) = 64 bits:
    // the all-ones state must use every bit and no more.
    DouState s;
    s.cntr = 3;
    s.seg = {0xf, 0xf, 0xf, 0xf};
    s.buf = {0xff, 0xff, 0xff, 0xff};
    s.nxt0 = 0x7f;
    s.nxt1 = 0x7f;
    EXPECT_EQ(s.pack(), ~uint64_t(0));
    DouState zero;
    EXPECT_EQ(zero.pack(), 0u);
}

TEST(BufferCtl, ByteLayout)
{
    BufferCtl c;
    c.drive = true;
    c.drive_lane = 5;
    c.capture = true;
    c.capture_lane = 3;
    EXPECT_EQ(c.byte(), 0x80 | (5 << 4) | 0x08 | 3);
    BufferCtl d = BufferCtl::fromByte(c.byte());
    EXPECT_TRUE(d.drive);
    EXPECT_EQ(d.drive_lane, 5);
    EXPECT_TRUE(d.capture);
    EXPECT_EQ(d.capture_lane, 3);
}

TEST(DouProgram, ValidationCatchesBadPrograms)
{
    DouProgram p;
    EXPECT_THROW(p.validate(), FatalError); // empty

    p = DouProgram::idle();
    EXPECT_NO_THROW(p.validate());

    p.states[0].nxt0 = 5; // out of range successor
    EXPECT_THROW(p.validate(), FatalError);

    p = DouProgram::idle();
    p.states.resize(DouMaxStates + 1);
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(Dou, IdleLoopsForever)
{
    Dou dou(0);
    for (int i = 0; i < 10; ++i) {
        dou.step();
        EXPECT_EQ(dou.stateIndex(), 0u);
    }
}

TEST(Dou, CounterLoopSemantics)
{
    // Two states: state 0 repeats itself while counter 0 is nonzero
    // (NXTSTATE1), then falls to state 1 when it hits zero (NXTSTATE0,
    // which also reloads the counter). State 1 returns to 0.
    DouProgram p;
    DouState s0;
    s0.cntr = 0;
    s0.nxt0 = 1; // counter exhausted -> state 1
    s0.nxt1 = 0; // keep looping in state 0
    DouState s1;
    s1.cntr = 1; // counter 1 stays 0 -> always nxt0
    s1.nxt0 = 0;
    s1.nxt1 = 1;
    p.states = {s0, s1};
    p.counter_init = {3, 0, 0, 0};

    Dou dou(0);
    dou.load(p);

    // With init=3 the DOU stays in state 0 for 3 extra steps (counts
    // 3,2,1 decrementing), then transitions: period = 4 steps in s0.
    std::vector<unsigned> seen;
    for (int i = 0; i < 10; ++i) {
        seen.push_back(dou.stateIndex());
        dou.step();
    }
    EXPECT_EQ(seen, (std::vector<unsigned>{0, 0, 0, 0, 1,
                                           0, 0, 0, 0, 1}));
}

TEST(Dou, FourNestedCounters)
{
    // A chain imitating 2 nested loops: inner counter 0 (2 iters),
    // outer counter 1 (3 iters). Measure the period of the full nest.
    DouProgram p;
    DouState inner;
    inner.cntr = 0;
    inner.nxt1 = 0; // spin on inner
    inner.nxt0 = 1; // inner done -> outer check
    DouState outer;
    outer.cntr = 1;
    outer.nxt1 = 0; // outer not done -> restart inner
    outer.nxt0 = 2; // everything done -> idle
    DouState done;
    done.nxt0 = done.nxt1 = 2;
    p.states = {inner, outer, done};
    p.counter_init = {1, 2, 0, 0};

    Dou dou(0);
    dou.load(p);
    int steps = 0;
    while (dou.stateIndex() != 2 && steps < 100) {
        dou.step();
        ++steps;
    }
    // Inner takes 2 steps per pass (counts 1,0); passes = 3 (counter 1
    // counts 2,1,0); plus 3 outer-check steps: 2*3 + 3 = 9.
    EXPECT_EQ(steps, 9);
}

TEST(Dou, LoadResetsState)
{
    DouProgram p = DouProgram::idle();
    p.counter_init = {7, 0, 0, 0};
    Dou dou(0);
    dou.load(p);
    EXPECT_EQ(dou.counter(0), 7u);
    dou.step();
    dou.reset();
    EXPECT_EQ(dou.stateIndex(), 0u);
    EXPECT_EQ(dou.counter(0), 7u);
}

// ---------------------------------------------------------------
// DouTrajectory against naive stepping: the trajectory is what the
// Compiled backend reads DOU positions and bus phases off, so it
// must agree with step() on every cycle.

namespace
{

/**
 * Step @p p for @p cycles and hold the trajectory to every cycle's
 * state and counters; a second DOU seeks forward in uneven jumps and
 * must land on the same positions with the same step count.
 */
void
expectMatchesStepping(const DouProgram &p, uint64_t cycles,
                      const std::string &what)
{
    Dou stepped(0), seeker(1);
    stepped.load(p);
    seeker.load(p);
    const DouTrajectory &traj = *stepped.trajectory();
    uint64_t next_seek = 0;
    for (uint64_t cyc = 0; cyc < cycles; ++cyc) {
        std::array<uint32_t, DouNumCounters> want;
        for (unsigned i = 0; i < DouNumCounters; ++i)
            want[i] = stepped.counter(i);
        unsigned st;
        std::array<uint32_t, DouNumCounters> ctrs;
        traj.at(cyc, st, ctrs);
        ASSERT_EQ(st, stepped.stateIndex()) << what << " cycle " << cyc;
        ASSERT_EQ(ctrs, want) << what << " cycle " << cyc;
        if (cyc == next_seek) {
            seeker.seek(cyc);
            ASSERT_EQ(seeker.stateIndex(), st) << what << " cycle " << cyc;
            ASSERT_EQ(seeker.stats().value("steps"), cyc) << what;
            next_seek += 1 + cyc % 7;
        }
        stepped.step();
    }
}

/** Cycles covering the prefix and three periods (or some of an
 * inert tail). */
uint64_t
coverage(const DouTrajectory &t)
{
    return t.prefix() + 3 * std::max<uint64_t>(t.period, 20) + 3;
}

} // namespace

TEST(DouTrajectory, MatchesSteppingOnRandomPrograms)
{
    // Raw programs mixing wait states, inert self-loops, generic
    // branches and states the machine never returns to (lasso
    // prefixes), with small counters so the lassos stay short.
    Rng rng(4242);
    unsigned prefixes = 0, inert = 0, stays = 0;
    for (int trial = 0; trial < 400; ++trial) {
        DouProgram p;
        const unsigned n = unsigned(rng.range(1, 8));
        for (unsigned i = 0; i < n; ++i) {
            DouState s;
            s.cntr = uint8_t(rng.below(DouNumCounters));
            s.buf[rng.below(4)] = uint8_t(rng.below(256));
            const uint8_t any = uint8_t(rng.below(n));
            switch (rng.below(8)) {
              case 0:
                s.nxt0 = s.nxt1 = uint8_t(i);
                break;
              case 1:
              case 2:
              case 3:
                s.nxt1 = uint8_t(i);
                s.nxt0 = any;
                break;
              default:
                s.nxt0 = any;
                s.nxt1 = uint8_t(rng.below(n));
            }
            p.states.push_back(s);
        }
        for (uint32_t &c : p.counter_init)
            c = uint32_t(rng.chance(0.2) ? rng.below(60) : rng.below(4));

        DouTrajectory traj;
        ASSERT_EQ(DouTrajectory::derive(p, traj), "") << trial;
        prefixes += traj.loop > 0;
        inert += traj.period == 0;
        for (size_t r = 0; r < traj.runs.size(); ++r)
            stays += traj.runEnd(r, 0) - traj.runs[r].start > 1;
        expectMatchesStepping(p, coverage(traj), strprintf("trial %d", trial));
    }
    EXPECT_GT(prefixes, 40u);
    EXPECT_GT(inert, 40u);
    EXPECT_GT(stays, 100u);
}

TEST(DouTrajectory, MatchesSteppingOnCompiledSchedules)
{
    Rng rng(777);
    for (int trial = 0; trial < 60; ++trial) {
        mapping::CommSchedule sched;
        sched.period = unsigned(rng.range(2, 400));
        sched.prologue = unsigned(rng.range(0, 50));
        std::set<unsigned> offsets;
        const unsigned n = unsigned(rng.range(1, 6));
        for (unsigned i = 0; i < n; ++i)
            offsets.insert(unsigned(rng.below(sched.period)));
        for (unsigned off : offsets)
            sched.transfers.push_back(
                {off, unsigned(rng.below(8)), 0, {}, true});
        DouProgram p = mapping::compileSchedule(sched);
        DouTrajectory traj;
        ASSERT_EQ(DouTrajectory::derive(p, traj), "");
        EXPECT_EQ(traj.prefix(), traj.runs[traj.loop].start);
        EXPECT_EQ(traj.period, sched.period) << trial;
        expectMatchesStepping(p, coverage(traj), strprintf("trial %d", trial));
    }
}

TEST(DouTrajectory, MatchesSteppingOnRegistryPrograms)
{
    for (const std::string &name : apps::AppRegistry::instance().names()) {
        mapping::LoweredArtifact art =
            apps::AppRegistry::instance().at(name).verifiable();
        for (const mapping::ColumnProgram &col : art.prog.columns) {
            DouTrajectory traj;
            ASSERT_EQ(DouTrajectory::derive(col.dou, traj), "");
            // Every registry DOU is back in its initial state after
            // one grid period, in a handful of runs.
            EXPECT_EQ(traj.loop, 0u) << name << " " << col.actor;
            EXPECT_EQ(traj.period, art.prog.period)
                << name << " " << col.actor;
            EXPECT_LE(traj.runs.size(), 12u) << name << " " << col.actor;
            expectMatchesStepping(col.dou, 2 * traj.period + 1,
                                  name + " " + col.actor);
        }
    }
}

TEST(DouTrajectory, LoadRefusesAnUnrollPastTheBound)
{
    // Two states decrementing counters 0 and 1 in turn: (state,
    // counters) first repeats after lcm(1001, 1002) visits each, far
    // past DouMaxRuns runs.
    DouProgram p;
    DouState a, b;
    a.cntr = 0;
    a.nxt0 = a.nxt1 = 1;
    b.cntr = 1;
    p.states = {a, b};
    p.counter_init = {1000, 1001, 0, 0};
    Dou dou(3);
    try {
        dou.load(p);
        FAIL() << "expected the trajectory bound to refuse the load";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "column 3: DOU trajectory does not repeat within "
                      "65536 runs"),
                  std::string::npos)
            << e.what();
    }
}

TEST(DouTrajectory, DeriveReportsMalformedPrograms)
{
    // The verifier derives trajectories of programs no loader has
    // validated: a dangling successor or counter is a message.
    DouProgram p = DouProgram::idle();
    p.states[0].nxt0 = p.states[0].nxt1 = 1;
    DouTrajectory traj;
    EXPECT_EQ(DouTrajectory::derive(p, traj),
              "DOU transitions to missing state 1");
    p = DouProgram::idle();
    p.states[0].cntr = 7;
    EXPECT_EQ(DouTrajectory::derive(p, traj), "DOU state 0 tests counter 7");
}
