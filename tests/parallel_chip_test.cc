/** @file The Compiled backend's comm-quiet window walk held to the
 * project invariant: columns run through each proven-quiet window
 * one after another, in parallel only in simulated time, and must
 * stay bit-identical to the event queue — state, stats, ticks and
 * outputs — on every mapped app, one-shot and run(1)-stepped, plus a
 * deterministic skewed-load stress with jittered window bounds. */

#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <array>
#include <string>
#include <vector>

#include "apps/app_registry.hh"
#include "apps/motion_runner.hh"
#include "apps/pipeline_runner.hh"
#include "apps/stereo_runner.hh"
#include "apps/wifi_runner.hh"
#include "sim/clock.hh"
#include "sim/scheduler.hh"
#include "test_util.hh"

using namespace synchro;
using namespace synchro::apps;
using synchro::test::allStats;

namespace
{

/**
 * Run @p runApp on the event queue and on Compiled, and EXPECT the
 * whole observable surface — golden bit-exactness, exit reason,
 * final tick, every chip statistic, and the app output extracted by
 * @p outOf — identical.
 */
template <typename Params, typename RunFn, typename OutFn>
void
crossCheckOneShot(RunFn runApp, Params base, OutFn outOf)
{
    base.scheduler = SchedulerKind::EventQueue;
    auto eq = runApp(base);
    EXPECT_TRUE(eq.bit_exact);

    base.scheduler = SchedulerKind::Compiled;
    auto co = runApp(base);
    EXPECT_TRUE(co.bit_exact);
    EXPECT_EQ(int(co.result.exit), int(eq.result.exit));
    EXPECT_EQ(co.ticks, eq.ticks);
    EXPECT_EQ(co.stats, eq.stats);
    EXPECT_EQ(outOf(co), outOf(eq));
}

/**
 * Build app @p name's chip through its fleet view on both backends,
 * feed both the same item, then run the event-queue chip in one call
 * and the Compiled chip in run(1) steps. The stepped run decomposes
 * every window at the tick budget, so this proves the walk credits
 * identically however its windows are cut.
 */
void
crossCheckStepped(const std::string &name, const std::any &params)
{
    const sim::FleetWorkload wl =
        AppRegistry::instance().at(name).fleet(params);

    auto eq = wl.build(SchedulerKind::EventQueue);
    wl.feed(*eq, 1);
    const arch::RunResult re = eq->run(wl.tick_limit);
    ASSERT_EQ(int(re.exit), int(arch::RunExit::AllHalted));

    auto co = wl.build(SchedulerKind::Compiled);
    wl.feed(*co, 1);
    for (Tick i = 0; i <= wl.tick_limit && !co->allHalted(); ++i)
        co->run(1);
    ASSERT_TRUE(co->allHalted());

    EXPECT_EQ(co->curTick(), eq->curTick());
    EXPECT_EQ(allStats(*co), allStats(*eq));
    EXPECT_EQ(wl.read_output(*co), wl.read_output(*eq));
    EXPECT_EQ(wl.read_output(*co), wl.golden(1));
}

} // namespace

TEST(WindowWalkChip, DdcMatchesEventQueue)
{
    DdcPipelineParams p;
    p.samples = 256; // keep the sanitizer legs fast
    crossCheckOneShot(runMappedDdc, p, [](const MappedDdcRun &r) {
        return r.output;
    });
    crossCheckStepped("ddc", p);
}

TEST(WindowWalkChip, WifiMatchesEventQueue)
{
    WifiPipelineParams p;
    p.symbols = 8;
    crossCheckOneShot(runMappedWifi, p, [](const MappedWifiRun &r) {
        return r.output;
    });
    crossCheckStepped("wifi", p);
}

TEST(WindowWalkChip, StereoMatchesEventQueue)
{
    StereoPipelineParams p;
    crossCheckOneShot(runMappedStereo, p,
                      [](const MappedStereoRun &r) {
                          return r.output;
                      });
    crossCheckStepped("stereo", p);
}

TEST(WindowWalkChip, MotionMatchesEventQueue)
{
    MotionPipelineParams p;
    crossCheckOneShot(runMappedMotion, p,
                      [](const MappedMotionRun &r) {
                          return r.output_keys;
                      });
    crossCheckStepped("motion", p);
}

namespace
{

/**
 * A synthetic SchedModel for deterministic stress: four domains on
 * dividers 1/2/3/4 with skewed edge quotas (domain 0 issues by far
 * the most slots), reference phases that only count (so any
 * comm-quiet claim is truthful), and a commQuiet() that replays a
 * fixed jitter sequence — every window boundary lands exactly where
 * the sequence says, on every run.
 */
class SkewStressModel : public SchedModel
{
  public:
    static constexpr unsigned kDomains = 4;
    static constexpr uint64_t kQuota[kDomains] = {97, 40, 10, 20};

    explicit SkewStressModel(std::vector<Tick> jitter)
        : jitter_(std::move(jitter))
    {
        static constexpr unsigned divs[kDomains] = {1, 2, 3, 4};
        for (unsigned d = 0; d < kDomains; ++d)
            clocks_.emplace_back(600e6, divs[d], 0);
    }

    unsigned numDomains() const override { return kDomains; }

    const ClockDomain &
    domainClock(unsigned d) const override
    {
        return clocks_[d];
    }

    bool
    domainHalted(unsigned d) const override
    {
        return edges_[d] >= kQuota[d];
    }

    bool
    allHalted() const override
    {
        for (unsigned d = 0; d < kDomains; ++d) {
            if (!domainHalted(d))
                return false;
        }
        return true;
    }

    void domainEdge(unsigned d) override { ++edges_[d]; }

    void refPhase() override { ++phases_; }

    Tick
    commFreeAdvance(Tick max) override
    {
        phases_ += max;
        return max;
    }

    Tick
    commQuiet(Tick max) const override
    {
        if (jitter_.empty())
            return 0;
        Tick q = jitter_[probe_++ % jitter_.size()];
        return std::min(q, max);
    }

    std::array<uint64_t, kDomains>
    edgesSnapshot() const
    {
        return edges_;
    }

    uint64_t phases() const { return phases_; }

  private:
    const std::vector<Tick> jitter_;
    mutable size_t probe_ = 0;
    std::vector<ClockDomain> clocks_;
    std::array<uint64_t, kDomains> edges_{};
    uint64_t phases_ = 0;
};

const std::vector<Tick> kJitter = {7, 31, 3, 17, 1, 61, 11, 5};

} // namespace

TEST(WindowWalkStress, JitteredWindowsMatchEventQueueBitExactly)
{
    SkewStressModel ref(kJitter);
    auto eq = makeScheduler(SchedulerKind::EventQueue);
    SchedStop se = eq->run(ref, 1'000'000);
    ASSERT_EQ(int(se), int(SchedStop::AllHalted));

    SkewStressModel walked(kJitter);
    auto co = makeScheduler(SchedulerKind::Compiled);
    SchedStop sc = co->run(walked, 1'000'000);
    EXPECT_EQ(int(sc), int(se));
    EXPECT_EQ(co->curTick(), eq->curTick());
    EXPECT_EQ(walked.edgesSnapshot(), ref.edgesSnapshot());
    EXPECT_EQ(walked.phases(), ref.phases());
}

TEST(WindowWalkStress, SteppedRunsMatchOneBigRun)
{
    // run(1) in a loop must land on exactly the same state as one
    // large run — the window logic caps at the tick budget, so a
    // stepped run decomposes windows differently but credits
    // identically.
    SkewStressModel big(kJitter);
    auto sb = makeScheduler(SchedulerKind::Compiled);
    ASSERT_EQ(int(sb->run(big, 1'000'000)),
              int(SchedStop::AllHalted));

    SkewStressModel stepped(kJitter);
    auto st = makeScheduler(SchedulerKind::Compiled);
    SchedStop last = SchedStop::TickLimit;
    for (unsigned i = 0; i < 100'000 && last != SchedStop::AllHalted;
         ++i)
        last = st->run(stepped, 1);
    EXPECT_EQ(int(last), int(SchedStop::AllHalted));
    EXPECT_EQ(st->curTick(), sb->curTick());
    EXPECT_EQ(stepped.edgesSnapshot(), big.edgesSnapshot());
    EXPECT_EQ(stepped.phases(), big.phases());
}
