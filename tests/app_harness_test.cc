/** @file The shared mapped-app harness: reject paths (empty graphs,
 * unset run budgets), golden-mismatch reporting, and a regression
 * pin that the refactored runners of all four apps still produce
 * exactly the pre-refactor cycle traces. */

#include <gtest/gtest.h>

#include "apps/app_harness.hh"
#include "apps/motion_runner.hh"
#include "apps/pipeline_runner.hh"
#include "apps/stereo_runner.hh"
#include "apps/wifi_runner.hh"
#include "common/log.hh"

using namespace synchro;
using namespace synchro::apps;

TEST(AppHarness, RejectsAnEmptyGraph)
{
    mapping::SdfGraph empty;
    EXPECT_THROW(planApp(empty, {}, 1e6), FatalError);
}

TEST(AppHarness, RejectsANonPositiveRate)
{
    mapping::SdfGraph g;
    g.addActor("lonely", 10);
    EXPECT_THROW(planApp(g, {}, 0.0), FatalError);
    EXPECT_THROW(planApp(g, {}, -5.0), FatalError);
}

TEST(AppHarness, RejectsUnsetRunBudgets)
{
    // A real plan and program, but harness parameters that forgot
    // the items/tick budget: both must fail loudly, not misprice.
    DdcPipelineParams p;
    p.samples = 64;
    auto plan = planDdc(p);
    ASSERT_TRUE(plan.has_value());
    auto prog = mapping::lowerPipeline(ddcStages(p, ddcInput(p)),
                                       *plan, p.sample_rate_hz / 8,
                                       p.slack);

    MappedAppParams no_items;
    no_items.app = "test";
    no_items.tick_limit = 1000;
    EXPECT_THROW(MappedApp(no_items, *plan, prog), FatalError);

    MappedAppParams no_limit;
    no_limit.app = "test";
    no_limit.priced_items = 64;
    EXPECT_THROW(MappedApp(no_limit, *plan, prog), FatalError);
}

TEST(AppHarness, DescribesGoldenMismatches)
{
    std::vector<int16_t> got = {1, 2, 3}, want = {1, 9, 3};
    EXPECT_EQ(describeMismatch("out", got, got), "");

    std::string diff = describeMismatch("out", got, want);
    EXPECT_NE(diff.find("index 1"), std::string::npos) << diff;
    EXPECT_NE(diff.find("got 2"), std::string::npos) << diff;
    EXPECT_NE(diff.find("want 9"), std::string::npos) << diff;

    std::vector<int16_t> shorter = {1, 2};
    std::string size_diff = describeMismatch("out", shorter, want);
    EXPECT_NE(size_diff.find("size mismatch"), std::string::npos)
        << size_diff;

    std::vector<uint8_t> b0 = {0, 1}, b1 = {0, 2};
    EXPECT_NE(describeMismatch("bytes", b0, b1).find("index 1"),
              std::string::npos);
}

/**
 * Runner refactors must be pure extractions: the mapped runs are
 * deterministic, so their final tick counts and bus transfer totals
 * must equal the values the pre-refactor runners produced at these
 * exact parameters (DDC and 802.11a captured before the shared
 * harness, stereo and motion at their defaults before the spec-driven
 * runners). A change here means the rebuilt runners are NOT
 * behaviorally identical — investigate before touching these
 * constants.
 */
TEST(AppHarness, RefactoredRunnersKeepPreRefactorTraces)
{
    DdcPipelineParams dp;
    dp.samples = 512;
    MappedDdcRun ddc = runMappedDdc(dp);
    EXPECT_TRUE(ddc.bit_exact);
    EXPECT_EQ(ddc.ticks, 80712u);
    EXPECT_EQ(ddc.bus_transfers, 704u);

    WifiPipelineParams wp;
    wp.symbols = 8;
    MappedWifiRun wifi = runMappedWifi(wp);
    EXPECT_TRUE(wifi.bit_exact);
    EXPECT_EQ(wifi.ticks, 462960u);
    EXPECT_EQ(wifi.bus_transfers, 1536u);

    MappedStereoRun stereo = runMappedStereo(StereoPipelineParams{});
    EXPECT_TRUE(stereo.bit_exact);
    EXPECT_EQ(stereo.ticks, 287045u);
    EXPECT_EQ(stereo.bus_transfers, 4736u);

    MappedMotionRun motion = runMappedMotion(MotionPipelineParams{});
    EXPECT_TRUE(motion.bit_exact);
    EXPECT_EQ(motion.ticks, 135983u);
    EXPECT_EQ(motion.bus_transfers, 12u);
}
