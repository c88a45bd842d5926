/** @file End-to-end mapped 802.11a receiver: the demap ->
 * de-interleave -> fork(ACS x2) -> join(traceback) DAG planned by the
 * AutoMapper, lowered by the DAG codegen, run cycle-accurately and
 * checked bit-exactly against the dsp:: golden chain — on every
 * scheduler backend, with the measured power priced against the
 * paper's Table 4 802.11a row. */

#include <gtest/gtest.h>

#include "test_util.hh"

#include "apps/paper_workloads.hh"
#include "apps/wifi_runner.hh"
#include "dsp/ofdm.hh"

using namespace synchro;
using namespace synchro::apps;

namespace
{

WifiPipelineParams
smallRun(SchedulerKind kind)
{
    WifiPipelineParams p;
    p.symbols = 8; // keep the EventQueue leg fast
    p.scheduler = kind;
    return p;
}

} // namespace

TEST(WifiPipeline, MappedReceiverMatchesGoldenOnEveryBackend)
{
    MappedWifiRun evq =
        runMappedWifi(smallRun(SchedulerKind::EventQueue));

    // Bit-exact against the dsp:: reference chain, which itself
    // recovers the transmitted payload through dsp::ofdmTransmit's
    // encoder + interleaver on the clean channel.
    ASSERT_EQ(evq.output.size(), 8u * WifiFrameBits);
    EXPECT_TRUE(evq.demap_matches_float);
    EXPECT_TRUE(evq.golden_matches_tx);
    EXPECT_TRUE(evq.bit_exact);
    EXPECT_EQ(evq.output, evq.golden);
    EXPECT_EQ(evq.output, evq.tx_bits);

    // The self-timed schedule must never destroy data; deferral (not
    // overrun) is the flow-control mechanism.
    EXPECT_EQ(evq.overruns, 0u);
    EXPECT_EQ(evq.conflicts, 0u);
    EXPECT_GT(evq.bus_transfers, 0u);

    for (SchedulerKind kind : synchro::test::AllSchedulerKinds) {
        if (kind == SchedulerKind::EventQueue)
            continue;
        MappedWifiRun run = runMappedWifi(smallRun(kind));
        const char *name = schedulerName(kind);

        // Backend equivalence: same exit, same final tick, same
        // recovered bits, every statistic of the chip identical.
        EXPECT_TRUE(run.bit_exact) << name;
        EXPECT_EQ(run.output, evq.output) << name;
        EXPECT_EQ(run.result.exit, evq.result.exit) << name;
        EXPECT_EQ(run.ticks, evq.ticks) << name;
        EXPECT_EQ(run.stats, evq.stats) << name;
    }
}

TEST(WifiPipeline, SurvivesAnImpairedChannel)
{
    // With noise the chip must still match the golden chain bit for
    // bit (both demap the same quantized symbols) even though the
    // payload itself may take bit errors.
    WifiPipelineParams p = smallRun(SchedulerKind::Compiled);
    p.snr_db = 12.0;
    MappedWifiRun run = runMappedWifi(p);
    EXPECT_TRUE(run.bit_exact);
    EXPECT_EQ(run.overruns, 0u);
    EXPECT_EQ(run.conflicts, 0u);
}

TEST(WifiPipeline, PlanMapsTheDagToFiveColumns)
{
    WifiPipelineParams p;
    auto plan = planWifi(p);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->placements.size(), 5u);
    EXPECT_EQ(plan->total_columns, 5u);
    // The SDF certificates: q = (2, 1, 48, 48, 1), bounded buffers
    // on all five edges.
    ASSERT_EQ(plan->repetition.size(), 5u);
    EXPECT_EQ(plan->repetition[0], 2u);
    EXPECT_EQ(plan->repetition[1], 1u);
    EXPECT_EQ(plan->repetition[2], 48u);
    EXPECT_EQ(plan->repetition[3], 48u);
    EXPECT_EQ(plan->repetition[4], 1u);
    EXPECT_EQ(plan->buffer_bounds.size(), 5u);
    // Multiple clock/voltage domains actually emerge: the ACS
    // columns demand far more than demap/deinterleave/traceback.
    double vmin = 10, vmax = 0;
    for (const auto &pl : plan->placements) {
        vmin = std::min(vmin, pl.v);
        vmax = std::max(vmax, pl.v);
    }
    EXPECT_LT(vmin, vmax);
}

TEST(WifiPipeline, MeasuredPowerComparisonIsTable4Consistent)
{
    MappedWifiRun run =
        runMappedWifi(smallRun(SchedulerKind::Compiled));

    // The ACS columns dominate at the top supply in both pricings,
    // so multiple voltage domains save little on this application —
    // consistent in sign and magnitude (+-10 pp) with the paper's
    // Table 4 802.11a row (3% saved).
    int paper_pct = 0;
    for (const auto &row : paperAppTotals()) {
        if (row.app == "802.11a")
            paper_pct = row.savings_pct;
    }
    EXPECT_EQ(paper_pct, 3);
    EXPECT_GE(run.power.single_v.total(), run.power.multi_v.total());
    EXPECT_NEAR(run.power.savingsPct(), double(paper_pct), 10.0);

    for (const auto &load : run.power.loads)
        EXPECT_LE(load.v, run.power.vmax);
    EXPECT_GT(run.achieved_bit_rate_hz, 0);
}
