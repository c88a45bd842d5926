/** @file End-to-end mapped-pipeline execution: the DDC receiver
 * planned by the AutoMapper, lowered by codegen, run cycle-accurately
 * and checked bit-exactly against the dsp:: golden chain — on every
 * scheduler backend. */

#include <gtest/gtest.h>

#include "apps/pipeline_runner.hh"
#include "test_util.hh"

using namespace synchro;
using namespace synchro::apps;

namespace
{

DdcPipelineParams
smallRun(SchedulerKind kind)
{
    DdcPipelineParams p;
    p.samples = 512; // keep the EventQueue leg fast
    p.scheduler = kind;
    return p;
}

} // namespace

TEST(Pipeline, MappedDdcMatchesGoldenOnEveryBackend)
{
    MappedDdcRun evq =
        runMappedDdc(smallRun(SchedulerKind::EventQueue));
    ASSERT_EQ(evq.output.size(), 512u / 8u);
    EXPECT_TRUE(evq.bit_exact);

    // The output must carry real signal, not a settle-time of zeros.
    unsigned nonzero = 0;
    for (int16_t v : evq.output)
        nonzero += v != 0;
    EXPECT_GT(nonzero, evq.output.size() / 2);

    // The static transfer schedule must never destroy data.
    EXPECT_EQ(evq.overruns, 0u);
    EXPECT_EQ(evq.conflicts, 0u);
    EXPECT_GT(evq.bus_transfers, 0u);

    for (SchedulerKind kind : synchro::test::AllSchedulerKinds) {
        if (kind == SchedulerKind::EventQueue)
            continue;
        MappedDdcRun run = runMappedDdc(smallRun(kind));
        const char *name = schedulerName(kind);

        // Bit-exact against the dsp:: reference chain, and backend
        // equivalence: same exit, same final tick, same output, every
        // statistic of the chip identical.
        EXPECT_TRUE(run.bit_exact) << name;
        EXPECT_EQ(run.output, evq.output) << name;
        EXPECT_EQ(run.result.exit, evq.result.exit) << name;
        EXPECT_EQ(run.ticks, evq.ticks) << name;
        EXPECT_EQ(run.stats, evq.stats) << name;
    }
}

TEST(Pipeline, PlanMapsEveryActorToItsOwnColumn)
{
    DdcPipelineParams p;
    auto plan = planDdc(p);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->placements.size(), 5u);
    EXPECT_EQ(plan->total_columns, 5u);
    // The SDF certificates exist: repetition (8,1,1,1,1), bounded
    // buffers on every edge.
    ASSERT_EQ(plan->repetition.size(), 5u);
    EXPECT_EQ(plan->repetition[0], 8u);
    for (size_t i = 1; i < 5; ++i)
        EXPECT_EQ(plan->repetition[i], 1u);
    EXPECT_EQ(plan->buffer_bounds.size(), 4u);
    // Multiple clock/voltage domains actually emerge.
    double vmin = 10, vmax = 0;
    for (const auto &pl : plan->placements) {
        vmin = std::min(vmin, pl.v);
        vmax = std::max(vmax, pl.v);
    }
    EXPECT_LT(vmin, vmax);
}

TEST(Pipeline, MeasuredPowerComparisonIsTable4Consistent)
{
    MappedDdcRun run = runMappedDdc(smallRun(SchedulerKind::Compiled));

    // Multi-V must beat single-V, and the saving must be consistent
    // in sign and magnitude (+-10 pp) with the paper's Table 4 DDC
    // row (11% saved by multiple voltage domains).
    EXPECT_GT(run.power.single_v.total(), run.power.multi_v.total());
    EXPECT_NEAR(run.power.savingsPct(), 11.0, 10.0);

    // Pricing at the achieved rate keeps every derived frequency at
    // or below its column clock, so the supply lookup always lands
    // on a real level.
    for (const auto &load : run.power.loads)
        EXPECT_LE(load.v, run.power.vmax);
    EXPECT_GT(run.achieved_sample_rate_hz, 0);
}
