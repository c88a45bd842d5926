/** @file Static plan/program verifier: planted safety violations are
 * each rejected with a specific finding, the four committed app
 * lowerings verify clean on both bus settings, and the explorer
 * filters provably-broken candidates before simulation. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/app_registry.hh"
#include "apps/motion_runner.hh"
#include "apps/pipeline_runner.hh"
#include "apps/stereo_runner.hh"
#include "apps/wifi_runner.hh"
#include "common/log.hh"
#include "mapping/codegen.hh"
#include "mapping/comm_schedule.hh"
#include "mapping/explorer.hh"
#include "mapping/verifier.hh"

using namespace synchro;
using namespace synchro::mapping;

namespace
{

constexpr uint32_t OutBase = 0x1000;

/** A hand-built plan: one actor per column (codegen_test idiom). */
ChipPlan
makePlan(const std::vector<std::string> &actors,
         const std::vector<unsigned> &dividers,
         const std::vector<ZormSetting> &zorm)
{
    ChipPlan plan;
    plan.ref_freq_mhz = 600.0;
    for (size_t i = 0; i < actors.size(); ++i) {
        ActorPlacement p;
        p.actor = actors[i];
        p.tiles = 1;
        p.first_column = unsigned(i);
        p.columns = 1;
        p.divider = dividers[i];
        p.f_column_mhz = plan.ref_freq_mhz / dividers[i];
        p.zorm = zorm[i];
        plan.placements.push_back(p);
        ++plan.total_tiles;
    }
    plan.total_columns = unsigned(actors.size());
    return plan;
}

/** The codegen_test two-actor chain: n*3+1 stream into a running
 * sum. Every register it touches is initialized. */
std::vector<PipelineStage>
twoActorStages(unsigned firings)
{
    PipelineStage src;
    src.actor = "source";
    src.prologue = "        movi r1, 0\n";
    src.body = R"(
        addi r1, 3
        mov r7, r1
        addi r7, -2
        cwr r7
    )";
    src.firings = firings;
    src.writes_per_firing = 1;

    PipelineStage sink;
    sink.actor = "sink";
    sink.prologue = strprintf("        movi r2, 0\n"
                              "        movpi p0, %u\n",
                              OutBase);
    sink.body = R"(
        crd r0
        add r2, r2, r0
        st.w r2, [p0]+4
    )";
    sink.firings = firings;
    sink.reads_per_firing = 1;
    return {src, sink};
}

/** The codegen_test diamond fork/join DAG (lane-tagged kernels). */
DagSpec
diamondSpec(unsigned firings)
{
    DagStage src;
    src.actor = "source";
    src.prologue = "        movi r1, 0\n";
    src.body = R"(
        addi r1, 1
        cwr r1, 0
        cwr r1, 1
    )";
    src.firings = firings;

    DagStage dbl;
    dbl.actor = "double";
    dbl.body = R"(
        crd r0, 0
        add r0, r0, r0
        cwr r0, 2
    )";
    dbl.firings = firings;

    DagStage tpl;
    tpl.actor = "triple";
    tpl.body = R"(
        crd r0, 1
        add r2, r0, r0
        add r0, r2, r0
        cwr r0, 3
    )";
    tpl.firings = firings;

    DagStage merge;
    merge.actor = "merge";
    merge.prologue = strprintf("        movpi p0, %u\n", OutBase);
    merge.body = R"(
        crd r0, 2
        crd r1, 3
        add r0, r0, r1
        st.w r0, [p0]+4
    )";
    merge.firings = firings;

    DagSpec spec;
    spec.stages = {src, dbl, tpl, merge};
    spec.edges = {
        {"source", "double", 1, 1},
        {"source", "triple", 1, 1},
        {"double", "merge", 1, 1},
        {"triple", "merge", 1, 1},
    };
    return spec;
}

ChipPlan
diamondPlan()
{
    return makePlan({"source", "double", "triple", "merge"},
                    {2, 1, 3, 2},
                    {ZormSetting{}, ZormSetting{}, ZormSetting{1, 5},
                     ZormSetting{}});
}

/** Expect @p fn to be statically rejected with @p needle in the
 * fatal message (which carries VerifyReport::errorSummary()). */
template <typename Fn>
void
expectRejected(Fn &&fn, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected a 'statically rejected' FatalError "
                  "mentioning \""
               << needle << "\"";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("statically rejected"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
}

} // namespace

TEST(Verifier, CleanLinearLoweringVerifies)
{
    ChipPlan plan = makePlan({"source", "sink"}, {2, 3},
                             {ZormSetting{}, ZormSetting{1, 4}});
    auto stages = twoActorStages(200);
    auto prog = lowerPipeline(stages, plan, 20e6);

    VerifyReport rep = verifyLowered(linearDagSpec(stages), plan,
                                     prog, 20e6, 1.4);
    EXPECT_TRUE(rep.ok()) << rep.render();
    for (const std::string &check : VerifyReport::checkNames())
        EXPECT_TRUE(rep.checkPassed(check)) << check;
    EXPECT_NE(rep.render().find("PASS"), std::string::npos);
    EXPECT_TRUE(rep.errorSummary().empty());
}

TEST(Verifier, UninitializedRegisterReadRejected)
{
    // The sink folds r3 into its sum, but nothing ever writes r3 —
    // it would observe the architectural reset value.
    auto stages = twoActorStages(50);
    stages[1].prologue = strprintf("        movpi p0, %u\n", OutBase);
    stages[1].body = R"(
        crd r0
        add r2, r0, r3
        st.w r2, [p0]+4
    )";
    ChipPlan plan = makePlan({"source", "sink"}, {1, 1},
                             {ZormSetting{}, ZormSetting{}});
    expectRejected(
        [&] { lowerPipeline(stages, plan, 20e6); },
        "uninitialized");
}

TEST(Verifier, MismatchedJoinLaneTagRejected)
{
    // The join reads lane 5, which is not one of its input edges
    // (lanes 2 and 3) — the tagged pop would wait forever.
    DagSpec spec = diamondSpec(50);
    spec.stages[3].body = R"(
        crd r0, 5
        crd r1, 3
        add r0, r0, r1
        st.w r0, [p0]+4
    )";
    expectRejected(
        [&] { lowerDag(spec, diamondPlan(), 10e6); },
        "mismatched lane tag");
}

TEST(Verifier, ConflictingSlotAssignmentRejected)
{
    DagSpec spec = diamondSpec(50);
    ChipPlan plan = diamondPlan();
    auto prog = lowerDag(spec, plan, 10e6);

    // Plant a second drive on a bus cycle the source already owns:
    // copy one of the source's drive slots into the 'double' column
    // and recompile that column's DOU so the machine itself is
    // internally consistent — only the *global* schedule is broken.
    const Transfer *drive = nullptr;
    for (const Transfer &t : prog.columns[0].schedule.transfers) {
        if (t.src_tile >= 0)
            drive = &t;
    }
    ASSERT_NE(drive, nullptr);
    prog.columns[1].schedule.transfers.push_back(*drive);
    prog.columns[1].dou =
        compileSchedule(prog.columns[1].schedule);

    VerifyReport rep = verifyLowered(spec, plan, prog, 10e6, 1.4);
    EXPECT_FALSE(rep.ok());
    EXPECT_FALSE(rep.checkPassed("slots"));
    EXPECT_NE(rep.errorSummary().find("conflicting slot"),
              std::string::npos)
        << rep.errorSummary();
}

TEST(Verifier, LookaheadHorizonDisagreementRejected)
{
    // A single-edge chain has one slot per period, so the schedule's
    // comm-quiet floor is period-1 — a nonzero horizon the lowering
    // must export and the verifier must recompute.
    ChipPlan plan = makePlan({"source", "sink"}, {2, 3},
                             {ZormSetting{}, ZormSetting{}});
    auto stages = twoActorStages(100);
    auto prog = lowerPipeline(stages, plan, 20e6);
    DagSpec spec = linearDagSpec(stages);

    ASSERT_GT(prog.lookahead_horizon, 0u);
    EXPECT_EQ(prog.lookahead_horizon, prog.period - 1);
    VerifyReport base = verifyLowered(spec, plan, prog, 20e6, 1.4);
    EXPECT_TRUE(base.ok()) << base.render();

    // Declare one phase more lookahead than the slot schedule
    // supports: a runtime trusting it could free-run a column
    // through a delivery slot. The verifier must recompute the
    // floor from the slots themselves and reject the disagreement.
    prog.lookahead_horizon += 1;
    VerifyReport rep = verifyLowered(spec, plan, prog, 20e6, 1.4);
    EXPECT_FALSE(rep.ok());
    EXPECT_FALSE(rep.checkPassed("slots"));
    EXPECT_NE(rep.errorSummary().find("lookahead horizon"),
              std::string::npos)
        << rep.errorSummary();

    // Declaring no horizon at all is legal (a Note, not an error):
    // the Compiled window walk then relies on its dynamic
    // comm-quiet probe alone.
    prog.lookahead_horizon = 0;
    VerifyReport none = verifyLowered(spec, plan, prog, 20e6, 1.4);
    EXPECT_TRUE(none.ok()) << none.render();
    EXPECT_TRUE(none.checkPassed("slots"));
    EXPECT_NE(none.render().find("no lookahead"), std::string::npos);
}

TEST(Verifier, OverrunReachableBufferBoundRejected)
{
    // On the legacy (drop-new) bus, a consumer that computes ~200
    // slots per firing against a delivery grid of ~42 ticks provably
    // still holds word k when word k+1 arrives.
    auto stages = twoActorStages(50);
    stages[1].prologue = strprintf("        movi r2, 0\n"
                                   "        movi r3, 0\n"
                                   "        movpi p0, %u\n",
                                   OutBase);
    stages[1].body = R"(
        crd r0
        add r2, r2, r0
        lsetup lc1, __burn, 200
        addi r3, 1
    __burn:
        st.w r2, [p0]+4
    )";
    ChipPlan plan = makePlan({"source", "sink"}, {1, 1},
                             {ZormSetting{}, ZormSetting{}});
    expectRejected(
        [&] { lowerPipeline(stages, plan, 20e6); }, "overrun");
}

TEST(Verifier, ZormMismatchRejected)
{
    ChipPlan plan = makePlan({"source", "sink"}, {2, 3},
                             {ZormSetting{}, ZormSetting{1, 4}});
    auto stages = twoActorStages(100);
    auto prog = lowerPipeline(stages, plan, 20e6);

    // A column loaded with a different ZORM pacing than its
    // placement planned runs at the wrong rate.
    prog.columns[1].zorm.nops += 1;

    VerifyReport rep = verifyLowered(linearDagSpec(stages), plan,
                                     prog, 20e6, 1.4);
    EXPECT_FALSE(rep.ok());
    EXPECT_FALSE(rep.checkPassed("zorm"));
    EXPECT_NE(rep.errorSummary().find("ZORM"), std::string::npos)
        << rep.errorSummary();
}

TEST(Verifier, CommittedAppLoweringsVerifyCleanOnBothBusSettings)
{
    // Every registered app's committed lowering, straight from the
    // registry at default params.
    std::vector<LoweredArtifact> artifacts;
    for (const std::string &name :
         apps::AppRegistry::instance().names())
        artifacts.push_back(
            apps::AppRegistry::instance().at(name).verifiable());
    EXPECT_EQ(artifacts.size(), 4u);
    for (LoweredArtifact &art : artifacts) {
        VerifyReport committed = art.verify();
        EXPECT_TRUE(committed.ok())
            << art.name << "\n" << committed.render();
        // Flipping the bus mode changes what the "tokens" check must
        // prove (drop-new replay vs Kahn replay); both directions
        // must still be free of provable violations.
        art.prog.self_timed = !art.prog.self_timed;
        VerifyReport flipped = art.verify();
        EXPECT_TRUE(flipped.ok())
            << art.name << " (flipped bus)\n" << flipped.render();
    }
}

TEST(Verifier, RateScaledExplorerVariantsVerifyClean)
{
    // Regression: exactRateMatch() reduces the fraction of the two
    // rates rounded to integer Hz, so a rate-scaled plan's loaded
    // ZORM fraction can differ from the unrounded MHz ratio by the
    // Hz quantization. The verifier must tolerate what the mapper
    // itself emits — the 0.75/0.90 wifi rate variants are exactly
    // the settings a tighter zorm tolerance falsely rejects.
    mapping::ExplorableApp app =
        apps::AppRegistry::instance().at("wifi").explorable();
    ExploreOptions opt;
    opt.rate_factors = {0.75, 0.90};
    opt.divider_steps = 0;
    opt.crosscheck_frontier = false;
    opt.threads = 1;
    ExplorationResult res = explorePlans(app, opt);
    EXPECT_EQ(res.statically_rejected, 0u);
    for (const MeasuredPoint &pt : res.points)
        EXPECT_TRUE(pt.ran) << pt.label << ": " << pt.failure;
}

TEST(Verifier, ExplorerFiltersBrokenCandidateBeforeSimulation)
{
    apps::DdcPipelineParams p;
    p.samples = 512;
    mapping::ExplorableApp app =
        apps::AppRegistry::instance().at("ddc").explorable(p);

    // A candidate whose placement claims a column frequency that is
    // not ref/divider — nothing a simulation would ever notice (the
    // chip is built from the dividers alone), but provably an
    // inconsistent plan. The verifier gate must reject it at
    // lowering time, before any chip is staged.
    PlanVariant broken;
    broken.label = "broken";
    broken.plan = app.baseline;
    broken.plan.placements[0].f_column_mhz += 17.0;
    broken.iterations_per_sec = app.iterations_per_sec;
    app.shard_variants.push_back(broken);

    ExploreOptions opt;
    opt.rate_factors = {};
    opt.divider_steps = 0;
    opt.crosscheck_frontier = false;
    opt.threads = 1;

    ExplorationResult res = explorePlans(app, opt);
    EXPECT_EQ(res.statically_rejected, 1u);

    bool found = false;
    for (const MeasuredPoint &pt : res.points) {
        if (pt.label != "broken")
            continue;
        found = true;
        EXPECT_FALSE(pt.ran);
        EXPECT_NE(pt.failure.find("statically rejected"),
                  std::string::npos)
            << pt.failure;
    }
    EXPECT_TRUE(found);
    // The baseline still simulated and measured bit-exactly.
    ASSERT_FALSE(res.points.empty());
    EXPECT_TRUE(res.points[0].ran) << res.points[0].failure;
    EXPECT_TRUE(res.points[0].bit_exact);
    EXPECT_NE(res.report().find("statically rejected"),
              std::string::npos);
}
