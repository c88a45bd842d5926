/** @file Static plan/program verifier: planted safety violations are
 * each rejected with a specific finding, the four committed app
 * lowerings verify clean on both bus settings (with their exact
 * reports and safe-transition tables pinned), and the explorer
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
#include "power/dvfs.hh"
#include "power/vf_model.hh"

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

/** Every registry artifact at default params, in name order. */
std::vector<LoweredArtifact>
registryArtifacts()
{
    std::vector<LoweredArtifact> artifacts;
    for (const std::string &name :
         apps::AppRegistry::instance().names())
        artifacts.push_back(
            apps::AppRegistry::instance().at(name).verifiable());
    return artifacts;
}

/** The registry artifact named @p name at default params. */
LoweredArtifact
registryArtifact(const std::string &name)
{
    return apps::AppRegistry::instance().at(name).verifiable();
}

/** A safe-transition table as short text lines: a header, then per
 * point its rate scale and dividers followed by its ZORM settings
 * three to a line. */
std::vector<std::string>
tableLines(const std::string &app,
           const power::SafeTransitionTable &table)
{
    std::vector<std::string> out;
    out.push_back(strprintf("%s: %zu points %zu rejected",
                            app.c_str(), table.points().size(),
                            table.rejected()));
    for (const power::DvfsOperatingPoint &pt : table.points()) {
        std::string line = strprintf("x%.6f div", pt.rate_scale);
        for (unsigned d : pt.dividers)
            line += strprintf(" %u", d);
        out.push_back(line);
        for (size_t i = 0; i < pt.zorms.size(); i += 3) {
            line = " ";
            for (size_t j = i; j < pt.zorms.size() && j < i + 3; ++j)
                line += strprintf(" c%u:%u/%u", pt.zorm_columns[j],
                                  pt.zorms[j].nops,
                                  pt.zorms[j].period);
            out.push_back(line);
        }
    }
    return out;
}

} // namespace

TEST(Verifier, CommittedReportsArePinned)
{
    // The exact report text of every committed lowering on both bus
    // settings, and of the diamond fork/join. The analyses may get
    // faster; what they find may not change.
    struct Pinned
    {
        const char *name;
        bool self_timed;
        const char *render;
    };
    const std::vector<Pinned> want = {
        {"ddc", false,
         R"(static verification: PASS (0 errors, 0 warnings, 0 notes)
  program: pass
  slots:   pass
  tags:    pass
  tokens:  pass
  zorm:    pass
)"},
        {"ddc", true,
         R"(static verification: PASS (0 errors, 0 warnings, 0 notes)
  program: pass
  slots:   pass
  tags:    pass
  tokens:  pass
  zorm:    pass
)"},
        {"motion", true,
         R"(static verification: PASS (0 errors, 0 warnings, 0 notes)
  program: pass
  slots:   pass
  tags:    pass
  tokens:  pass
  zorm:    pass
)"},
        {"motion", false,
         R"(static verification: PASS (0 errors, 1 warnings, 0 notes)
  program: pass
  slots:   pass
  tags:    pass
  tokens:  pass
  zorm:    pass
  [warning] tokens: drop-new overrun freedom not statically provable: some program's issue timing is data-dependent; the runner's fabric asserts cover it dynamically
)"},
        {"stereo", true,
         R"(static verification: PASS (0 errors, 0 warnings, 5 notes)
  program: pass
  slots:   pass
  tags:    pass
  tokens:  pass
  zorm:    pass
  [note] tags: actor 'sad-0': data-dependent branch at pc 15 spans communication; token counts checked by lane membership only
  [note] tags: actor 'sad-1': data-dependent branch at pc 15 spans communication; token counts checked by lane membership only
  [note] tags: actor 'sad-2': data-dependent branch at pc 15 spans communication; token counts checked by lane membership only
  [note] tags: actor 'sad-3': data-dependent branch at pc 15 spans communication; token counts checked by lane membership only
  [note] tokens: deadlock freedom not statically provable: some comm sequence is data-dependent; the runner's drain asserts cover it dynamically
)"},
        {"stereo", false,
         R"(static verification: PASS (0 errors, 1 warnings, 4 notes)
  program: pass
  slots:   pass
  tags:    pass
  tokens:  pass
  zorm:    pass
  [note] tags: actor 'sad-0': data-dependent branch at pc 15 spans communication; token counts checked by lane membership only
  [note] tags: actor 'sad-1': data-dependent branch at pc 15 spans communication; token counts checked by lane membership only
  [note] tags: actor 'sad-2': data-dependent branch at pc 15 spans communication; token counts checked by lane membership only
  [note] tags: actor 'sad-3': data-dependent branch at pc 15 spans communication; token counts checked by lane membership only
  [warning] tokens: drop-new overrun freedom not statically provable: some program's issue timing is data-dependent; the runner's fabric asserts cover it dynamically
)"},
        {"wifi", true,
         R"(static verification: PASS (0 errors, 0 warnings, 0 notes)
  program: pass
  slots:   pass
  tags:    pass
  tokens:  pass
  zorm:    pass
)"},
        {"wifi", false,
         R"(static verification: PASS (0 errors, 1 warnings, 0 notes)
  program: pass
  slots:   pass
  tags:    pass
  tokens:  pass
  zorm:    pass
  [warning] tokens: drop-new overrun freedom not statically provable: some program's issue timing is data-dependent; the runner's fabric asserts cover it dynamically
)"},
        {"diamond", true,
         R"(static verification: PASS (0 errors, 0 warnings, 0 notes)
  program: pass
  slots:   pass
  tags:    pass
  tokens:  pass
  zorm:    pass
)"},
        {"diamond", false,
         R"(static verification: PASS (0 errors, 0 warnings, 0 notes)
  program: pass
  slots:   pass
  tags:    pass
  tokens:  pass
  zorm:    pass
)"},
    };

    std::vector<LoweredArtifact> artifacts = registryArtifacts();
    DagSpec dspec = diamondSpec(50);
    ChipPlan dplan = diamondPlan();
    LoweredArtifact diamond;
    diamond.name = "diamond";
    diamond.spec = dspec;
    diamond.plan = dplan;
    diamond.prog = lowerDag(dspec, dplan, 10e6);
    diamond.iterations_per_sec = 10e6;
    diamond.slack = 1.4;
    artifacts.push_back(diamond);

    size_t checked = 0;
    for (LoweredArtifact &art : artifacts) {
        for (int flip = 0; flip < 2; ++flip) {
            for (const Pinned &p : want) {
                if (art.name != p.name ||
                    art.prog.self_timed != p.self_timed)
                    continue;
                EXPECT_EQ(art.verify().render(), p.render)
                    << art.name << " self_timed=" << p.self_timed;
                ++checked;
            }
            art.prog.self_timed = !art.prog.self_timed;
        }
    }
    EXPECT_EQ(checked, want.size());

    // The DVFS safe-transition tables at the bench_dvfs shapes: every
    // point, its dividers and its ZORM settings, plus the rejections.
    apps::DdcPipelineParams dp;
    dp.samples = 128;
    apps::WifiPipelineParams wp;
    wp.symbols = 2;
    const std::vector<power::DvfsAppHooks> hooks = {
        apps::dvfsView(apps::ddcSpec(), dp),
        apps::dvfsView(apps::wifiSpec(), wp),
        apps::dvfsView(apps::stereoSpec(),
                       apps::StereoPipelineParams{}),
        apps::dvfsView(apps::motionSpec(),
                       apps::MotionPipelineParams{})};
    const std::vector<std::string> want_tables = {
        "ddc: 5 points 1 rejected",
        "x0.250000 div 21 11 79 8 290",
        "  c0:1071429/28571429 c1:802841/10909091 c2:32437/7594937",
        "  c3:23/320 c4:3233/1034483",
        "x0.333333 div 16 8 59 6 218",
        "  c0:833333/37500000 c1:61/600 c2:86159/10169492",
        "  c3:23/320 c4:1147/1376147",
        "x0.500000 div 10 5 39 4 145",
        "  c0:1/12 c1:101/640 c2:51923/3076923",
        "  c3:23/320 c4:12931/4137931",
        "x0.750000 div 7 3 26 2 96",
        "  c0:1607143/42857143 c1:1549/6400 c2:389423/23076923",
        "  c3:389/1280 c4:1/100",
        "x1.000000 div 5 2 19 2 72",
        "  c0:1/12 c1:261/800 c2:1328947/31578947",
        "  c3:23/320 c4:83333/8333333",
        "wifi: 6 points 0 rejected",
        "x0.250000 div 129 83 5 5 64",
        "  c0:11877/4651163 c1:7487/7228916 c2:1457143/60000000",
        "  c3:1457143/60000000 c4:19643/3125000",
        "x0.333333 div 96 62 3 3 48",
        "  c0:32143/3125000 c1:48848/9677419 c2:21942857/100000000",
        "  c3:21942857/100000000 c4:78571/12500000",
        "x0.500000 div 64 41 2 2 32",
        "  c0:32143/3125000 c1:191289/14634146 c2:21942857/100000000",
        "  c3:21942857/100000000 c4:117857/18750000",
        "x0.666667 div 48 31 1 1 24",
        "  c0:128571/12500000 c1:97696/19354839 c2:287771429/600000000",
        "  c3:287771429/600000000 c4:157143/25000000",
        "x0.750000 div 43 27 1 1 21",
        "  c0:35631/13953488 c1:278968/11111111 c2:248742857/600000000",
        "  c3:248742857/600000000 c4:623215/28571429",
        "x1.000000 div 32 20 1 1 16",
        "  c0:192857/18750000 c1:557143/15000000 c2:131657143/600000000",
        "  c3:131657143/600000000 c4:117857/18750000",
        "stereo: 6 points 0 rejected",
        "x0.250000 div 4 21 21 21 21 71",
        "  c0:9289/93750 c1:210929/28571429 c2:210929/28571429",
        "  c3:210929/28571429 c4:210929/28571429 c5:2569/528169",
        "x0.333333 div 3 15 15 15 15 53",
        "  c0:19816533/200000000 c1:1093/20000 c2:1093/20000",
        "  c3:1093/20000 c4:1093/20000 c5:7197/754717",
        "x0.500000 div 2 10 10 10 10 35",
        "  c0:9289/93750 c1:1093/20000 c2:1093/20000",
        "  c3:1093/20000 c4:1093/20000 c5:323657/17142857",
        "x0.666667 div 1 7 7 7 7 26",
        "  c0:79877689/200000000 c1:720449/6122449 c2:720449/6122449",
        "  c3:720449/6122449 c4:720449/6122449 c5:651323/23076923",
        "x0.750000 div 1 7 7 7 7 23",
        "  c0:40539/125000 c1:45199/6122449 c2:45199/6122449",
        "  c3:45199/6122449 c4:45199/6122449 c5:858157/26086957",
        "x1.000000 div 1 5 5 5 5 17",
        "  c0:9289/93750 c1:1093/20000 c2:1093/20000",
        "  c3:1093/20000 c4:1093/20000 c5:275953/5882353",
        "motion: 6 points 0 rejected",
        "x0.250000 div 4 4 1293",
        "  c0:14371/200000 c1:14371/200000 c2:37/464037",
        "x0.333333 div 3 3 969",
        "  c0:14371/200000 c1:14371/200000 c2:528/619195",
        "x0.500000 div 2 2 646",
        "  c0:14371/200000 c1:14371/200000 c2:793/928793",
        "x0.666667 div 1 1 484",
        "  c0:114371/300000 c1:114371/300000 c2:2336/1239669",
        "x0.750000 div 1 1 431",
        "  c0:243113/800000 c1:243113/800000 c2:37/464037",
        "x1.000000 div 1 1 323",
        "  c0:14371/200000 c1:14371/200000 c2:317/371517",
    };
    power::VfModel vf;
    power::SupplyLevels levels(vf);
    std::vector<std::string> got;
    for (const power::DvfsAppHooks &h : hooks) {
        std::vector<std::string> lines =
            tableLines(h.name, power::SafeTransitionTable::build(
                                   h.artifact,
                                   power::DvfsGovernorConfig{}
                                       .rate_scales,
                                   levels));
        got.insert(got.end(), lines.begin(), lines.end());
    }
    EXPECT_EQ(got, want_tables);
}

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
    // Word 2 lands at tick 126, while word 1 is still unread.
    expectRejected([&] { lowerPipeline(stages, plan, 20e6); },
                   "read-buffer overrun reachable: the delivery at "
                   "tick 126 on lane 0 finds actor 'sink' still "
                   "holding the previous word");
}

TEST(Verifier, ShortenedDouWaitCounterDivergesAtExactCycle)
{
    // motion's me-1 column drives at offsets 1 and 13449 of a
    // 26896-cycle period; counter 0 times the wait between them.
    // One cycle less and the second drive state comes up a cycle
    // before the schedule's slot.
    LoweredArtifact art = registryArtifact("motion");
    ASSERT_EQ(art.prog.period, 26896u);
    ColumnProgram &col = art.prog.columns[1];
    ASSERT_EQ(col.actor, "me-1");
    ASSERT_EQ(col.dou.counter_init[0], 13446u);
    ASSERT_TRUE(art.verify().ok());
    col.dou.counter_init[0] -= 1;

    VerifyReport rep = art.verify();
    EXPECT_FALSE(rep.checkPassed("slots"));
    EXPECT_NE(rep.errorSummary().find(
                  "actor 'me-1': DOU output diverges from its "
                  "schedule at bus cycle 13448"),
              std::string::npos)
        << rep.errorSummary();
}

TEST(Verifier, DouThatMissesItsInitialStateRejected)
{
    // me-1's tail wait (counter 1) runs from offset 13450 to the
    // period's end. Shortened, the machine idles into its first
    // state a cycle early and ends the period one state ahead;
    // lengthened, the wait runs past the period's end. Neither
    // produces a wrong output inside the period, but both leave the
    // machine off its initial state, so later periods drift.
    for (int delta : {-1, +1}) {
        LoweredArtifact art = registryArtifact("motion");
        ColumnProgram &col = art.prog.columns[1];
        ASSERT_EQ(col.actor, "me-1");
        ASSERT_EQ(col.dou.counter_init[1], 13445u);
        col.dou.counter_init[1] = uint32_t(13445 + delta);

        VerifyReport rep = art.verify();
        EXPECT_FALSE(rep.checkPassed("slots")) << delta;
        EXPECT_EQ(rep.errorSummary(),
                  "[slots] actor 'me-1': DOU machine does not return "
                  "to its initial state after one period, so later "
                  "periods diverge from the schedule")
            << delta;
    }
}

TEST(Verifier, DuplicateTileSlotIsAFindingNotAThrow)
{
    // A tile that drives (or captures) twice in one bus cycle, on two
    // lanes, is a schedule no DOU state can encode: the verifier must
    // report it under "slots" instead of dying in the reference
    // interpreter.
    for (const LoweredArtifact &clean : registryArtifacts()) {
        for (size_t c = 0; c < clean.prog.columns.size(); ++c) {
            LoweredArtifact art = clean;
            CommSchedule &sched = art.prog.columns[c].schedule;
            ASSERT_FALSE(sched.transfers.empty());
            Transfer dup = sched.transfers.front();
            dup.lane = (dup.lane + 1) % arch::BusLanes;
            sched.transfers.push_back(dup);

            VerifyReport rep;
            ASSERT_NO_THROW(rep = art.verify()) << art.name << " " << c;
            EXPECT_FALSE(rep.checkPassed("slots")) << art.name;
            EXPECT_NE(rep.errorSummary().find(strprintf(
                          "actor '%s': schedule: tile 0 %s twice at "
                          "offset %u",
                          art.prog.columns[c].actor.c_str(),
                          dup.src_tile >= 0 ? "drives" : "captures",
                          dup.offset)),
                      std::string::npos)
                << rep.errorSummary();
        }
    }
}

TEST(Verifier, LongCommFreeNestedLoopStillExceedsWalkBudget)
{
    // A comm-free nested lsetup pair of 4095 x (1 + 4 x 4095) ~ 67M
    // issue slots in the source's prologue: past the walk's 50M-slot
    // budget, so the comm sequence is not claimed exact, however
    // cheaply the walk gets there.
    auto stages = twoActorStages(20);
    stages[0].prologue = R"(
        movi r1, 0
        movi r3, 0
        lsetup lc0, __outer, 4095
        lsetup lc1, __inner, 4095
        addi r3, 1
        addi r3, 1
        addi r3, 1
        addi r3, 1
    __inner:
    __outer:
        add r1, r1, r3
    )";
    ChipPlan plan = makePlan({"source", "sink"}, {1, 1},
                             {ZormSetting{}, ZormSetting{}});
    auto prog = lowerPipeline(stages, plan, 20e6);
    VerifyReport rep =
        verifyLowered(linearDagSpec(stages), plan, prog, 20e6, 1.4);
    EXPECT_TRUE(rep.ok()) << rep.render();
    EXPECT_NE(rep.render().find("[note] tags: actor 'source': walk "
                                "budget exceeded; token counts "
                                "checked by lane membership only"),
              std::string::npos)
        << rep.render();
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
    std::vector<LoweredArtifact> artifacts = registryArtifacts();
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
