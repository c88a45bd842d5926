/** @file Online DVFS governor: safe-transition table proofs,
 * planted-unsafe rejection, steady-phase convergence to the measured
 * oracle, backend determinism, and the epoch-faithful power
 * attribution under mid-run rate steps. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/app_registry.hh"
#include "apps/motion_runner.hh"
#include "apps/pipeline_runner.hh"
#include "apps/stereo_runner.hh"
#include "apps/wifi_runner.hh"
#include "common/log.hh"
#include "power/dvfs.hh"
#include "sim/fleet.hh"
#include "sim/traffic.hh"

using namespace synchro;
using namespace synchro::power;

namespace
{

using apps::ddcSpec;
using apps::DdcPipelineParams;
using apps::dvfsView;

/** The small DDC shape every test here governs. */
DdcPipelineParams
testParams()
{
    DdcPipelineParams p;
    p.samples = 128;
    return p;
}

GovernedRunResult
runPolicy(const DvfsAppHooks &app, const sim::TrafficScenario &sc,
          DvfsPolicy pol,
          SchedulerKind backend = SchedulerKind::Compiled)
{
    GovernedRunOptions opt;
    opt.policy = pol;
    opt.scheduler = backend;
    opt.keep_outputs = true;
    return runGoverned(app, sc, opt);
}

} // namespace

// ---------------------------------------------------------------
// The per-app specs and the views the registry derives from them.

namespace
{

/**
 * Every view of @p spec agrees with the app's cold run: (i) for items
 * 0 and 1 the fleet view serves golden(k), which is also the output
 * of a cold runMappedX (@p cold) at seed fleetItemSeed(p.seed, k);
 * (ii) the dvfs view's workload serves its artifact's own program.
 */
template <typename P, typename I, typename O, typename Cold>
void
checkSpecViews(const apps::MappedAppSpec<P, I, O> &spec, const P &p,
               Cold cold)
{
    SCOPED_TRACE(spec.name);
    const apps::AppDescriptor &d =
        apps::AppRegistry::instance().at(spec.name);

    const sim::FleetWorkload wl = d.fleet(p);
    for (uint64_t k = 0; k < 2; ++k) {
        auto chip = wl.build(p.scheduler);
        wl.feed(*chip, k);
        ASSERT_EQ(int(chip->run(wl.tick_limit).exit),
                  int(arch::RunExit::AllHalted));
        P q = p;
        q.seed = sim::fleetItemSeed(p.seed, k);
        const std::vector<uint8_t> golden = wl.golden(k);
        EXPECT_EQ(wl.read_output(*chip), golden) << "item " << k;
        EXPECT_EQ(cold(q), golden) << "item " << k;
    }

    const DvfsAppHooks h = d.dvfs(p);
    EXPECT_EQ(h.name, spec.name);
    EXPECT_EQ(h.iterations_per_item, spec.iterations_per_item(p));
    EXPECT_FALSE(h.traffic.phases.empty());
    EXPECT_EQ(h.workload.tick_limit,
              spec.tick_limit(p, h.artifact.plan, h.artifact.prog));
    auto served = h.workload.build(p.scheduler);
    auto own = mapping::buildChip(h.artifact.plan, h.artifact.prog,
                                  p.scheduler);
    const arch::RunResult rs = served->run(h.workload.tick_limit);
    const arch::RunResult ro = own->run(h.workload.tick_limit);
    ASSERT_EQ(int(rs.exit), int(arch::RunExit::AllHalted));
    EXPECT_EQ(rs.ticks, ro.ticks);
    EXPECT_EQ(h.workload.read_output(*served), h.workload.read_output(*own));
    EXPECT_EQ(h.workload.read_output(*served), cold(p));
}

} // namespace

TEST(AppRegistry, EveryAppSpecDerivesConsistentViews)
{
    const apps::AppRegistry &reg = apps::AppRegistry::instance();
    EXPECT_EQ(reg.names(),
              (std::vector<std::string>{"ddc", "motion", "stereo",
                                        "wifi"}));

    checkSpecViews(ddcSpec(), testParams(),
                   [](const DdcPipelineParams &q) {
                       return apps::bytesOfHalves(
                           apps::runMappedDdc(q).output);
                   });
    apps::WifiPipelineParams wp;
    wp.symbols = 2;
    checkSpecViews(apps::wifiSpec(), wp,
                   [](const apps::WifiPipelineParams &q) {
                       return apps::runMappedWifi(q).output;
                   });
    checkSpecViews(apps::stereoSpec(), apps::StereoPipelineParams{},
                   [](const apps::StereoPipelineParams &q) {
                       return apps::runMappedStereo(q).output;
                   });
    checkSpecViews(apps::motionSpec(), apps::MotionPipelineParams{},
                   [](const apps::MotionPipelineParams &q) {
                       return apps::bytesOfWords(
                           apps::runMappedMotion(q).output_keys);
                   });

    // (iii) A params struct of another app is fatal, naming the app.
    try {
        reg.at("ddc").fleet(wp);
        FAIL() << "a WifiPipelineParams reached the ddc fleet view";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("'ddc'"), std::string::npos)
            << e.what();
    }
    EXPECT_THROW(reg.at("nope"), FatalError);
}

// ---------------------------------------------------------------
// Traffic scenarios: deterministic, seed-sensitive.

TEST(Traffic, ScenarioIsAPureFunctionOfItsSpec)
{
    sim::TrafficSpec spec = sim::TrafficSpec::bursty(7);
    sim::TrafficScenario a(spec), b(spec);
    ASSERT_EQ(a.events().size(), b.events().size());
    for (size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].item, b.events()[i].item);
        EXPECT_EQ(a.events()[i].idle, b.events()[i].idle);
        EXPECT_DOUBLE_EQ(a.events()[i].windows,
                         b.events()[i].windows);
    }
    EXPECT_DOUBLE_EQ(a.totalWindows(), b.totalWindows());

    // A different seed jitters differently but keeps the shape.
    sim::TrafficScenario c(sim::TrafficSpec::bursty(8));
    ASSERT_EQ(a.events().size(), c.events().size());
    EXPECT_NE(a.totalWindows(), c.totalWindows());
}

// ---------------------------------------------------------------
// The safe-transition table.

TEST(SafeTransitionTable, EveryPointCarriesItsOwnStaticProof)
{
    DvfsAppHooks app = dvfsView(ddcSpec(), testParams());
    VfModel vf;
    SupplyLevels levels(vf);
    DvfsGovernorConfig cfg;
    SafeTransitionTable table = SafeTransitionTable::build(
        app.artifact, cfg.rate_scales, levels);

    ASSERT_GE(table.points().size(), 2u);
    EXPECT_EQ(
        table.points()[table.baselineIndex()].rate_scale, 1.0);
    EXPECT_EQ(table.points()[table.baselineIndex()].dividers,
              app.artifact.plan.dividers());

    double prev = 0;
    for (const DvfsOperatingPoint &pt : table.points()) {
        EXPECT_GT(pt.rate_scale, prev); // sorted, ascending
        prev = pt.rate_scale;
        // Re-run the gate each point already passed at build time.
        EXPECT_TRUE(SafeTransitionTable::candidateVerifies(
            app.artifact, pt.plan, pt.zorms));
        EXPECT_TRUE(table.contains(pt.dividers));
    }
}

TEST(SafeTransitionTable, PlantedUnsafeCandidateFailsItsProof)
{
    DvfsAppHooks app = dvfsView(ddcSpec(), testParams());
    VfModel vf;
    SupplyLevels levels(vf);
    SafeTransitionTable table = SafeTransitionTable::build(
        app.artifact, DvfsGovernorConfig{}.rate_scales, levels);

    // Tamper the baseline's ZORM so the column pads nearly every
    // slot: the compute can no longer fit the delivery grid and the
    // static proof must reject it.
    const DvfsOperatingPoint &base =
        table.points()[table.baselineIndex()];
    std::vector<mapping::ZormSetting> bad = base.zorms;
    ASSERT_FALSE(bad.empty());
    bad[0].period = bad[0].period ? bad[0].period : 16;
    bad[0].nops = bad[0].period - 1;
    EXPECT_FALSE(SafeTransitionTable::candidateVerifies(
        app.artifact, base.plan, bad));

    // A mismatched vector length is rejected outright.
    std::vector<mapping::ZormSetting> short_vec(
        base.zorms.begin(), base.zorms.end() - 1);
    if (base.zorms.size() > 1) {
        EXPECT_FALSE(SafeTransitionTable::candidateVerifies(
            app.artifact, base.plan, short_vec));
    }
}

TEST(DvfsGovernor, UnprovenDividerVectorIsRejectedNotApplied)
{
    DvfsAppHooks app = dvfsView(ddcSpec(), testParams());
    VfModel vf;
    SupplyLevels levels(vf);
    SafeTransitionTable table = SafeTransitionTable::build(
        app.artifact, DvfsGovernorConfig{}.rate_scales, levels);

    auto chip = app.workload.build(SchedulerKind::Compiled);
    DvfsGovernor gov(table, 1e6);

    // Plant a transition with no precomputed proof: the baseline
    // vector with one column's divider nudged.
    std::vector<unsigned> unsafe = app.artifact.plan.dividers();
    unsafe[0] += 1;
    ASSERT_FALSE(table.contains(unsafe));
    EXPECT_FALSE(gov.applyDividers(*chip, unsafe));
    EXPECT_TRUE(gov.applied().empty());

    // The same call through the table's own points succeeds, and
    // every applied transition is a table index.
    EXPECT_TRUE(
        gov.applyDividers(*chip, table.points().front().dividers));
    ASSERT_EQ(gov.applied().size(), 1u);
    EXPECT_LT(gov.applied()[0], table.points().size());
    EXPECT_EQ(gov.applied()[0], 0u);
}

// ---------------------------------------------------------------
// Governed serving.

TEST(DvfsGovernor, ConvergesToTheOracleOnASteadySlowPhase)
{
    DvfsAppHooks app = dvfsView(ddcSpec(), testParams());
    // A steady trickle at a tenth of the mapped rate: windows are so
    // wide that even the headroom-inflated estimate of the slowest
    // point fits, so the governor must settle exactly where the
    // measured oracle sits.
    sim::TrafficScenario sc(sim::TrafficSpec::steady(11, 0.1, 6));

    GovernedRunResult gov =
        runPolicy(app, sc, DvfsPolicy::Governed);
    GovernedRunResult orc = runPolicy(app, sc, DvfsPolicy::Oracle);

    ASSERT_TRUE(gov.bit_exact) << gov.first_failure;
    ASSERT_TRUE(orc.bit_exact) << orc.first_failure;
    ASSERT_EQ(gov.trajectory.size(), 6u);
    EXPECT_EQ(gov.deadline_misses, 0u);

    // Item 0 calibrates at the baseline; every later item runs at
    // the oracle's point.
    EXPECT_EQ(gov.trajectory[0],
              size_t(gov.table_points - 1)); // baseline is last
    for (size_t i = 1; i < gov.trajectory.size(); ++i)
        EXPECT_EQ(gov.trajectory[i], orc.trajectory[i])
            << "item " << i;

    // Same delivered bytes under every policy.
    EXPECT_EQ(gov.outputs, orc.outputs);
}

TEST(DvfsGovernor, BurstyRunIsDeterministicAcrossBackends)
{
    DvfsAppHooks app = dvfsView(ddcSpec(), testParams());
    sim::TrafficScenario sc(sim::TrafficSpec::bursty(2004, 2));

    GovernedRunResult ref = runPolicy(app, sc, DvfsPolicy::Governed,
                                      SchedulerKind::EventQueue);
    ASSERT_TRUE(ref.bit_exact) << ref.first_failure;
    ASSERT_GT(ref.items, 0u);
    for (size_t t : ref.trajectory)
        EXPECT_LT(t, ref.table_points);

    GovernedRunResult r = runPolicy(app, sc, DvfsPolicy::Governed,
                                    SchedulerKind::Compiled);
    EXPECT_TRUE(r.bit_exact) << r.first_failure;
    EXPECT_EQ(r.trajectory, ref.trajectory);
    EXPECT_EQ(r.busy_ticks, ref.busy_ticks);
    EXPECT_EQ(r.deadline_misses, ref.deadline_misses);
    EXPECT_EQ(r.outputs, ref.outputs);
}

TEST(DvfsGovernor, GovernedBeatsStaticAtEqualOutputOnBurstyTraffic)
{
    DvfsAppHooks app = dvfsView(ddcSpec(), testParams());
    sim::TrafficScenario sc(sim::TrafficSpec::bursty(2004));

    GovernedRunResult st = runPolicy(app, sc, DvfsPolicy::Static);
    GovernedRunResult gov =
        runPolicy(app, sc, DvfsPolicy::Governed);

    ASSERT_TRUE(st.bit_exact) << st.first_failure;
    ASSERT_TRUE(gov.bit_exact) << gov.first_failure;
    EXPECT_EQ(st.outputs, gov.outputs); // equal delivered output
    EXPECT_LT(gov.power.multi_v.total(), st.power.multi_v.total());

    // The static run never reconfigures; the governed one must have.
    EXPECT_EQ(st.epochs.size(), 1u);
    EXPECT_GT(gov.epochs.size(), 1u);
}

// ---------------------------------------------------------------
// Epoch-faithful power attribution.

TEST(ActivityEpochs, IdenticalEpochsPriceLikeOneEpoch)
{
    DvfsAppHooks app = dvfsView(ddcSpec(), testParams());
    sim::TrafficScenario sc(sim::TrafficSpec::steady(3, 1.0, 2));
    GovernedRunResult st = runPolicy(app, sc, DvfsPolicy::Static);
    ASSERT_EQ(st.epochs.size(), 1u);

    VfModel vf;
    SupplyLevels levels(vf);
    SystemPowerModel model;
    unsigned cols = unsigned(st.epochs[0].activity.columns.size());

    // Splitting one epoch into two identical halves (same loads,
    // same voltages) must not change the priced power.
    ActivityEpoch half = st.epochs[0];
    half.seconds /= 2;
    for (auto &c : half.activity.columns) {
        c.compute_slots /= 2;
        c.branch_stalls /= 2;
        c.comm_stall_slots /= 2;
        c.zorm_nops /= 2;
        c.issue_slots = c.compute_slots + c.branch_stalls +
                        c.comm_stall_slots + c.zorm_nops;
    }
    half.activity.bus_transfers /= 2;
    half.activity.wire_span_sum /= 2;

    MeasuredComparison one =
        priceActivityEpochs({half}, cols, levels, model);
    MeasuredComparison two =
        priceActivityEpochs({half, half}, cols, levels, model);
    EXPECT_NEAR(two.multi_v.total(), one.multi_v.total(),
                1e-6 * one.multi_v.total());
    EXPECT_NEAR(two.single_v.total(), one.single_v.total(),
                1e-6 * one.single_v.total());
    EXPECT_DOUBLE_EQ(two.vmax, one.vmax);
}

TEST(ActivityEpochs, MidRunRateStepIsPricedPerEpochNotAggregated)
{
    DvfsAppHooks app = dvfsView(ddcSpec(), testParams());
    // Full-rate burst, then a long slow trickle: the governed run
    // retunes mid-stream, so its activity spans two very different
    // V/f regimes.
    sim::TrafficSpec spec;
    spec.seed = 5;
    spec.jitter = 0;
    spec.phases = {{1.0, 3, 0.0}, {0.1, 5, 0.0}};
    sim::TrafficScenario sc(spec);

    GovernedRunResult gov =
        runPolicy(app, sc, DvfsPolicy::Governed);
    ASSERT_TRUE(gov.bit_exact) << gov.first_failure;
    ASSERT_GT(gov.epochs.size(), 1u);

    VfModel vf;
    SupplyLevels levels(vf);
    SystemPowerModel model;
    unsigned cols =
        unsigned(gov.epochs[0].activity.columns.size());

    // The naive attribution this PR fixes: squash every epoch into
    // one and price the whole stream at one averaged V/f point.
    ActivityEpoch merged = gov.epochs[0];
    for (size_t i = 1; i < gov.epochs.size(); ++i) {
        const ActivityEpoch &e = gov.epochs[i];
        merged.seconds += e.seconds;
        for (size_t c = 0; c < merged.activity.columns.size(); ++c) {
            auto &a = merged.activity.columns[c];
            const auto &b = e.activity.columns[c];
            a.compute_slots += b.compute_slots;
            a.branch_stalls += b.branch_stalls;
            a.comm_stall_slots += b.comm_stall_slots;
            a.zorm_nops += b.zorm_nops;
            a.issue_slots += b.issue_slots;
        }
        merged.activity.bus_transfers += e.activity.bus_transfers;
        merged.activity.wire_span_sum += e.activity.wire_span_sum;
    }
    MeasuredComparison naive =
        priceActivityEpochs({merged}, cols, levels, model);

    // Averaging the slow-phase slots across the whole stream melts
    // the full-rate burst's supply requirement into a mid V/f point:
    // the epoch-faithful price must differ measurably, and the
    // per-epoch vmax (the burst's real supply) must survive.
    double faithful = gov.power.multi_v.total();
    EXPECT_GT(std::abs(naive.multi_v.total() - faithful),
              0.005 * faithful);
    EXPECT_GE(gov.power.vmax, naive.vmax);
}
