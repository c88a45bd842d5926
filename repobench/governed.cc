/**
 * @file
 * Workload "governed": one op is one round of power::runGoverned
 * (Governed policy) for each of the four apps at their served shapes,
 * on bursty traffic with a fresh traffic seed per round. One chip per
 * call is reused and retuned between items, every call rebuilds its
 * safe-transition table, and every epoch is priced on its own.
 */

#include <cstdio>
#include <memory>
#include <optional>

#include "apps/app_registry.hh"
#include "bench.hh"
#include "common/log.hh"
#include "power/dvfs.hh"
#include "power/vf_model.hh"
#include "trace.hh"

using namespace synchro;

namespace repobench
{

namespace
{

constexpr int SetupRepeats = 7;

/** State the wrapped hooks share with the round loop (one thread). */
struct Probe
{
    uint64_t op = 0;
    /** Snapshot the chip's stats after item items_expected. */
    bool capture = false;
    uint64_t items_expected = 0;
    uint64_t items_seen = 0;
    std::map<std::string, uint64_t> stats;
    /** Corrupt the next golden (the failure self-test). */
    bool plant = false;
};

/** @p h with spans around its fleet hooks and a stats probe. */
power::DvfsAppHooks
probedHooks(power::DvfsAppHooks h, std::shared_ptr<Probe> probe)
{
    sim::FleetWorkload &w = h.workload;
    w.build = [build = w.build, probe](SchedulerKind kind) {
        Span s("arch.build", probe->op);
        return build(kind);
    };
    w.feed = [feed = w.feed, probe](arch::Chip &chip,
                                     uint64_t item) {
        Span s("arch.feed", probe->op);
        feed(chip, item);
    };
    w.read_output = [read = w.read_output, probe](arch::Chip &chip) {
        std::vector<uint8_t> out;
        {
            Span s("apps.readout", probe->op);
            out = read(chip);
        }
        if (probe->capture &&
            ++probe->items_seen == probe->items_expected) {
            probe->stats.clear();
            chip.forEachStat([&](const std::string &n, uint64_t v) {
                probe->stats[n] = v;
            });
        }
        return out;
    };
    w.golden = [golden = w.golden, probe](uint64_t item) {
        std::vector<uint8_t> want;
        {
            Span s("dsp.golden", probe->op);
            want = golden(item);
        }
        if (probe->plant) {
            probe->plant = false;
            want.at(0) ^= 1;
        }
        return want;
    };
    return h;
}

std::vector<power::DvfsAppHooks>
buildHooks(uint32_t seed, const std::shared_ptr<Probe> &probe)
{
    std::vector<power::DvfsAppHooks> hooks;
    for (size_t a = 0; a < NumApps; ++a) {
        const apps::AppDescriptor &d =
            apps::AppRegistry::instance().at(AppNames[a]);
        hooks.push_back(probedHooks(
            d.dvfs(appParams(a, Shape::Served, appSeed(seed, a))), probe));
    }
    return hooks;
}

struct Round
{
    std::string failure;
    double op_seconds = 0;
    uint64_t busy_ticks = 0;
    double multi_v_mw = 0;
    double sim_seconds = 0;
    uint64_t table_points = 0;
    uint64_t table_rejected = 0;
    uint64_t epochs = 0;
    uint64_t deadline_misses = 0;
    ArchCounts counts;
};

} // namespace

Report
runGovernedRounds(const Options &opt)
{
    Report rep;
    auto probe = std::make_shared<Probe>();
    // Spans are recorded only inside traced rounds.
    Tracer *const tracer = Tracer::active();
    Tracer::install(nullptr);

    // Set-up: the four apps' DVFS views (artifact + fleet hooks).
    std::vector<double> setup;
    const std::vector<power::DvfsAppHooks> hooks = timedSetup(
        SetupRepeats, setup, [&] { return buildHooks(opt.seed, probe); });

    guardOp(rep, Shape::Served, opt.seed);

    const power::GovernedRunOptions gopt; // Governed, default backend
    power::VfModel vf;
    const power::SupplyLevels levels(vf);

    auto runRound = [&](uint64_t r, bool tracing) {
        Round out;
        probe->op = r;
        probe->capture = r == 0 || tracing;
        Tracer::install(tracing ? tracer : nullptr);
        const double t0 = nowSeconds();
        try {
            std::optional<Span> op;
            if (tracing)
                op.emplace("op", r);
            for (size_t a = 0; a < NumApps; ++a) {
                sim::TrafficScenario scenario(sim::TrafficSpec::bursty(
                    sim::fleetItemSeed(appSeed(opt.seed, a), r)));
                probe->items_seen = 0;
                probe->items_expected = scenario.workItems();
                probe->stats.clear();
                power::GovernedRunResult g = traced(
                    "power.runGoverned", r, [&] {
                        return power::runGoverned(hooks[a], scenario,
                                                  gopt);
                    });
                if (!g.bit_exact)
                    out.failure = strprintf(
                        "%s round %llu: %s", AppNames[a],
                        (unsigned long long)r, g.first_failure.c_str());
                else if (g.items != scenario.workItems())
                    out.failure = strprintf(
                        "%s round %llu: served %llu of %llu items",
                        AppNames[a], (unsigned long long)r,
                        (unsigned long long)g.items,
                        (unsigned long long)scenario.workItems());
                out.busy_ticks += g.busy_ticks;
                out.multi_v_mw += g.power.multi_v.total();
                out.sim_seconds += g.sim_seconds;
                out.table_points += g.table_points;
                out.table_rejected += g.table_rejected;
                out.epochs += g.epochs.size();
                out.deadline_misses += g.deadline_misses;
                out.counts.add(probe->stats);
            }
        } catch (const std::exception &e) {
            out.failure = strprintf("round %llu threw: %s",
                                    (unsigned long long)r, e.what());
        }
        out.op_seconds = nowSeconds() - t0;
        if (tracing) {
            // Timed apart from the op: what runGoverned spends on its
            // safe-transition table, and one plain re-verification.
            for (const power::DvfsAppHooks &h : hooks) {
                Span t("power.table", r);
                power::SafeTransitionTable::build(
                    h.artifact, gopt.governor.rate_scales, levels);
            }
            for (const power::DvfsAppHooks &h : hooks) {
                Span v("mapping.verify", r);
                if (!h.artifact.verify().ok() && out.failure.empty())
                    out.failure = "re-verification rejected a lowering";
            }
        }
        Tracer::install(nullptr);
        return out;
    };

    // Warm-up: round 0, timed apart. The modelled metrics come from
    // it, so they are a pure function of the seed.
    Round r0 = runRound(0, false);
    ++rep.attempted;
    if (!r0.failure.empty())
        rep.fail(r0.failure);

    // Measured rounds. A traced run serves every round twice, traced
    // and untraced in alternating order, so the tracing overhead is
    // measured on identical work.
    probe->plant = opt.plant_fault;
    std::vector<double> plain_s, traced_s;
    double traced_sim = 0, traced_ticks = 0, traced_issued = 0;
    auto measure = [&](uint64_t r, bool tracing) {
        Round out = runRound(r, tracing);
        ++rep.attempted;
        if (!out.failure.empty()) {
            rep.fail(out.failure);
            return;
        }
        (tracing ? traced_s : plain_s).push_back(out.op_seconds);
        if (tracing) {
            traced_sim += out.sim_seconds;
            traced_ticks += double(out.busy_ticks);
            traced_issued += double(out.counts.issued);
        }
    };
    const double start = nowSeconds();
    for (uint64_t r = 1; nowSeconds() - start < opt.seconds; ++r) {
        measure(r, opt.trace && r % 2 == 0);
        if (opt.trace)
            measure(r, r % 2 == 1);
    }
    const double wall = nowSeconds() - start;
    std::fprintf(stderr,
                 "governed: warm-up round %.1f ms, %zu untraced + %zu "
                 "traced rounds in %.2f s\n",
                 r0.op_seconds * 1e3, plain_s.size(), traced_s.size(),
                 wall);

    if (!opt.trace) {
        rep.set("setup_s", setupSeconds(setup));
        rep.set("ops_per_s", double(plain_s.size()) / wall);
        rep.set("op_ms_p50", 1e3 * quantile(plain_s, 0.5));
        rep.set("op_ms_p90", 1e3 * quantile(plain_s, 0.9));
        rep.set("peak_rss_mb", peakRssMb());
        rep.set("sim_ticks_per_op", double(r0.busy_ticks));
        rep.set("model_mw", r0.multi_v_mw);
        return rep;
    }

    const double n = double(std::max<size_t>(traced_s.size(), 1));
    Tracer::install(tracer);
    auto self = tracer->selfSeconds();
    auto ms = [&](const char *span) { return 1e3 * self[span] / n; };
    double op_total = 0;
    for (double s : traced_s)
        op_total += s;
    const double sim_ms = 1e3 * traced_sim / n;
    rep.set("dsp.golden_ms", ms("dsp.golden"));
    rep.set("mapping.verify_ms", ms("mapping.verify"));
    rep.set("power.table_ms", ms("power.table"));
    rep.set("power.table_points", double(r0.table_points));
    rep.set("power.table_rejected", double(r0.table_rejected));
    rep.set("power.governor_ms",
            ms("power.runGoverned") - sim_ms - ms("power.table"));
    rep.set("power.retunes", double(r0.epochs - NumApps));
    rep.set("power.epochs", double(r0.epochs));
    rep.set("power.deadline_misses", double(r0.deadline_misses));
    rep.set("arch.build_ms", ms("arch.build"));
    rep.set("arch.feed_ms", ms("arch.feed"));
    rep.set("apps.readout_ms", ms("apps.readout"));
    rep.set("sim.run_ms", sim_ms);
    rep.set("sim.mticks_per_s", traced_ticks / traced_sim / 1e6);
    rep.set("sim.ns_per_inst", 1e9 * traced_sim / traced_issued);
    rep.set("sim.run_share", traced_sim / op_total);
    rep.set("trace.overhead_pct",
            100.0 * (mean(traced_s) / mean(plain_s) - 1.0));
    rep.set("trace.unaccounted_pct", 100.0 * self["op"] / op_total);
    r0.counts.addTo(rep, 1.0);
    return rep;
}

} // namespace repobench
