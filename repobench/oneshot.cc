/**
 * @file
 * Workload "oneshot": one op is one round, a cold runMappedX of all
 * four Table 4 apps at their paper shapes, each with a fresh input
 * seed. The only workload that pays plan, codegen and verify per op.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>

#include "apps/app_registry.hh"
#include "bench.hh"
#include "common/log.hh"
#include "trace.hh"

using namespace synchro;

namespace repobench
{

namespace
{

constexpr int SetupRepeats = 7;

/** Registry views of the four apps at their paper shapes. */
struct Views
{
    std::vector<mapping::LoweredArtifact> art;
    std::vector<sim::FleetWorkload> wl;
};

Views
buildViews(uint32_t seed)
{
    Views v;
    for (size_t a = 0; a < NumApps; ++a) {
        const apps::AppDescriptor &d =
            apps::AppRegistry::instance().at(AppNames[a]);
        std::any p = appParams(a, Shape::Paper, appSeed(seed, a));
        v.art.push_back(d.verifiable(p));
        v.wl.push_back(d.fleet(p));
    }
    return v;
}

struct Round
{
    std::string failure; //!< "" when every app checked out
    double op_seconds = 0; //!< the op alone, not the re-verification
    uint64_t ticks = 0;
    double multi_v_mw = 0;
    double sim_seconds = 0;
    ArchCounts counts;
};

} // namespace

Report
runOneshot(const Options &opt)
{
    Report rep;
    const SchedulerKind kind = defaultSchedulerKind();

    // Set-up: the registry views each op is checked against (the
    // committed plan) and the traced op composes from (rate, slack,
    // tick budget, readout, golden).
    std::vector<double> setup;
    const Views views = timedSetup(SetupRepeats, setup,
                                   [&] { return buildViews(opt.seed); });

    guardOp(rep, Shape::Paper, opt.seed);

    auto runRound = [&](uint64_t r, bool composed) {
        Round out;
        std::vector<std::function<bool()>> reverify;
        const double t0 = nowSeconds();
        try {
            std::optional<Span> op;
            if (composed)
                op.emplace("op", r);
            for (size_t a = 0; a < NumApps; ++a) {
                const uint32_t as = appSeed(opt.seed, a);
                ColdRun c =
                    composed
                        ? runComposed(a, as, r, views.wl[a],
                                      views.art[a])
                        : runCold(a, Shape::Paper,
                                  sim::fleetItemSeed(as, r), kind);
                if (opt.plant_fault && r == 1 && a == 0)
                    c.golden.at(0) ^= 1;
                if (!c.bit_exact || c.output != c.golden)
                    out.failure = strprintf("%s round %llu: output "
                                            "differs from golden",
                                            AppNames[a],
                                            (unsigned long long)r);
                else if (c.dividers != views.art[a].plan.dividers())
                    out.failure = strprintf(
                        "%s round %llu: plan differs from the "
                        "registry's committed plan",
                        AppNames[a], (unsigned long long)r);
                out.ticks += c.ticks;
                out.multi_v_mw += c.multi_v_mw;
                out.sim_seconds += c.sim_seconds;
                out.counts.add(c.stats);
                if (c.verify_again)
                    reverify.push_back(std::move(c.verify_again));
            }
        } catch (const std::exception &e) {
            out.failure = strprintf("round %llu threw: %s",
                                    (unsigned long long)r, e.what());
        }
        out.op_seconds = nowSeconds() - t0;
        for (auto &v : reverify) {
            if (!v() && out.failure.empty())
                out.failure = "re-verification rejected a lowering";
        }
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
    std::vector<double> plain_s, traced_s;
    double traced_sim = 0, traced_ticks = 0, traced_issued = 0;
    auto measure = [&](uint64_t r, bool composed) {
        Round out = runRound(r, composed);
        ++rep.attempted;
        if (!out.failure.empty()) {
            rep.fail(out.failure);
            return;
        }
        (composed ? traced_s : plain_s).push_back(out.op_seconds);
        if (composed) {
            traced_sim += out.sim_seconds;
            traced_ticks += double(out.ticks);
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
                 "oneshot: warm-up round %.1f ms, %zu untraced + %zu "
                 "traced rounds in %.2f s\n",
                 r0.op_seconds * 1e3, plain_s.size(), traced_s.size(), wall);

    if (!opt.trace) {
        rep.set("setup_s", setupSeconds(setup));
        rep.set("ops_per_s", double(plain_s.size()) / wall);
        rep.set("op_ms_p50", 1e3 * quantile(plain_s, 0.5));
        rep.set("op_ms_p90", 1e3 * quantile(plain_s, 0.9));
        rep.set("peak_rss_mb", peakRssMb());
        rep.set("sim_ticks_per_op", double(r0.ticks));
        rep.set("model_mw", r0.multi_v_mw);
        return rep;
    }

    const double n = double(std::max<size_t>(traced_s.size(), 1));
    auto self = Tracer::active()->selfSeconds();
    auto ms = [&](const char *span) { return 1e3 * self[span] / n; };
    double op_total = 0;
    for (double s : traced_s)
        op_total += s;
    const double sim_ms = 1e3 * traced_sim / n;
    rep.set("dsp.input_ms", ms("dsp.input"));
    rep.set("dsp.golden_ms", ms("dsp.golden"));
    rep.set("apps.dag_ms", ms("apps.dag"));
    rep.set("mapping.plan_ms", ms("mapping.plan"));
    rep.set("mapping.lower_ms", ms("mapping.lower"));
    rep.set("mapping.verify_ms", ms("mapping.verify"));
    rep.set("mapping.codegen_ms",
            ms("mapping.lower") - ms("mapping.verify"));
    rep.set("arch.build_ms", ms("arch.build"));
    rep.set("apps.readout_ms", ms("apps.readout"));
    rep.set("sim.run_ms", sim_ms);
    rep.set("power.price_ms", ms("arch.run") - sim_ms);
    rep.set("sim.mticks_per_s", traced_ticks / traced_sim / 1e6);
    rep.set("sim.ns_per_inst", 1e9 * traced_sim / traced_issued);
    rep.set("sim.run_share", traced_sim / op_total);
    rep.set("trace.overhead_pct",
            100.0 * (mean(traced_s) / mean(plain_s) - 1.0));
    rep.set("trace.unaccounted_pct", 100.0 * self["op"] / op_total);
    r0.counts.addTo(rep, 1.0);
    // The span check: child spans of a traced op against the
    // untraced op time.
    std::fprintf(stderr,
                 "oneshot: child spans cover %.1f ms per traced op; "
                 "untraced op %.1f ms (%+.1f%%)\n",
                 1e3 * (op_total - self["op"]) / n,
                 1e3 * mean(plain_s),
                 100.0 * ((op_total - self["op"]) / n / mean(plain_s) -
                          1.0));
    return rep;
}

} // namespace repobench
