/**
 * @file
 * The four Table 4 apps as the benchmark drives them: the shipped
 * cold path (runMappedX), the same path composed call by call for the
 * traced run, and the EventQueue model guard.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "apps/app_registry.hh"
#include "apps/motion_runner.hh"
#include "apps/pipeline_runner.hh"
#include "apps/stereo_runner.hh"
#include "apps/wifi_runner.hh"
#include "bench.hh"
#include "common/log.hh"
#include "trace.hh"

using namespace synchro;
using namespace synchro::apps;

namespace repobench
{

const char *const AppNames[NumApps] = {"ddc", "wifi", "stereo",
                                       "motion"};

void
Report::fail(const std::string &why, uint64_t n)
{
    failed += n;
    if (failures.size() < 8)
        failures.push_back(why);
}

uint32_t
appSeed(uint32_t seed, size_t app)
{
    return sim::fleetItemSeed(seed, 0x5eed0000u + app);
}

namespace
{

DdcPipelineParams
ddcParams(Shape shape, uint32_t seed)
{
    DdcPipelineParams p;
    if (shape == Shape::Served)
        p.samples = 128;
    p.seed = seed;
    return p;
}

WifiPipelineParams
wifiParams(Shape shape, uint32_t seed)
{
    WifiPipelineParams p;
    if (shape == Shape::Served)
        p.symbols = 2;
    p.seed = seed;
    return p;
}

StereoPipelineParams
stereoParams(Shape, uint32_t seed)
{
    StereoPipelineParams p;
    p.seed = seed;
    return p;
}

MotionPipelineParams
motionParams(Shape, uint32_t seed)
{
    MotionPipelineParams p;
    p.seed = seed;
    return p;
}

ColdRun
common(const MappedAppRun &r)
{
    ColdRun c;
    c.ticks = r.ticks;
    c.multi_v_mw = r.power.multi_v.total();
    c.sim_seconds = r.sim_seconds;
    c.stats = r.stats;
    c.dividers = r.plan.dividers();
    return c;
}

mapping::ChipPlan
planOrThrow(const char *app, std::optional<mapping::ChipPlan> plan)
{
    if (!plan)
        fatal("%s: no feasible mapping", app);
    return std::move(*plan);
}

/**
 * The app-independent tail of a composed op: MappedApp build, run
 * (simulate + price), readout and golden compare. @p spec is kept for
 * the deferred re-verification.
 */
ColdRun
finishComposed(size_t app, uint64_t round, mapping::DagSpec spec,
               mapping::ChipPlan plan, mapping::PipelineProgram prog,
               uint64_t priced_items, std::vector<uint8_t> golden,
               const sim::FleetWorkload &wl,
               const mapping::LoweredArtifact &art)
{
    MappedAppParams hp;
    hp.app = AppNames[app];
    hp.tick_limit = wl.tick_limit;
    hp.priced_items = priced_items;
    auto mapped = traced("arch.build", round, [&] {
        return std::make_unique<MappedApp>(hp, plan, prog);
    });
    MappedAppRun r =
        traced("arch.run", round, [&] { return mapped->run(); });
    ColdRun c = common(r);
    c.output = traced("apps.readout", round,
                      [&] { return wl.read_output(mapped->chip()); });
    c.golden = std::move(golden);
    c.bit_exact = c.output == c.golden;
    double rate = art.iterations_per_sec, slack = art.slack;
    c.verify_again = [round, rate, slack, spec = std::move(spec),
                      plan = std::move(plan),
                      prog = std::move(prog)]() {
        Span s("mapping.verify", round);
        return mapping::verifyLowered(spec, plan, prog, rate, slack)
            .ok();
    };
    return c;
}

} // namespace

std::any
appParams(size_t app, Shape shape, uint32_t seed)
{
    switch (app) {
      case 0:
        return ddcParams(shape, seed);
      case 1:
        return wifiParams(shape, seed);
      case 2:
        return stereoParams(shape, seed);
      default:
        return motionParams(shape, seed);
    }
}

ColdRun
runCold(size_t app, Shape shape, uint32_t seed, SchedulerKind kind)
{
    switch (app) {
      case 0: {
        DdcPipelineParams p = ddcParams(shape, seed);
        p.scheduler = kind;
        MappedDdcRun r = runMappedDdc(p);
        ColdRun c = common(r);
        c.output = bytesOfHalves(r.output);
        c.golden = bytesOfHalves(r.golden);
        c.bit_exact = r.bit_exact;
        return c;
      }
      case 1: {
        WifiPipelineParams p = wifiParams(shape, seed);
        p.scheduler = kind;
        MappedWifiRun r = runMappedWifi(p);
        ColdRun c = common(r);
        c.output = r.output;
        c.golden = r.golden;
        c.bit_exact = r.bit_exact;
        return c;
      }
      case 2: {
        StereoPipelineParams p = stereoParams(shape, seed);
        p.scheduler = kind;
        MappedStereoRun r = runMappedStereo(p);
        ColdRun c = common(r);
        c.output = r.output;
        c.golden = r.golden;
        c.bit_exact = r.bit_exact;
        return c;
      }
      default: {
        MotionPipelineParams p = motionParams(shape, seed);
        p.scheduler = kind;
        MappedMotionRun r = runMappedMotion(p);
        ColdRun c = common(r);
        c.output = bytesOfWords(r.output_keys);
        c.golden = bytesOfWords(r.golden_keys);
        c.bit_exact = r.bit_exact;
        return c;
      }
    }
}

ColdRun
runComposed(size_t app, uint32_t app_seed, uint64_t round,
            const sim::FleetWorkload &wl,
            const mapping::LoweredArtifact &art)
{
    // wl.golden(round) is the golden of input seed
    // fleetItemSeed(app_seed, round): the seed runCold is given.
    const uint32_t seed = sim::fleetItemSeed(app_seed, round);
    const double rate = art.iterations_per_sec;
    auto golden = [&] {
        return traced("dsp.golden", round,
                      [&] { return wl.golden(round); });
    };
    switch (app) {
      case 0: {
        DdcPipelineParams p = ddcParams(Shape::Paper, seed);
        auto x = traced("dsp.input", round, [&] { return ddcInput(p); });
        auto g = golden();
        auto plan = traced("mapping.plan", round, [&] {
            return planOrThrow("ddc", planDdc(p));
        });
        auto stages =
            traced("apps.dag", round, [&] { return ddcStages(p, x); });
        auto prog = traced("mapping.lower", round, [&] {
            return mapping::lowerPipeline(stages, plan, rate, art.slack);
        });
        return finishComposed(app, round, mapping::linearDagSpec(stages),
                              std::move(plan), std::move(prog),
                              p.samples, std::move(g), wl, art);
      }
      case 1: {
        WifiPipelineParams p = wifiParams(Shape::Paper, seed);
        auto carriers = traced("dsp.input", round, [&] {
            return wifiCarriers(p, wifiPayload(p));
        });
        auto g = golden();
        auto plan = traced("mapping.plan", round, [&] {
            return planOrThrow("wifi", planWifi(p));
        });
        auto dag = traced("apps.dag", round,
                          [&] { return wifiDag(p, carriers); });
        auto prog = traced("mapping.lower", round, [&] {
            return mapping::lowerDag(dag, plan, rate, art.slack);
        });
        return finishComposed(app, round, std::move(dag),
                              std::move(plan), std::move(prog),
                              uint64_t(p.symbols) * WifiFrameBits,
                              std::move(g), wl, art);
      }
      case 2: {
        StereoPipelineParams p = stereoParams(Shape::Paper, seed);
        dsp::Image left(StereoWidth, StereoHeight),
            right(StereoWidth, StereoHeight);
        std::vector<uint8_t> truth;
        {
            Span s("dsp.input", round);
            stereoScene(p, left, right, &truth);
        }
        auto g = golden();
        auto plan = traced("mapping.plan", round, [&] {
            return planOrThrow("stereo", planStereo(p));
        });
        auto dag = traced("apps.dag", round,
                          [&] { return stereoDag(p, left, right); });
        auto prog = traced("mapping.lower", round, [&] {
            return mapping::lowerDag(dag, plan, rate, art.slack);
        });
        return finishComposed(app, round, std::move(dag),
                              std::move(plan), std::move(prog),
                              StereoBlocks, std::move(g), wl, art);
      }
      default: {
        MotionPipelineParams p = motionParams(Shape::Paper, seed);
        dsp::Image cur(MotionWidth, MotionHeight),
            ref(MotionWidth, MotionHeight);
        {
            Span s("dsp.input", round);
            motionScene(p, cur, ref);
        }
        auto g = golden();
        auto plan = traced("mapping.plan", round, [&] {
            return planOrThrow("motion", planMotion(p));
        });
        auto dag = traced("apps.dag", round,
                          [&] { return motionDag(p, cur, ref); });
        auto prog = traced("mapping.lower", round, [&] {
            return mapping::lowerDag(dag, plan, rate, art.slack);
        });
        return finishComposed(app, round, std::move(dag),
                              std::move(plan), std::move(prog),
                              MotionMbs, std::move(g), wl, art);
      }
    }
}

void
ArchCounts::add(const std::map<std::string, uint64_t> &stats)
{
    auto ends = [](const std::string &s, const char *suffix) {
        size_t n = std::char_traits<char>::length(suffix);
        return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
    };
    for (const auto &[name, v] : stats) {
        if (name == "bus.transfers")
            transfers += v;
        else if (name == "bus.deferrals")
            deferrals += v;
        else if (name == "bus.underruns")
            underruns += v;
        else if (ends(name, ".ctrl.issued"))
            issued += v;
        else if (ends(name, ".ctrl.commStalls"))
            comm_stalls += v;
        else if (ends(name, ".ctrl.zormNops"))
            zorm_nops += v;
        else if (ends(name, ".memOps"))
            mem_ops += v;
    }
}

void
ArchCounts::addTo(Report &r, double per) const
{
    r.set("arch.bus.transfers", double(transfers) / per);
    r.set("arch.bus.deferrals", double(deferrals) / per);
    r.set("arch.bus.underruns", double(underruns) / per);
    r.set("arch.ctrl.issued", double(issued) / per);
    r.set("arch.ctrl.comm_stalls", double(comm_stalls) / per);
    r.set("arch.ctrl.zorm_nops", double(zorm_nops) / per);
    r.set("arch.tile.mem_ops", double(mem_ops) / per);
}

std::string
modelGuard(Shape shape, uint32_t seed, double &multi_v_mw_out)
{
    multi_v_mw_out = 0;
    const SchedulerKind def = defaultSchedulerKind();
    for (size_t a = 0; a < NumApps; ++a) {
        const uint32_t s = appSeed(seed, a);
        ColdRun d = runCold(a, shape, s, def);
        ColdRun e = runCold(a, shape, s, SchedulerKind::EventQueue);
        multi_v_mw_out += d.multi_v_mw;
        std::string why;
        if (!d.bit_exact || d.output != d.golden)
            why = "default backend output differs from its golden";
        else if (d.ticks != e.ticks)
            why = strprintf("ticks %llu (default) vs %llu (eventq)",
                            (unsigned long long)d.ticks,
                            (unsigned long long)e.ticks);
        else if (d.stats != e.stats)
            why = "stats map differs from eventq";
        else if (d.output != e.output)
            why = "output differs from eventq";
        if (!why.empty())
            return strprintf("model guard %s: %s", AppNames[a],
                             why.c_str());
    }
    return "";
}

double
guardOp(Report &rep, Shape shape, uint32_t seed)
{
    ++rep.attempted;
    double multi_v_mw = 0;
    try {
        std::string why = modelGuard(shape, seed, multi_v_mw);
        if (!why.empty())
            rep.fail(why);
    } catch (const std::exception &e) {
        rep.fail(std::string("model guard threw: ") + e.what());
    }
    return multi_v_mw;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / double(v.size());
}

double
setupSeconds(const std::vector<double> &samples)
{
    std::string line;
    for (double s : samples)
        line += strprintf(" %.2f", s * 1e3);
    std::fprintf(stderr, "set-up samples (ms):%s\n", line.c_str());
    return median(samples);
}

double
peakRssMb()
{
    // VmHWM is this process image's own high-water mark; getrusage's
    // ru_maxrss also carries the pre-exec peak of the launching process.
    if (FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        long kb = -1;
        while (kb < 0 && std::fgets(line, sizeof line, f))
            std::sscanf(line, "VmHWM: %ld kB", &kb);
        std::fclose(f);
        if (kb >= 0)
            return double(kb) / 1024.0;
    }
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

} // namespace repobench
