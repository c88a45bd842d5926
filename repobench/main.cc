/**
 * @file
 * The repo benchmark binary:
 *
 *   repobench --workload oneshot|fleet|governed --seed N --seconds S
 *             --trace 0|1 [--trace-file PATH] [--plant-fault]
 *
 * --trace 0 prints every end-to-end metric, --trace 1 every per-layer
 * metric (and writes the spans as Chrome trace-event JSON to
 * --trace-file). The last stdout line is the result object; the line
 * before it records provenance. Exits 1 when any op failed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hh"
#include "trace.hh"

using namespace repobench;

namespace
{

/** A fixed seed never used while tuning, for checking claims. */
constexpr uint32_t HeldOutSeed = 900001;

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef EndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"op_ms_p50", "ms"},       {"op_ms_p90", "ms"},
    {"peak_rss_mb", "MB"},     {"sim_ticks_per_op", "ticks"},
    {"model_mw", "mW"},
};

/** Every per-layer metric; one a workload does not exercise reads 0. */
const MetricDef PerLayer[] = {
    {"fail_frac", "frac"},
    {"dsp.input_ms", "ms"},
    {"dsp.golden_ms", "ms"},
    {"apps.dag_ms", "ms"},
    {"apps.readout_ms", "ms"},
    {"mapping.plan_ms", "ms"},
    {"mapping.lower_ms", "ms"},
    {"mapping.verify_ms", "ms"},
    {"mapping.codegen_ms", "ms"},
    {"power.table_ms", "ms"},
    {"power.table_points", "count"},
    {"power.table_rejected", "count"},
    {"power.price_ms", "ms"},
    {"power.governor_ms", "ms"},
    {"power.retunes", "count"},
    {"power.epochs", "count"},
    {"power.deadline_misses", "count"},
    {"arch.build_ms", "ms"},
    {"arch.clone_ms", "ms"},
    {"arch.feed_ms", "ms"},
    {"arch.bus.transfers", "count"},
    {"arch.bus.deferrals", "count"},
    {"arch.bus.underruns", "count"},
    {"arch.ctrl.issued", "count"},
    {"arch.ctrl.comm_stalls", "count"},
    {"arch.ctrl.zorm_nops", "count"},
    {"arch.tile.mem_ops", "count"},
    {"sim.run_ms", "ms"},
    {"sim.mticks_per_s", "Mticks/s"},
    {"sim.ns_per_inst", "ns"},
    {"sim.run_share", "frac"},
    {"fleet.item_ms_p50", "ms"},
    {"fleet.item_ms_p90", "ms"},
    {"fleet.busy_frac", "frac"},
    {"fleet.steals", "count"},
    {"fleet.worker_imbalance", "frac"},
    {"fleet.queue_wait_ms_p90", "ms"},
    {"fleet.live_streams_max", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.unaccounted_pct", "%"},
};

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i],
                         &regs[4 * i + 1], &regs[4 * i + 2],
                         &regs[4 * i + 3]))
            return "unknown";
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
#else
    return "unknown";
#endif
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
provenance(const Options &opt)
{
    const char *env = std::getenv("SYNCHRO_SCHEDULER");
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\"workload\": %s, \"seed\": %u, \"held_out_seed\": %u, "
        "\"seconds\": %g, \"trace\": %d, \"nproc\": %u, \"cpu\": %s, "
        "\"compiler\": %s, \"build_type\": %s, "
        "\"default_backend\": %s, \"SYNCHRO_SCHEDULER\": %s}",
        jsonString(opt.workload).c_str(), opt.seed, HeldOutSeed,
        opt.seconds, int(opt.trace), std::thread::hardware_concurrency(),
        jsonString(cpuModel()).c_str(), jsonString(compiler).c_str(),
        jsonString(REPOBENCH_BUILD_TYPE).c_str(),
        jsonString(synchro::schedulerName(
                       synchro::defaultSchedulerKind()))
            .c_str(),
        env ? jsonString(env).c_str() : "null");
    return buf;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "repobench: %s\nusage: repobench --workload "
                 "oneshot|fleet|governed --seed N --seconds S --trace "
                 "0|1 [--trace-file PATH] [--plant-fault]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string trace_file;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--plant-fault") {
            opt.plant_fault = true;
        } else if (a == "--workload" && (v = value())) {
            opt.workload = v;
        } else if (a == "--seed" && (v = value())) {
            opt.seed = uint32_t(std::strtoul(v, nullptr, 10));
            have_seed = true;
        } else if (a == "--seconds" && (v = value())) {
            opt.seconds = std::atof(v);
        } else if (a == "--trace" && (v = value())) {
            opt.trace = std::strcmp(v, "1") == 0;
        } else if (a == "--trace-file" && (v = value())) {
            trace_file = v;
        } else {
            return usage(("bad argument " + a).c_str());
        }
    }
    if (!have_seed || !(opt.seconds > 0))
        return usage("--seed and a positive --seconds are required");

    Report (*run)(const Options &) = nullptr;
    if (opt.workload == "oneshot")
        run = runOneshot;
    else if (opt.workload == "fleet")
        run = runFleet;
    else if (opt.workload == "governed")
        run = runGovernedRounds;
    else
        return usage("unknown workload");

    Tracer tracer;
    if (opt.trace)
        Tracer::install(&tracer);
    Report rep;
    try {
        rep = run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "repobench: set-up failed: %s\n", e.what());
        return 1;
    }
    Tracer::install(nullptr);

    std::string metrics;
    auto emit = [&](const MetricDef &d) {
        auto it = rep.metrics.find(d.name);
        double v = it == rep.metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) {
            std::fprintf(stderr, "repobench: %s is not finite; run "
                                 "longer\n", d.name);
            v = 0;
            rep.fail(std::string(d.name) + " not measured");
        }
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", d.name, v, d.unit);
        metrics += buf;
    };
    if (opt.trace) {
        rep.set("fail_frac", double(rep.failed) /
                                 double(std::max<uint64_t>(rep.attempted, 1)));
        for (const MetricDef &d : PerLayer)
            emit(d);
    } else {
        for (const MetricDef &d : EndToEnd) {
            if (!rep.metrics.count(d.name))
                rep.fail(std::string(d.name) + " not measured");
            emit(d);
        }
    }

    const std::string prov = provenance(opt);
    if (opt.trace && !trace_file.empty() &&
        !tracer.writeChromeJson(trace_file, prov))
        std::fprintf(stderr, "repobench: cannot write %s\n",
                     trace_file.c_str());
    for (const std::string &f : rep.failures)
        std::fprintf(stderr, "repobench: FAILED: %s\n", f.c_str());

    std::printf("{\"provenance\": %s}\n", prov.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {%s}}\n",
                rep.failed == 0 ? "true" : "false",
                (unsigned long long)rep.attempted,
                (unsigned long long)rep.failed, metrics.c_str());
    std::fflush(stdout);
    return rep.failed == 0 ? 0 : 1;
}
