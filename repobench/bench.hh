/**
 * @file
 * Shared pieces of the repo benchmark: options, the per-run report,
 * the four Table 4 apps at their two shapes, and the cold mapped op
 * each workload is built from.
 */

#ifndef REPOBENCH_BENCH_HH
#define REPOBENCH_BENCH_HH

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mapping/verifier.hh"
#include "sim/fleet.hh"
#include "sim/scheduler.hh"
#include "trace.hh"

namespace repobench
{

using synchro::SchedulerKind;

struct Options
{
    std::string workload;
    uint32_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Corrupt one golden byte of one op (the failure self-test). */
    bool plant_fault = false;
};

/** What one workload run reports. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; //!< the first few, for stderr
    std::map<std::string, double> metrics; //!< units: see main.cc

    /** Count @p n failed ops; keep the reason if among the first. */
    void fail(const std::string &why, uint64_t n = 1);
    void set(const std::string &name, double value)
    {
        metrics[name] = value;
    }
};

/** The Table 4 apps, in table order. */
constexpr size_t NumApps = 4;
extern const char *const AppNames[NumApps];

/**
 * Paper: each runner's default parameters (runMappedX as shipped).
 * Served: the bench_dvfs item shapes the fleet and governor serve
 * (DDC 128 samples, wifi 2 symbols, stereo and motion at defaults).
 */
enum class Shape
{
    Paper,
    Served
};

/** The per-app base seed derived from the workload seed. */
uint32_t appSeed(uint32_t seed, size_t app);

/** The app's registry params at @p shape with RNG seed @p seed. */
std::any appParams(size_t app, Shape shape, uint32_t seed);

/** Modelled per-op counters; every one must repeat exactly. */
struct ArchCounts
{
    uint64_t transfers = 0;
    uint64_t deferrals = 0;
    uint64_t underruns = 0;
    uint64_t issued = 0;
    uint64_t comm_stalls = 0;
    uint64_t zorm_nops = 0;
    uint64_t mem_ops = 0;

    ArchCounts &
    operator-=(const ArchCounts &o)
    {
        transfers -= o.transfers;
        deferrals -= o.deferrals;
        underruns -= o.underruns;
        issued -= o.issued;
        comm_stalls -= o.comm_stalls;
        zorm_nops -= o.zorm_nops;
        mem_ops -= o.mem_ops;
        return *this;
    }

    /** Add a chip's dotted stats map (Chip::forEachStat names). */
    void add(const std::map<std::string, uint64_t> &stats);
    void addTo(Report &r, double per) const;
};

/** One cold mapped run of one app, reduced to what the bench checks. */
struct ColdRun
{
    uint64_t ticks = 0;
    double multi_v_mw = 0;
    double sim_seconds = 0;
    std::map<std::string, uint64_t> stats;
    std::vector<unsigned> dividers;
    std::vector<uint8_t> output;
    std::vector<uint8_t> golden;
    bool bit_exact = false; //!< the runner's own verdict

    /**
     * Traced ops only: re-verify the op's lowered artifact under a
     * "mapping.verify" span, called after the op's own spans close.
     */
    std::function<bool()> verify_again;
};

/** runMappedX of @p app at @p shape, input seed @p seed, on @p kind. */
ColdRun runCold(size_t app, Shape shape, uint32_t seed,
                SchedulerKind kind);

/**
 * The same cold op as runCold(app, Paper, fleetItemSeed(app_seed,
 * round), default backend), composed from the public calls runMappedX
 * makes, each inside a span of op @p round: input, golden, plan, DAG,
 * lower (with its verifier gate), MappedApp build, run, readout. The
 * tick budget, readout and golden come from @p wl, the app's fleet
 * view at the same shape and base seed; the rate and slack from
 * @p art. After the op's spans close, a separate verifyLowered of the
 * same artifact can be timed through ColdRun::verify_again.
 */
ColdRun runComposed(size_t app, uint32_t app_seed, uint64_t round,
                    const synchro::sim::FleetWorkload &wl,
                    const synchro::mapping::LoweredArtifact &art);

/**
 * The model guard: one op per app at @p shape on the default backend
 * and on EventQueue, requiring identical ticks, stats and output, and
 * both bit-exact against the golden. Returns "" or the first mismatch.
 * @p multi_v_mw_out gets the default backend's summed multi-V mW.
 */
std::string modelGuard(Shape shape, uint32_t seed,
                       double &multi_v_mw_out);

/**
 * Build set-up @p repeats times, timing each, and keep the last
 * result; @p samples gets the times.
 */
template <typename F>
auto
timedSetup(int repeats, std::vector<double> &samples, F build)
{
    std::optional<decltype(build())> kept;
    for (int i = 0; i < repeats; ++i) {
        double t0 = nowSeconds();
        auto next = build();
        samples.push_back(nowSeconds() - t0);
        kept = std::move(next);
    }
    return std::move(*kept);
}

/**
 * Run modelGuard as one attempted op of @p rep, failing it on a
 * mismatch or a throw; returns the summed multi-V mW.
 */
double guardOp(Report &rep, Shape shape, uint32_t seed);

/** Quantile @p q of @p v (linear interpolation); 0 when empty. */
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double> &v);

/** The median set-up time; logs every sample to stderr. */
double setupSeconds(const std::vector<double> &samples);

/** Peak resident set size of this process, MB. */
double peakRssMb();

Report runOneshot(const Options &opt);
Report runFleet(const Options &opt);
Report runGovernedRounds(const Options &opt);

} // namespace repobench

#endif // REPOBENCH_BENCH_HH
