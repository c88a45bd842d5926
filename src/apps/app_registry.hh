/**
 * @file
 * One declarative spec per mapped application, and every capability
 * derived from it.
 *
 * An app is its SDF graph plus its kernels (paper §2.1): a
 * MappedAppSpec says how to make the app's input and golden, how to
 * plan it, which DAG to lower onto a plan, how fast to pace it, how
 * long a run may take, how to read the output back, and how many
 * items a run prices. Everything else is written once, here, as a
 * function of the spec:
 *
 *   - runSpec()        the cold plan -> lower -> run -> verify ->
 *                      price loop the runMappedX functions wrap;
 *   - explorableView() the plan-variant package mapping::explorePlans
 *                      measures;
 *   - verifiableView() the committed lowering mapping::verifyLowered
 *                      re-checks;
 *   - fleetView()      the per-item build/feed/read/golden hooks
 *                      sim::FleetExecutor serves;
 *   - dvfsView()       the artifact + fleet pair the DVFS governor
 *                      retunes, both from ONE verified lowering.
 *
 * AppRegistry holds one AppDescriptor per app, built from its spec:
 * the same four views behind std::any, so generic callers can iterate
 * "every registered app" without naming its params type. An empty any
 * means the app's defaults; any payload other than the app's own
 * params struct is fatal. Adding an app means writing one spec and
 * listing it in AppRegistry::instance().
 */

#ifndef SYNC_APPS_APP_REGISTRY_HH
#define SYNC_APPS_APP_REGISTRY_HH

#include <any>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/app_harness.hh"
#include "common/log.hh"
#include "mapping/explorer.hh"
#include "mapping/verifier.hh"
#include "power/dvfs.hh"
#include "sim/fleet.hh"
#include "sim/traffic.hh"

namespace synchro::apps
{

/**
 * One mapped application, declared once. @p Params is the app's
 * params struct (it must carry seed, slack and scheduler), @p Input
 * its generated input data, @p Out the element type of its output
 * vector. All hooks are plain functions of their arguments.
 */
template <typename Params, typename Input, typename Out>
struct MappedAppSpec
{
    std::string name;

    /** The app's input data; rejects bad params first. */
    Input (*input)(const Params &) = nullptr;

    /** The dsp:: reference chain the chip must match bit-exactly. */
    std::vector<Out> (*golden)(const Params &, const Input &) = nullptr;

    /** The AutoMapper's plan; nullopt when no mapping is feasible. */
    std::optional<mapping::ChipPlan> (*plan)(const Params &) = nullptr;

    /** The DAG to lower onto @p plan, carrying @p input's images. */
    mapping::DagSpec (*dag)(const Params &, const Input &,
                            const mapping::ChipPlan &plan) = nullptr;

    /** Rate the lowering paces the DAG at (SDF iterations/s). */
    double (*rate)(const Params &) = nullptr;

    /** Tick budget for one run of @p prog lowered onto @p plan. */
    Tick (*tick_limit)(const Params &, const mapping::ChipPlan &plan,
                       const mapping::PipelineProgram &prog) = nullptr;

    /** The output, read back from a finished chip. */
    std::vector<Out> (*read_output)(
        const Params &, arch::Chip &,
        const mapping::PipelineProgram &) = nullptr;

    /** Items one run prices (see MappedAppParams::priced_items). */
    uint64_t (*priced_items)(const Params &) = nullptr;

    /** SDF iterations one fleet work item represents. */
    uint64_t (*iterations_per_item)(const Params &) = nullptr;

    /** Optional: alternative shardings for the explorer. */
    std::vector<mapping::PlanVariant> (*shard_variants)(
        const Params &) = nullptr;
};

/** runSpec()'s result: the harness slice plus input and outputs. */
template <typename Input, typename Out>
struct SpecRun : MappedAppRun
{
    Input input;
    std::vector<Out> output; //!< read back from the chip
    std::vector<Out> golden; //!< the spec's dsp:: reference
    bool bit_exact = false;
};

namespace detail
{

template <typename P, typename I, typename O>
mapping::ChipPlan
planOrDie(const MappedAppSpec<P, I, O> &spec, const P &p)
{
    std::optional<mapping::ChipPlan> plan = spec.plan(p);
    if (!plan)
        fatal("%s: no feasible mapping at %g SDF iterations/s",
              spec.name.c_str(), spec.rate(p));
    return std::move(*plan);
}

/** @p p re-seeded for fleet work item @p item. */
template <typename P>
P
itemParams(const P &p, uint64_t item)
{
    P q = p;
    q.seed = sim::fleetItemSeed(p.seed, item);
    return q;
}

inline std::vector<uint8_t>
bytesOf(std::vector<uint8_t> b)
{
    return b;
}

inline std::vector<uint8_t>
bytesOf(const std::vector<int16_t> &h)
{
    return bytesOfHalves(h);
}

inline std::vector<uint8_t>
bytesOf(const std::vector<int32_t> &w)
{
    return bytesOfWords(w);
}

} // namespace detail

/**
 * The whole loop: input, golden, plan, lower, load, run, read back,
 * compare, price — each computed once. fatal() if no feasible
 * mapping exists or the run does not drain.
 */
template <typename P, typename I, typename O>
SpecRun<I, O>
runSpec(const MappedAppSpec<P, I, O> &spec, const P &p)
{
    SpecRun<I, O> run;
    run.input = spec.input(p);
    run.golden = spec.golden(p, run.input);
    mapping::ChipPlan plan = detail::planOrDie(spec, p);
    mapping::PipelineProgram prog = mapping::lowerDag(
        spec.dag(p, run.input, plan), plan, spec.rate(p), p.slack);

    MappedAppParams hp;
    hp.app = spec.name;
    hp.scheduler = p.scheduler;
    hp.tick_limit = spec.tick_limit(p, plan, prog);
    hp.priced_items = spec.priced_items(p);
    MappedApp app(hp, plan, prog);
    static_cast<MappedAppRun &>(run) = app.run();

    run.output = spec.read_output(p, app.chip(), prog);
    run.bit_exact = run.output == run.golden;
    if (!run.bit_exact)
        warn("%s", describeMismatch(spec.name + " output", run.output,
                                    run.golden)
                       .c_str());
    return run;
}

/**
 * The app packaged for mapping::explorePlans: lowers, budgets and
 * golden-verifies an arbitrary candidate plan. fatal() if no
 * feasible baseline mapping exists.
 */
template <typename P, typename I, typename O>
mapping::ExplorableApp
explorableView(const MappedAppSpec<P, I, O> &spec, const P &p)
{
    auto input = std::make_shared<const I>(spec.input(p));
    auto golden =
        std::make_shared<const std::vector<O>>(spec.golden(p, *input));

    mapping::ExplorableApp app;
    app.name = spec.name;
    app.iterations_per_sec = spec.rate(p);
    app.priced_items = spec.priced_items(p);
    app.baseline = detail::planOrDie(spec, p);
    app.lower = [spec, p, input](const mapping::ChipPlan &candidate,
                                 double rate) {
        return mapping::lowerDag(spec.dag(p, *input, candidate),
                                 candidate, rate, p.slack);
    };
    app.tick_limit = [spec, p](const mapping::ChipPlan &plan,
                               const mapping::PipelineProgram &prog) {
        return spec.tick_limit(p, plan, prog);
    };
    app.verify = [spec, p, golden](arch::Chip &chip,
                                   const mapping::PipelineProgram &prog) {
        return describeMismatch(spec.name + " output",
                                spec.read_output(p, chip, prog), *golden);
    };
    if (spec.shard_variants)
        app.shard_variants = spec.shard_variants(p);
    return app;
}

/**
 * The committed lowering bundled for mapping::verifyLowered: exactly
 * the (spec, plan, program) triple runSpec() runs.
 */
template <typename P, typename I, typename O>
mapping::LoweredArtifact
verifiableView(const MappedAppSpec<P, I, O> &spec, const P &p)
{
    const I input = spec.input(p);
    mapping::LoweredArtifact art;
    art.name = spec.name;
    art.plan = detail::planOrDie(spec, p);
    art.spec = spec.dag(p, input, art.plan);
    art.iterations_per_sec = spec.rate(p);
    art.slack = p.slack;
    art.prog = mapping::lowerDag(art.spec, art.plan,
                                 art.iterations_per_sec, art.slack);
    return art;
}

namespace detail
{

/**
 * The fleet hooks over an already verified artifact: programs, DOU
 * schedules and ZORM settings depend only on the params, never on
 * the input data, so @p art's program serves the template build and
 * every stream and item; feed() rewrites only the item's images.
 */
template <typename P, typename I, typename O>
sim::FleetWorkload
fleetOver(const MappedAppSpec<P, I, O> &spec, const P &p,
          std::shared_ptr<const mapping::LoweredArtifact> art)
{
    sim::FleetWorkload wl;
    wl.name = spec.name;
    wl.tick_limit = spec.tick_limit(p, art->plan, art->prog);
    wl.build = [art](SchedulerKind kind) {
        return mapping::buildChip(art->plan, art->prog, kind);
    };
    wl.feed = [spec, p, art](arch::Chip &chip, uint64_t item) {
        P q = itemParams(p, item);
        refeedImages(chip, art->prog, spec.dag(q, spec.input(q), art->plan));
    };
    wl.read_output = [spec, p, art](arch::Chip &chip) {
        return bytesOf(spec.read_output(p, chip, art->prog));
    };
    wl.golden = [spec, p](uint64_t item) {
        P q = itemParams(p, item);
        return bytesOf(spec.golden(q, spec.input(q)));
    };
    return wl;
}

} // namespace detail

/**
 * The app packaged for sim::FleetExecutor: one cold build, then a
 * restart/refeed per item with input seeded by
 * sim::fleetItemSeed(p.seed, item); outputs and goldens travel as raw
 * little-endian bytes. fatal() if no feasible mapping exists.
 */
template <typename P, typename I, typename O>
sim::FleetWorkload
fleetView(const MappedAppSpec<P, I, O> &spec, const P &p)
{
    return detail::fleetOver(
        spec, p,
        std::make_shared<const mapping::LoweredArtifact>(
            verifiableView(spec, p)));
}

/**
 * The app packaged for the online DVFS governor (power/dvfs.hh): the
 * verifier-gated artifact and the fleet hooks serving that very
 * program, the canonical bursty traffic shape, and the item <->
 * iteration exchange rate.
 */
template <typename P, typename I, typename O>
power::DvfsAppHooks
dvfsView(const MappedAppSpec<P, I, O> &spec, const P &p)
{
    auto art = std::make_shared<const mapping::LoweredArtifact>(
        verifiableView(spec, p));
    power::DvfsAppHooks h;
    h.name = spec.name;
    h.artifact = *art;
    h.workload = detail::fleetOver(spec, p, art);
    h.traffic = sim::TrafficSpec::bursty(p.seed);
    h.iterations_per_item = spec.iterations_per_item(p);
    return h;
}

/** One registered application: its name plus every capability. */
class AppDescriptor
{
  public:
    template <typename P, typename I, typename O>
    explicit AppDescriptor(const MappedAppSpec<P, I, O> &spec);

    std::string name;

    /// @name Capability views (empty any = the app's defaults)
    /// @{
    mapping::ExplorableApp
    explorable(const std::any &params = {}) const
    {
        return explorable_(params);
    }
    mapping::LoweredArtifact
    verifiable(const std::any &params = {}) const
    {
        return verifiable_(params);
    }
    sim::FleetWorkload
    fleet(const std::any &params = {}) const
    {
        return fleet_(params);
    }
    power::DvfsAppHooks
    dvfs(const std::any &params = {}) const
    {
        return dvfs_(params);
    }
    /// @}

  private:
    std::function<mapping::ExplorableApp(const std::any &)> explorable_;
    std::function<mapping::LoweredArtifact(const std::any &)>
        verifiable_;
    std::function<sim::FleetWorkload(const std::any &)> fleet_;
    std::function<power::DvfsAppHooks(const std::any &)> dvfs_;
};

template <typename P, typename I, typename O>
AppDescriptor::AppDescriptor(const MappedAppSpec<P, I, O> &spec)
    : name(spec.name)
{
    auto typed = [app = spec.name](const std::any &a) {
        if (!a.has_value())
            return P{};
        const P *p = std::any_cast<P>(&a);
        if (!p)
            fatal("AppRegistry: '%s' was handed params of the wrong "
                  "type (expected the app's own params struct)",
                  app.c_str());
        return *p;
    };
    explorable_ = [spec, typed](const std::any &a) {
        return explorableView(spec, typed(a));
    };
    verifiable_ = [spec, typed](const std::any &a) {
        return verifiableView(spec, typed(a));
    };
    fleet_ = [spec, typed](const std::any &a) {
        return fleetView(spec, typed(a));
    };
    dvfs_ = [spec, typed](const std::any &a) {
        return dvfsView(spec, typed(a));
    };
}

class AppRegistry
{
  public:
    /** The registry of all four mapped apps. */
    static const AppRegistry &instance();

    /** The descriptor of @p name; fatal() when unregistered. */
    const AppDescriptor &at(const std::string &name) const;

    /** Registered app names, sorted. */
    std::vector<std::string> names() const;

  private:
    std::map<std::string, AppDescriptor> apps_;
};

} // namespace synchro::apps

#endif // SYNC_APPS_APP_REGISTRY_HH
