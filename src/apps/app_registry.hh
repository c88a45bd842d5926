/**
 * @file
 * The unified per-app capability registry.
 *
 * Every mapped application used to export one free function per
 * capability — explorableX (design-space exploration), verifiableX
 * (static re-verification), fleetX (streaming fleet serving) — four
 * apps x three hooks scattered over four headers, and each new
 * capability meant touching all of them again. AppRegistry collapses
 * that into ONE registration per app: an AppDescriptor owns the
 * app's typed parameter struct (behind std::any, so the registry
 * stays app-agnostic) and exposes every capability as a view —
 * explorable() / verifiable() / fleet() / dvfs() — with the legacy
 * free functions reduced to one-line wrappers over the registry.
 *
 * Capability views take the app's own params struct (DdcPipelineParams,
 * WifiPipelineParams, ...) wrapped in std::any; an empty any means
 * the app's defaults. Callers that only need the common knobs
 * (backend, seed) can build params generically from an
 * AppTuning via AppDescriptor::params() without naming the app's
 * type at all — that's what lets the explorer/fleet tests and
 * benches iterate "for every registered app".
 *
 * Registration is lazy and centralized: AppRegistry::instance()
 * registers all four apps on first use (detail::registerXApp, each
 * defined next to its runner), so there is no static-initialization
 * order to worry about and no registration object for the linker to
 * dead-strip.
 */

#ifndef SYNC_APPS_APP_REGISTRY_HH
#define SYNC_APPS_APP_REGISTRY_HH

#include <any>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/log.hh"
#include "mapping/explorer.hh"
#include "mapping/verifier.hh"
#include "power/dvfs.hh"
#include "sim/fleet.hh"

namespace synchro::apps
{

/**
 * The app-agnostic tuning knobs every runner's params struct shares.
 * AppDescriptor::params() folds these into the app's own defaults so
 * generic callers (tests sweeping backends, fleets sweeping seeds)
 * never need the concrete params type.
 */
struct AppTuning
{
    std::optional<SchedulerKind> scheduler;
    std::optional<uint32_t> seed;
};

/** One registered application: its name plus every capability. */
class AppDescriptor
{
  public:
    std::string name;

    /** The app's params struct with @p tuning folded in. */
    std::function<std::any(const AppTuning &)> make_params;

    std::function<mapping::ExplorableApp(const std::any &)>
        explorable_hook;
    std::function<mapping::LoweredArtifact(const std::any &)>
        verifiable_hook;
    std::function<sim::FleetWorkload(const std::any &)> fleet_hook;
    std::function<power::DvfsAppHooks(const std::any &)> dvfs_hook;

    /// @name Capability views (empty any = the app's defaults)
    /// @{
    mapping::ExplorableApp explorable(const std::any &params = {})
        const;
    mapping::LoweredArtifact verifiable(const std::any &params = {})
        const;
    sim::FleetWorkload fleet(const std::any &params = {}) const;
    power::DvfsAppHooks dvfs(const std::any &params = {}) const;
    /// @}

    /** Typed params (wrapped in any) with @p tuning applied. */
    std::any params(const AppTuning &tuning = {}) const;
};

class AppRegistry
{
  public:
    /** The registry with all four mapped apps registered. */
    static AppRegistry &instance();

    /** Register (or replace) one app. */
    void add(AppDescriptor desc);

    /** The descriptor of @p name; fatal() when unregistered. */
    const AppDescriptor &at(const std::string &name) const;

    /** Registered app names, sorted. */
    std::vector<std::string> names() const;

    const std::map<std::string, AppDescriptor> &
    apps() const
    {
        return apps_;
    }

  private:
    std::map<std::string, AppDescriptor> apps_;
};

/**
 * Adapt a typed hook (taking the app's params struct) to the
 * registry's std::any calling convention: an empty any becomes
 * default-constructed params; a mismatched payload type is fatal.
 */
template <typename Params, typename Result>
std::function<Result(const std::any &)>
appHook(std::string app, Result (*fn)(const Params &))
{
    return [app = std::move(app), fn](const std::any &a) -> Result {
        if (!a.has_value())
            return fn(Params{});
        const Params *p = std::any_cast<Params>(&a);
        if (!p) {
            fatal("AppRegistry: '%s' hook was handed params of the "
                  "wrong type (expected the app's own params struct)",
                  app.c_str());
        }
        return fn(*p);
    };
}

namespace detail
{
/** Per-runner registration entry points (defined in each runner's
 *  .cc, called once by AppRegistry::instance()). */
void registerDdcApp(AppRegistry &reg);
void registerWifiApp(AppRegistry &reg);
void registerStereoApp(AppRegistry &reg);
void registerMotionApp(AppRegistry &reg);
} // namespace detail

} // namespace synchro::apps

#endif // SYNC_APPS_APP_REGISTRY_HH
