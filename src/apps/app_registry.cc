#include "apps/app_registry.hh"

#include "apps/motion_runner.hh"
#include "apps/pipeline_runner.hh"
#include "apps/stereo_runner.hh"
#include "apps/wifi_runner.hh"

namespace synchro::apps
{

const AppRegistry &
AppRegistry::instance()
{
    // Built on first use: no static-init order to get wrong, nothing
    // for a static-library link to dead-strip.
    static const AppRegistry reg = [] {
        AppRegistry r;
        for (AppDescriptor d :
             {AppDescriptor(ddcSpec()), AppDescriptor(wifiSpec()),
              AppDescriptor(stereoSpec()), AppDescriptor(motionSpec())})
            r.apps_.emplace(d.name, std::move(d));
        return r;
    }();
    return reg;
}

const AppDescriptor &
AppRegistry::at(const std::string &name) const
{
    auto it = apps_.find(name);
    if (it == apps_.end())
        fatal("AppRegistry: no app named '%s'", name.c_str());
    return it->second;
}

std::vector<std::string>
AppRegistry::names() const
{
    std::vector<std::string> out;
    for (const auto &kv : apps_)
        out.push_back(kv.first);
    return out;
}

} // namespace synchro::apps
