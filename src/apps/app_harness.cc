#include "apps/app_harness.hh"

#include <chrono>

#include "common/log.hh"
#include "power/vf_model.hh"

namespace synchro::apps
{

std::optional<mapping::ChipPlan>
planApp(const mapping::SdfGraph &graph,
        const std::vector<mapping::ActorCommSpec> &comm,
        double iterations_per_sec)
{
    if (graph.numActors() == 0)
        fatal("planApp: the SDF graph has no actors — a mapped "
              "application needs at least one kernel");
    if (iterations_per_sec <= 0)
        fatal("planApp: need a positive iteration rate, got %g",
              iterations_per_sec);
    power::SystemPowerModel model;
    power::VfModel vf;
    power::SupplyLevels levels(vf);
    mapping::AutoMapper mapper(model, levels);
    return mapper.map(graph, iterations_per_sec, comm);
}

MappedApp::MappedApp(const MappedAppParams &params,
                     const mapping::ChipPlan &plan,
                     const mapping::PipelineProgram &prog)
    : params_(params), plan_(plan)
{
    if (params_.priced_items == 0)
        fatal("%s: MappedAppParams::priced_items must be set (the "
              "harness prices power per item)",
              params_.app.c_str());
    if (params_.tick_limit == 0)
        fatal("%s: MappedAppParams::tick_limit must be set",
              params_.app.c_str());
    chip_ = mapping::buildChip(plan_, prog, params_.scheduler);
}

MappedApp::~MappedApp() = default;

MappedAppRun
MappedApp::run()
{
    MappedAppRun run;
    run.plan = plan_;

    auto t0 = std::chrono::steady_clock::now();
    run.result = chip_->run(params_.tick_limit);
    run.sim_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (run.result.exit != arch::RunExit::AllHalted)
        fatal("%s: mapped pipeline did not drain (%s at tick %llu)",
              params_.app.c_str(),
              run.result.exit == arch::RunExit::Deadlock
                  ? "deadlock"
                  : "tick limit",
              (unsigned long long)run.result.ticks);
    run.ticks = run.result.ticks;

    run.overruns = chip_->fabric().stats().value("overruns");
    run.conflicts = chip_->fabric().stats().value("conflicts");
    run.deferrals = chip_->fabric().stats().value("deferrals");
    run.bus_transfers = chip_->fabric().transfers();

    // Price the run at the throughput it actually sustained, so the
    // derived per-column frequencies are exactly what this silicon
    // would need to process the stream in real time.
    double ref_hz = plan_.ref_freq_mhz * 1e6;
    run.achieved_items_per_sec = double(params_.priced_items) *
                                 ref_hz / double(run.ticks);
    power::SystemPowerModel model;
    power::VfModel vf;
    power::SupplyLevels levels(vf);
    run.power = power::priceSimulationComparison(
        *chip_, params_.priced_items, run.achieved_items_per_sec,
        levels, model);

    chip_->forEachStat([&run](const std::string &name, uint64_t v) {
        run.stats[name] = v;
    });
    return run;
}

void
refeedImages(arch::Chip &chip, const mapping::PipelineProgram &prog,
             const mapping::DagSpec &spec)
{
    chip.restart();
    // restart() keeps tile SRAM; wipe the working tiles so no
    // residue of the previous item survives, then lay down this
    // item's images exactly as PipelineProgram::load would.
    for (const auto &col : prog.columns)
        chip.column(col.column).tile(0).clearMem();
    for (const auto &stage : spec.stages) {
        const mapping::ColumnProgram &col =
            prog.columnFor(stage.actor);
        for (const auto &[addr, bytes] : stage.images)
            chip.column(col.column)
                .tile(0)
                .writeMem(addr, bytes.data(),
                          uint32_t(bytes.size()));
    }
}

std::vector<uint8_t>
bytesOfHalves(const std::vector<int16_t> &h)
{
    std::vector<uint8_t> b(h.size() * 2);
    for (size_t i = 0; i < h.size(); ++i) {
        b[2 * i] = uint8_t(uint16_t(h[i]) & 0xff);
        b[2 * i + 1] = uint8_t(uint16_t(h[i]) >> 8);
    }
    return b;
}

std::vector<uint8_t>
bytesOfWords(const std::vector<int32_t> &w)
{
    std::vector<uint8_t> b(w.size() * 4);
    for (size_t i = 0; i < w.size(); ++i) {
        uint32_t v = uint32_t(w[i]);
        b[4 * i] = uint8_t(v & 0xff);
        b[4 * i + 1] = uint8_t((v >> 8) & 0xff);
        b[4 * i + 2] = uint8_t((v >> 16) & 0xff);
        b[4 * i + 3] = uint8_t((v >> 24) & 0xff);
    }
    return b;
}

namespace
{

template <typename T>
std::string
describeMismatchT(const std::string &what, const std::vector<T> &got,
                  const std::vector<T> &want)
{
    if (got.size() != want.size())
        return strprintf("%s: size mismatch (got %zu, want %zu)",
                         what.c_str(), got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        if (got[i] != want[i])
            return strprintf(
                "%s: first mismatch at index %zu (got %lld, want "
                "%lld)",
                what.c_str(), i, (long long)got[i],
                (long long)want[i]);
    }
    return "";
}

} // namespace

std::string
describeMismatch(const std::string &what,
                 const std::vector<uint8_t> &got,
                 const std::vector<uint8_t> &want)
{
    return describeMismatchT(what, got, want);
}

std::string
describeMismatch(const std::string &what,
                 const std::vector<int16_t> &got,
                 const std::vector<int16_t> &want)
{
    return describeMismatchT(what, got, want);
}

std::string
describeMismatch(const std::string &what,
                 const std::vector<int32_t> &got,
                 const std::vector<int32_t> &want)
{
    return describeMismatchT(what, got, want);
}

} // namespace synchro::apps
