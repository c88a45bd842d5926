#include "arch/chip.hh"

#include <algorithm>

#include "common/log.hh"

namespace synchro::arch
{

Chip::Chip(const ChipConfig &cfg)
    : cfg_(cfg),
      sched_(makeScheduler(cfg.scheduler)),
      fabric_(unsigned(cfg.dividers.size()), cfg.strict,
              cfg.self_timed_bus)
{
    if (cfg.dividers.empty())
        fatal("chip needs at least one column");
    if (!cfg.phases.empty() &&
        cfg.phases.size() != cfg.dividers.size()) {
        fatal("chip config has %zu phases for %zu columns",
              cfg.phases.size(), cfg.dividers.size());
    }
    for (unsigned c = 0; c < cfg.dividers.size(); ++c) {
        Tick phase = cfg.phases.empty() ? 0 : cfg.phases[c];
        ClockDomain dom(cfg.ref_freq_mhz * 1e6, cfg.dividers[c],
                        phase);
        columns_.push_back(std::make_unique<Column>(
            c, cfg.tiles_per_column, dom));
    }
}

const ClockDomain &
Chip::domainClock(unsigned d) const
{
    return columns_[d]->clock();
}

bool
Chip::domainHalted(unsigned d) const
{
    return columns_[d]->halted();
}

void
Chip::domainEdge(unsigned d)
{
    columns_[d]->clockEdge();
}

void
Chip::refPhase()
{
    if (bus_) {
        // Compiled: the table says whether this phase moves data.
        if (commQuiet(1) == 0) {
            const BusTable::Entry &e = bus_->active[entry_];
            fabric_.cycle(bus_->plans[e.plan], tiles_);
            if (phase_ + 1 == e.end + base_)
                entry_ = bus_->entryAt(phase_ + 1, base_);
        }
        ++phase_;
        return;
    }
    // EventQueue: step every DOU, then resolve the bus from scratch
    // against the outputs they all produced for this cycle.
    for (unsigned c = 0; c < columns_.size(); ++c)
        states_[c] = &columns_[c]->dou().step();
    buildPlan(states_, plan_);
    fabric_.cycle(plan_, tiles_);
}

Tick
Chip::domainEdgeBlock(unsigned d, Tick max_slots)
{
    return columns_[d]->clockEdgeBlock(max_slots);
}

Tick
Chip::commFreeAdvance(Tick max)
{
    const Tick k = commQuiet(max);
    phase_ += k;
    return k;
}

Tick
Chip::commQuiet(Tick max) const
{
    if (entry_ == bus_->active.size())
        return max;
    const uint64_t begin = bus_->active[entry_].begin + base_;
    return phase_ >= begin ? 0 : std::min<Tick>(max, begin - phase_);
}

std::shared_ptr<const BusTable>
Chip::busTable(uint64_t &shift) const
{
    std::lock_guard<std::mutex> lock(table_mu_);
    std::vector<TrajectoryPtr> trajs;
    std::vector<uint64_t> starts;
    for (const auto &col : columns_) {
        trajs.push_back(col->dou().trajectory());
        starts.push_back(col->dou().position());
    }
    // The DOUs must sit one common shift past the table's starts.
    bool fits = table_ && table_->trajs == trajs &&
                starts[0] >= table_->starts[0];
    shift = fits ? starts[0] - table_->starts[0] : 0;
    for (size_t c = 0; fits && c < starts.size(); ++c)
        fits = starts[c] == table_->starts[c] + shift;
    if (!fits) {
        table_ = BusTable::build(std::move(trajs), std::move(starts));
        shift = 0;
    }
    return table_;
}

Tick
Chip::domainStallBlock(unsigned d, Tick max_slots)
{
    return columns_[d]->stallBlock(max_slots);
}

std::unique_ptr<Chip>
Chip::clone() const
{
    return clone(cfg_.scheduler);
}

std::unique_ptr<Chip>
Chip::clone(SchedulerKind scheduler) const
{
    if (sched_->curTick() != 0)
        fatal("Chip::clone at tick %llu: snapshot/clone is only "
              "defined for a programmed chip that has not run yet",
              (unsigned long long)sched_->curTick());
    ChipConfig cfg = cfg_;
    cfg.scheduler = scheduler;
    auto copy = std::make_unique<Chip>(cfg);
    for (unsigned c = 0; c < columns_.size(); ++c)
        copy->columns_[c]->copyStateFrom(*columns_[c]);
    if (scheduler == SchedulerKind::Compiled) {
        uint64_t shift;
        copy->table_ = busTable(shift);
    }
    return copy;
}

void
Chip::restart()
{
    resetColumns();
    sched_ = makeScheduler(cfg_.scheduler);
}

bool
Chip::atReconfigPoint() const
{
    return sched_->curTick() == 0 || allHalted();
}

void
Chip::retune(const std::vector<unsigned> &dividers)
{
    if (dividers.size() != columns_.size()) {
        fatal("Chip::retune: %zu dividers for %zu columns",
              dividers.size(), columns_.size());
    }
    if (!atReconfigPoint()) {
        fatal("Chip::retune at tick %llu: divider changes are only "
              "safe at a reconfiguration point (tick 0 or a fully "
              "drained chip)",
              (unsigned long long)sched_->curTick());
    }
    for (unsigned c = 0; c < columns_.size(); ++c)
        columns_[c]->retuneClock(dividers[c]);
    cfg_.dividers = dividers;
}

bool
Chip::allHalted() const
{
    for (const auto &col : columns_) {
        if (!col->halted())
            return false;
    }
    return true;
}

RunResult
Chip::run(Tick max_ticks)
{
    if (allHalted())
        return {RunExit::AllHalted, sched_->curTick()};

    // Tile population only changes between runs; refresh the bus
    // views once here instead of re-allocating them every tick, and
    // give every tile that can now execute its SRAM (the datapath
    // never checks).
    tiles_.resize(columns_.size());
    states_.resize(columns_.size());
    for (unsigned c = 0; c < columns_.size(); ++c) {
        tiles_[c] = columns_[c]->busTiles();
        for (Tile *t : columns_[c]->activeTiles())
            t->allocMem();
    }

    if (cfg_.scheduler == SchedulerKind::Compiled) {
        bus_ = busTable(phase_);
        entry_ = bus_->entryAt(phase_, base_);
    }

    SchedStop stop = sched_->run(*this, max_ticks);

    if (bus_) {
        // Read each DOU's position back off its trajectory.
        for (unsigned c = 0; c < columns_.size(); ++c)
            columns_[c]->dou().seek(bus_->starts[c] + phase_);
        bus_.reset();
    }

    RunExit exit = RunExit::TickLimit;
    switch (stop) {
      case SchedStop::AllHalted:
        exit = RunExit::AllHalted;
        break;
      case SchedStop::Idle:
        exit = RunExit::Deadlock;
        break;
      case SchedStop::TickLimit:
        exit = RunExit::TickLimit;
        break;
    }
    return {exit, sched_->curTick()};
}

void
Chip::resetColumns()
{
    for (auto &col : columns_)
        col->reset();
}

void
Chip::forEachStat(
    const std::function<void(const std::string &, uint64_t)> &fn)
    const
{
    for (const auto &kv : fabric_.stats().all())
        fn("bus." + kv.first, kv.second.value());
    for (unsigned c = 0; c < columns_.size(); ++c) {
        const Column &col = *columns_[c];
        std::string prefix = strprintf("col%u.", c);
        for (const auto &kv : col.controller().stats().all())
            fn(prefix + "ctrl." + kv.first, kv.second.value());
        for (const auto &kv : col.dou().stats().all())
            fn(prefix + "dou." + kv.first, kv.second.value());
        for (unsigned t = 0; t < col.numTiles(); ++t) {
            std::string tprefix = prefix + strprintf("tile%u.", t);
            for (const auto &kv : col.tile(t).stats().all())
                fn(tprefix + kv.first, kv.second.value());
        }
    }
}

} // namespace synchro::arch
