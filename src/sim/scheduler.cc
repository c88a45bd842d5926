#include "sim/scheduler.hh"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/log.hh"
#include "sim/eventq.hh"

namespace synchro
{

const char *
schedulerName(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::EventQueue:
        return "eventq";
      case SchedulerKind::Compiled:
        return "compiled";
    }
    return "unknown";
}

bool
parseSchedulerKind(const std::string &name, SchedulerKind &out)
{
    if (name == "eventq") {
        out = SchedulerKind::EventQueue;
    } else if (name == "compiled") {
        out = SchedulerKind::Compiled;
    } else {
        return false;
    }
    return true;
}

namespace
{

SchedulerKind &
defaultKindSlot()
{
    static SchedulerKind kind = [] {
        const char *env = std::getenv("SYNCHRO_SCHEDULER");
        if (!env || !*env)
            return SchedulerKind::Compiled;
        SchedulerKind k;
        if (!parseSchedulerKind(env, k))
            fatal("SYNCHRO_SCHEDULER=%s is not a backend "
                  "(eventq | compiled)",
                  env);
        return k;
    }();
    return kind;
}

} // namespace

SchedulerKind
defaultSchedulerKind()
{
    return defaultKindSlot();
}

void
setDefaultSchedulerKind(SchedulerKind kind)
{
    defaultKindSlot() = kind;
}

SchedulerKind
backendFromArgs(int &argc, char **argv, SchedulerKind fallback)
{
    SchedulerKind kind = fallback;
    int w = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string name;
        if (arg == "--backend") {
            if (i + 1 >= argc)
                fatal("--backend needs a value (eventq | compiled)");
            name = argv[++i];
        } else if (arg.rfind("--backend=", 0) == 0) {
            name = arg.substr(10);
        } else {
            argv[w++] = argv[i];
            continue;
        }
        if (!parseSchedulerKind(name, kind))
            fatal("--backend %s is not a backend (eventq | compiled)",
                  name.c_str());
    }
    argv[w] = nullptr;
    argc = w;
    return kind;
}

namespace
{

/**
 * The original formulation: one self-rescheduling event per clock
 * domain at ClockEdgePri, one reference-phase event per tick at
 * BusPri. Ordering within a tick therefore puts every domain edge
 * before the bus phase, exactly as the Chip event loop always did.
 */
class EventQueueScheduler : public Scheduler
{
  public:
    SchedStop
    run(SchedModel &model, Tick max_ticks) override
    {
        model_ = &model;
        if (domain_events_.empty()) {
            for (unsigned d = 0; d < model.numDomains(); ++d) {
                domain_events_.push_back(std::make_unique<LambdaEvent>(
                    strprintf("domain%u.edge", d),
                    [this, d] { domainEdge(d); },
                    Event::ClockEdgePri));
            }
            ref_event_ = std::make_unique<LambdaEvent>(
                "sched.ref", [this] { refPhase(); }, Event::BusPri);
        }
        sync_assert(domain_events_.size() == model.numDomains(),
                    "model domain count changed between runs");

        // (Re)arm events that are not pending: each domain at its next
        // edge at-or-after now, the reference phase at every tick.
        for (unsigned d = 0; d < model.numDomains(); ++d) {
            if (model.domainHalted(d) || domain_events_[d]->scheduled())
                continue;
            const ClockDomain &clk = model.domainClock(d);
            Tick when = clk.onEdge(eq_.curTick())
                            ? eq_.curTick()
                            : clk.nextEdgeAfter(eq_.curTick());
            eq_.schedule(domain_events_[d].get(), when);
        }
        if (!ref_event_->scheduled())
            eq_.schedule(ref_event_.get(), eq_.curTick());

        eq_.run(eq_.curTick() + max_ticks);

        if (model.allHalted())
            return SchedStop::AllHalted;
        if (eq_.empty())
            return SchedStop::Idle;
        return SchedStop::TickLimit;
    }

    Tick curTick() const override { return eq_.curTick(); }

    SchedulerKind kind() const override
    {
        return SchedulerKind::EventQueue;
    }

  private:
    void
    domainEdge(unsigned d)
    {
        model_->domainEdge(d);
        if (!model_->domainHalted(d)) {
            eq_.schedule(domain_events_[d].get(),
                         eq_.curTick() +
                             model_->domainClock(d).divider());
        }
    }

    void
    refPhase()
    {
        model_->refPhase();
        if (!model_->allHalted())
            eq_.schedule(ref_event_.get(), eq_.curTick() + 1);
    }

    EventQueue eq_;
    SchedModel *model_ = nullptr;
    std::vector<std::unique_ptr<LambdaEvent>> domain_events_;
    std::unique_ptr<LambdaEvent> ref_event_;
};

/**
 * The compiled backend: a serial walk of comm-quiet windows. Instead
 * of a heap of events it keeps one pending tick per domain plus one
 * for the reference phase — the whole "queue" is a handful of
 * integers recomputed with the static (divider, phase) arithmetic of
 * ClockDomain. MaxTick marks "not pending", mirroring an unscheduled
 * event.
 *
 * Columns interact only through the statically-scheduled bus, and
 * delivery is self-timed, so the one point at which they must agree
 * on time is a reference phase that may move data. Each round runs
 * one tick slot-exact — every domain edge of the tick, then the
 * reference phase: the event queue's ClockEdgePri-before-BusPri
 * order — and probes commQuiet() for the window that follows. Inside
 * a proven window every domain's work touches only that domain's
 * state, so each domain is walked through the whole window on its
 * own (walkDomain), and the window's reference phases are then
 * credited in one commFreeAdvance() call.
 *
 * Halt accounting matches the event queue (refPhase runs through the
 * tick on which allHalted() becomes true, inclusive): the walk
 * records the latest in-window halting slot, and when the whole
 * model halted inside the window the reference phases stop there.
 * Windows are clamped to the tick budget, so run(1) in a loop
 * matches one big run() bit-for-bit.
 */
class CompiledScheduler : public Scheduler
{
  public:
    SchedStop
    run(SchedModel &model, Tick max_ticks) override
    {
        const unsigned n = model.numDomains();
        if (domain_next_.empty())
            domain_next_.assign(n, MaxTick);
        sync_assert(domain_next_.size() == n,
                    "model domain count changed between runs");

        // Arm pending work exactly like the event-queue backend.
        for (unsigned d = 0; d < n; ++d) {
            if (model.domainHalted(d) || domain_next_[d] != MaxTick)
                continue;
            const ClockDomain &clk = model.domainClock(d);
            domain_next_[d] = clk.onEdge(cur_)
                                  ? cur_
                                  : clk.nextEdgeAfter(cur_);
        }
        if (ref_next_ == MaxTick)
            ref_next_ = cur_;

        const Tick limit = cur_ + max_ticks;

        while (true) {
            Tick t = ref_next_;
            for (Tick dn : domain_next_)
                t = std::min(t, dn);
            if (t == MaxTick)
                return model.allHalted() ? SchedStop::AllHalted
                                         : SchedStop::Idle;
            if (t > limit)
                return SchedStop::TickLimit;

            // One slot-exact tick: all domain edges, then the
            // reference phase. Domains are mutually independent
            // within the edge phase, so index order is as good as
            // event-seq order.
            for (unsigned d = 0; d < n; ++d) {
                if (domain_next_[d] != t)
                    continue;
                model.domainEdge(d);
                domain_next_[d] =
                    model.domainHalted(d)
                        ? MaxTick
                        : t + model.domainClock(d).divider();
            }
            bool halted;
            if (ref_next_ == t) {
                model.refPhase();
                halted = model.allHalted();
                ref_next_ = halted ? MaxTick : t + 1;
            } else {
                halted = model.allHalted();
            }
            cur_ = t;
            if (halted)
                return SchedStop::AllHalted;
            if (ref_next_ != t + 1 || t >= limit)
                continue;

            // Comm-quiet window: reference phases t+1 .. t+quiet are
            // proven to move nothing, so until the next delivery
            // slot every domain's work is domain-private.
            const Tick quiet = model.commQuiet(limit - t);
            if (quiet == 0)
                continue;
            const Tick win_end = t + quiet;
            Tick halt_at = 0;
            for (unsigned d = 0; d < n; ++d)
                walkDomain(model, d, win_end, halt_at);

            // The window's reference phases: through the halting
            // tick inclusive when everything halted in-window,
            // through the window end otherwise.
            const bool all_halted = model.allHalted();
            const Tick steps_end = all_halted ? halt_at : win_end;
            if (steps_end > t) {
                const Tick k = model.commFreeAdvance(steps_end - t);
                sync_assert(k == steps_end - t,
                            "commFreeAdvance took %llu of %llu phases "
                            "commQuiet proved",
                            (unsigned long long)k,
                            (unsigned long long)(steps_end - t));
            }
            cur_ = steps_end;
            if (all_halted) {
                ref_next_ = MaxTick;
                return SchedStop::AllHalted;
            }
            ref_next_ = win_end + 1;
        }
    }

    Tick curTick() const override { return cur_; }

    SchedulerKind kind() const override
    {
        return SchedulerKind::Compiled;
    }

  private:
    /**
     * Walk domain @p d's issue slots through the window (ticks up to
     * and including @p t_end, all inside the proven comm-quiet
     * horizon and the tick budget). If the domain halts, raise
     * @p halt_at to its halting slot's tick.
     */
    void
    walkDomain(SchedModel &model, unsigned d, Tick t_end, Tick &halt_at)
    {
        Tick next = domain_next_[d];
        if (next > t_end)
            return;
        const Tick div = model.domainClock(d).divider();
        while (next <= t_end) {
            const Tick max_slots = (t_end - next) / div + 1;
            Tick k = model.domainEdgeBlock(d, max_slots);
            if (k == 0 && max_slots > 1) {
                // A comm-stalled domain cannot unblock before the
                // next delivery slot, and every slot offered here
                // sits inside the proven-quiet window.
                k = model.domainStallBlock(d, max_slots);
            }
            if (k == 0) {
                model.domainEdge(d);
                k = 1;
            }
            if (model.domainHalted(d)) {
                halt_at = std::max(halt_at, next + (k - 1) * div);
                next = MaxTick;
                break;
            }
            next += k * div;
        }
        domain_next_[d] = next;
    }

    Tick cur_ = 0;
    Tick ref_next_ = MaxTick;           //!< MaxTick = not pending
    std::vector<Tick> domain_next_;     //!< per-domain pending edge
};

} // namespace

std::unique_ptr<Scheduler>
makeScheduler(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::EventQueue:
        return std::make_unique<EventQueueScheduler>();
      case SchedulerKind::Compiled:
        return std::make_unique<CompiledScheduler>();
    }
    panic("unknown scheduler kind %d", int(kind));
}

} // namespace synchro
