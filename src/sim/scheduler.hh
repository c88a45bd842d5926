/**
 * @file
 * Pluggable execution schedulers for rationally-clocked models.
 *
 * The Synchroscalar restriction to integer clock dividers makes every
 * domain's edge pattern statically computable (paper Section 6), so a
 * simulator does not need a dynamic event queue to find the next thing
 * to do. This header splits the "what happens" (SchedModel — the chip)
 * from the "when" (Scheduler) and provides two interchangeable
 * backends:
 *
 *  - SchedulerKind::EventQueue — the original gem5-style discrete
 *    event queue. One self-rescheduling event per clock domain plus a
 *    reference-clock event every tick. The reference semantics; keep
 *    it around to cross-check the fast path bit-for-bit.
 *
 *  - SchedulerKind::Compiled — a serial walk of comm-quiet windows.
 *    Bus delivery is self-timed and every statically-scheduled bus
 *    slot is known, so the only point at which domains interact is
 *    an *active* reference phase (a bus cycle that may move data).
 *    The scheduler runs each active tick slot-exact, probes the
 *    comm-quiet window that follows (commQuiet), walks every domain
 *    through that window on its own — straight-line compute as one
 *    pre-analyzed block (domainEdgeBlock), comm stalls in one call
 *    (domainStallBlock) — and then credits the window's reference
 *    phases in one call (commFreeAdvance): a column runs until it
 *    needs the next bus token, with no second thread.
 *
 * Both backends drive the model through the same narrow interface and
 * must produce identical architectural state and statistics; the
 * scheduler_test suite enforces this.
 */

#ifndef SYNC_SIM_SCHEDULER_HH
#define SYNC_SIM_SCHEDULER_HH

#include <memory>
#include <string>

#include "sim/clock.hh"
#include "sim/types.hh"

namespace synchro
{

/** Selects the scheduler backend driving a model. */
enum class SchedulerKind
{
    EventQueue, //!< discrete event queue (reference semantics)
    Compiled,   //!< comm-quiet window walk (the fast path)
};

/** Human-readable backend name ("eventq"/"compiled"). */
const char *schedulerName(SchedulerKind kind);

/**
 * Parse a backend name ("eventq" | "compiled" — the exact strings
 * schedulerName() emits). Returns false and leaves @p out untouched
 * on anything else.
 */
bool parseSchedulerKind(const std::string &name, SchedulerKind &out);

/**
 * The process-wide default backend: $SYNCHRO_SCHEDULER when set to a
 * valid backend name (fatal on an invalid one), Compiled otherwise.
 * ChipConfig and the mapped-app runners initialize from this, so CI
 * can force the whole suite onto one backend with an env var.
 */
SchedulerKind defaultSchedulerKind();

/**
 * Consume a "--backend <name>" / "--backend=<name>" flag from argv
 * (removing it so later arg parsers never see it). Returns the
 * parsed kind, or @p fallback when the flag is absent; fatal() on an
 * unknown name.
 */
SchedulerKind backendFromArgs(
    int &argc, char **argv,
    SchedulerKind fallback = defaultSchedulerKind());

/**
 * Override what defaultSchedulerKind() returns for the rest of the
 * process. Lets a `--backend` flag govern harness code that builds
 * chips with default-constructed configs (e.g. the micro-kernel
 * runners), without threading the kind through every call chain.
 */
void setDefaultSchedulerKind(SchedulerKind kind);

/**
 * What a scheduler needs to know about the simulated model: a set of
 * divided clock domains (columns) plus work that happens every
 * reference tick (bus movement and DOU stepping).
 *
 * Contract mirrored from the event-queue formulation:
 *  - domainEdge(d) runs at every edge of domain d while the domain is
 *    not halted (edges at phase + k * divider);
 *  - refPhase() runs once per reference tick, after all domain edges
 *    of that tick, from the first tick of run() until the tick on
 *    which allHalted() becomes true (inclusive).
 *
 * The batch hooks let the Compiled backend cover many slots or
 * phases per call. Their defaults decline, which keeps a model that
 * does not implement them on the slot-at-a-time path.
 */
class SchedModel
{
  public:
    virtual ~SchedModel() = default;

    virtual unsigned numDomains() const = 0;
    virtual const ClockDomain &domainClock(unsigned d) const = 0;
    virtual bool domainHalted(unsigned d) const = 0;
    virtual bool allHalted() const = 0;

    /** One divided-clock edge of domain @p d. */
    virtual void domainEdge(unsigned d) = 0;

    /** One reference-clock phase (bus resolution + DOU step). */
    virtual void refPhase() = 0;

    /**
     * Compiled-backend hook: execute up to @p max_slots consecutive
     * issue slots of domain @p d as one pre-analyzed block. Slot i of
     * the block stands for the edge at tick t + i * divider; the
     * block may only contain work that commutes with every reference
     * phase and other-domain edge in that window (for the chip:
     * compute ops touching tile-private state, never the comm
     * buffers). Returns the slots consumed; 0 means no block applies
     * and the caller must issue a single domainEdge().
     */
    virtual Tick
    domainEdgeBlock(unsigned d, Tick max_slots)
    {
        (void)d;
        (void)max_slots;
        return 0;
    }

    /**
     * Compiled-backend hook: advance up to @p max reference phases
     * that are provably comm-free (no DOU drives or captures in any
     * of them), crediting statistics exactly as max refPhase() calls
     * would. Returns the phases consumed (0 = the next phase may
     * move data and must run via refPhase()).
     */
    virtual Tick
    commFreeAdvance(Tick max)
    {
        (void)max;
        return 0;
    }

    /**
     * Compiled-backend hook: how many upcoming reference phases
     * (starting with the next one) are provably comm-free, up to
     * @p max — a pure probe, nothing advances. Inside such a window
     * no refPhase() moves data, so every domain edge touches only
     * that domain's state and a stalled comm op cannot unblock: the
     * scheduler walks each domain through the window on its own.
     */
    virtual Tick
    commQuiet(Tick max) const
    {
        (void)max;
        return 0;
    }

    /**
     * Compiled-backend hook: the scheduler has proven the next
     * @p max_slots edges of domain @p d fall inside a comm-quiet
     * window (commQuiet()); if the domain is stalled on a comm
     * hazard, consume up to that many stall slots in one call.
     * Returns the slots consumed; 0 = not comm-stalled.
     */
    virtual Tick
    domainStallBlock(unsigned d, Tick max_slots)
    {
        (void)d;
        (void)max_slots;
        return 0;
    }
};

/** Why Scheduler::run() returned. */
enum class SchedStop
{
    AllHalted, //!< the model reported allHalted()
    TickLimit, //!< the tick budget ran out
    Idle,      //!< nothing left to schedule but not halted
};

class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /**
     * Drive @p model until it halts or @p max_ticks reference cycles
     * elapse. May be called repeatedly; time accumulates and pending
     * work carries across calls, so run(1) in a loop is equivalent to
     * one large run() (robustness_test relies on this).
     */
    virtual SchedStop run(SchedModel &model, Tick max_ticks) = 0;

    virtual Tick curTick() const = 0;

    virtual SchedulerKind kind() const = 0;

    const char *name() const { return schedulerName(kind()); }
};

/** Construct a scheduler backend. */
std::unique_ptr<Scheduler> makeScheduler(SchedulerKind kind);

} // namespace synchro

#endif // SYNC_SIM_SCHEDULER_HH
