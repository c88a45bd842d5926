/**
 * @file
 * Data Orchestration Unit — the decoupled, statically-scheduled
 * communication controller of each column (paper Section 2.3,
 * Figure 3).
 *
 * The DOU is a state machine of up to 128 states driven at the bus
 * (maximum) frequency. Each state word packs five field types:
 *
 *   CNTR  (2 b)  which of the four 32-bit down-counters to test
 *   SEG   (4x4 b) segment-switch controls for the column bus
 *   Buffer(4x8 b) per-tile drive/capture controls
 *   NXTSTATE0 (7 b) successor when the tested counter is zero
 *                   (the counter also reloads its initial value)
 *   NXTSTATE1 (7 b) successor otherwise (the counter decrements)
 *
 * = 64 bits per state, exactly the layout of the paper's Figure 3.
 * The four pre-programmed down-counters give four nested loops.
 *
 * Buffer byte layout (our encoding of the paper's 8 bits/tile):
 *   bit 7    drive enable  (write buffer -> bus lane)
 *   bits 6:4 drive lane    (which of the 8 32-bit splits)
 *   bit 3    capture enable(bus lane -> read buffer)
 *   bits 2:0 capture lane
 */

#ifndef SYNC_ARCH_DOU_HH
#define SYNC_ARCH_DOU_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace synchro::arch
{

constexpr unsigned DouMaxStates = 128;
constexpr unsigned DouNumCounters = 4;
constexpr unsigned TilesPerColumn = 4;
constexpr unsigned BusLanes = 8;          //!< 8 x 32-bit = 256 bits
constexpr unsigned SegPointsPerColumn = 4; //!< 3 inter-tile + boundary

/** Per-tile buffer-control helpers. */
struct BufferCtl
{
    bool drive = false;
    uint8_t drive_lane = 0;
    bool capture = false;
    uint8_t capture_lane = 0;

    uint8_t
    byte() const
    {
        return uint8_t((drive ? 0x80 : 0) | ((drive_lane & 7) << 4) |
                       (capture ? 0x08 : 0) | (capture_lane & 7));
    }

    static BufferCtl
    fromByte(uint8_t b)
    {
        BufferCtl c;
        c.drive = (b & 0x80) != 0;
        c.drive_lane = (b >> 4) & 7;
        c.capture = (b & 0x08) != 0;
        c.capture_lane = b & 7;
        return c;
    }
};

/** One DOU state. */
struct DouState
{
    uint8_t cntr = 0;                              //!< 2 bits
    std::array<uint8_t, SegPointsPerColumn> seg{}; //!< 4 bits each
    std::array<uint8_t, TilesPerColumn> buf{};     //!< 8 bits each
    uint8_t nxt0 = 0;                              //!< 7 bits
    uint8_t nxt1 = 0;                              //!< 7 bits

    /** Pack into the 64-bit state word of Figure 3. */
    uint64_t pack() const;
    static DouState unpack(uint64_t word);

    friend bool
    operator==(const DouState &a, const DouState &b)
    {
        return a.pack() == b.pack();
    }
};

/** A complete DOU configuration: states plus counter initial values. */
struct DouProgram
{
    std::vector<DouState> states;
    std::array<uint32_t, DouNumCounters> counter_init{};

    /** A single self-looping all-idle state. */
    static DouProgram idle();

    /** fatal() if the program violates hardware limits. */
    void validate() const;
};

/** Most runs a DouTrajectory unrolls; Dou::load() refuses more. */
constexpr size_t DouMaxRuns = size_t(1) << 16;

/**
 * A DOU program's outputs as a function of the bus cycle: the machine
 * walked once from reset, one *run* per state stay (a wait state,
 * nxt1 == itself, entered with counter value v stays v + 1 cycles).
 * The (state, counters) at run entries repeat, so runs [0, loop) are a
 * prefix and runs [loop, end) recur every `period` cycles — or, for a
 * chain ending in an inert self-loop, the last run lasts forever
 * (period 0).
 */
struct DouTrajectory
{
    struct Run
    {
        uint64_t start = 0; //!< first cycle of the stay
        unsigned state = 0;
        std::array<uint32_t, DouNumCounters> ctrs{}; //!< on entry
    };

    DouProgram prog;
    std::vector<Run> runs;
    size_t loop = 0;
    uint64_t period = 0;

    /** Walk @p prog from reset into @p out; "" or why it stopped (a
     * missing successor or counter, no repeat within DouMaxRuns). */
    static std::string derive(const DouProgram &prog, DouTrajectory &out);

    /** First cycle of the periodic part. */
    uint64_t prefix() const { return runs[loop].start; }

    /** The run covering cycle @p cyc; @p base gets the multiple of
     * `period` the lasso was unrolled by to reach it. */
    size_t runAt(uint64_t cyc, uint64_t &base) const;

    /** First cycle after run @p i of unroll @p base (UINT64_MAX:
     * never). */
    uint64_t
    runEnd(size_t i, uint64_t base) const
    {
        if (i + 1 < runs.size())
            return runs[i + 1].start + base;
        return period ? prefix() + period + base : UINT64_MAX;
    }

    /** Advance (@p run, @p base) as runAt() names them by one run. */
    void
    next(size_t &run, uint64_t &base) const
    {
        if (++run == runs.size()) {
            run = loop;
            base += period;
        }
    }

    /** The machine's state index and counters at cycle @p cyc. */
    void at(uint64_t cyc, unsigned &state,
            std::array<uint32_t, DouNumCounters> &ctrs) const;
};

using TrajectoryPtr = std::shared_ptr<const DouTrajectory>;

/**
 * The DOU state machine. Call step() once per bus cycle; the returned
 * state's SEG/Buffer outputs configure the column bus for that cycle.
 * The EventQueue backend steps it; the Compiled backend reads its
 * position off the trajectory instead (seek()).
 */
class Dou
{
  public:
    explicit Dou(unsigned column);

    /** Validate @p prog and derive its trajectory; fatal(), naming
     * the column, past DouMaxRuns runs. */
    void load(const DouProgram &prog);

    /**
     * Outputs for this cycle, then advance. Defined inline: the
     * reference phase calls this once per column per tick.
     */
    const DouState &
    step()
    {
        ++steps_;
        ++pos_;
        const DouState &out = traj_->prog.states[state_];
        uint32_t &ctr = counters_[out.cntr];
        if (ctr == 0) {
            ctr = traj_->prog.counter_init[out.cntr];
            state_ = out.nxt0;
        } else {
            --ctr;
            state_ = out.nxt1;
        }
        return out;
    }

    /** Outputs for this cycle without advancing. */
    const DouState &current() const { return traj_->prog.states[state_]; }

    unsigned stateIndex() const { return state_; }
    uint32_t counter(unsigned i) const { return counters_.at(i); }

    /** Cycles stepped since load or reset. */
    uint64_t position() const { return pos_; }

    /** Jump to cycle @p pos >= position(), crediting the step
     * statistic as the skipped step() calls would. */
    void seek(uint64_t pos);

    /** The loaded program's trajectory, shared by copies. */
    const TrajectoryPtr &trajectory() const { return traj_; }

    void reset();

    /**
     * Snapshot @p other's program (sharing its trajectory) and
     * machine position into this DOU; statistics are NOT copied.
     * Chip::clone() drives this.
     */
    void copyStateFrom(const Dou &other);

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    unsigned column_;
    TrajectoryPtr traj_;
    unsigned state_ = 0;
    std::array<uint32_t, DouNumCounters> counters_{};
    uint64_t pos_ = 0;
    StatGroup stats_;
    Counter &steps_;
};

} // namespace synchro::arch

#endif // SYNC_ARCH_DOU_HH
