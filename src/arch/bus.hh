/**
 * @file
 * The Synchroscalar interconnect: per-column 256-bit segmented buses
 * (8 separable 32-bit lanes, segment switches between tiles) plus the
 * single horizontal inter-column bus (paper Section 2.3, Figures 1-2).
 *
 * Topology modelled per lane:
 *
 *    H ======================================== (horizontal bus)
 *    |seg[3]          |seg[3]
 *   tile0            tile0
 *    |seg[0]          |seg[0]
 *   tile1            tile1          ... one chain per column
 *    |seg[1]          |seg[1]
 *   tile2            tile2
 *    |seg[2]          |seg[2]
 *   tile3            tile3
 *
 * Each 4-bit SEG field controls its segment switch at lane-pair
 * granularity: bit g of seg[k] connects lanes 2g and 2g+1 across
 * point k. With every switch closed the fabric is one chip-wide
 * broadcast bus; with switches open, disjoint segments carry
 * independent transfers in the same cycle (the "approximate bandwidth
 * of a mesh" of Section 2.3).
 */

#ifndef SYNC_ARCH_BUS_HH
#define SYNC_ARCH_BUS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/dou.hh"
#include "arch/tile.hh"
#include "common/stats.hh"

namespace synchro::arch
{

/**
 * How one lane resolves under one combination of DOU bus outputs:
 * segment groups, driver/capture slots and group node counts depend
 * only on those outputs. Buffer validity, lane tags and deferral stay
 * dynamic in BusFabric::cycle().
 */
struct LanePlan
{
    struct Slot
    {
        uint8_t col = 0;
        uint8_t tile = 0;
        uint16_t group = 0; //!< dense id of the segment group
    };
    uint8_t lane = 0;
    std::vector<Slot> drivers;  //!< in scan order: col asc, tile asc
    std::vector<Slot> captures; //!< same order
    std::vector<uint32_t> group_nodes; //!< per group: node count
};

/**
 * How every lane with a drive resolves, in lane order. buildPlan()
 * refills a plan in place: the lanes past `n` and every vector keep
 * their capacity, so a caller that resolves each bus-active cycle
 * into one plan stops allocating once the capacities are reached.
 */
struct CyclePlan
{
    std::vector<LanePlan> lanes;
    size_t n = 0; //!< lanes in use

    const LanePlan *begin() const { return lanes.data(); }
    const LanePlan *end() const { return lanes.data() + n; }

    // buildPlan() scratch: one lane's segment-group node counts and
    // their dense renumbering.
    std::vector<uint32_t> raw_nodes;
    std::vector<int> dense;
};

/** Resolve into @p plan the bus for one DOU output per column. */
void buildPlan(const std::vector<const DouState *> &states,
               CyclePlan &plan);

/** Each column's tiles by position (nullptr if absent). */
using ColumnTiles = std::vector<std::vector<Tile *>>;

class BusFabric
{
  public:
    /**
     * @param self_timed  latency-insensitive delivery: a transfer
     *        whose destination read buffer is still full *defers* —
     *        the driver keeps its word and the slot retries next
     *        period — instead of overrunning. Producer-side
     *        backpressure (`cwr` stalls on a full write buffer) plus
     *        capture-side deferral self-time a whole DAG of edges;
     *        drop-new overruns never happen on scheduled transfers.
     */
    explicit BusFabric(unsigned n_columns, bool strict = false,
                       bool self_timed = false);

    /**
     * Resolve one bus cycle from its plan: pops driving tiles' write
     * buffers onto lanes and pushes captured values into the
     * per-lane read buffers.
     *
     * A drive slot whose write buffer holds a word tagged for a
     * *different* lane defers (counted, never fatal): the word waits
     * for its own lane's slot. This is what lets one producer feed
     * several DAG edges through a single write buffer.
     *
     * In strict mode, structural hazards (two drivers in one connected
     * group), driver underruns (drive with empty write buffer) and
     * capture overruns (push into a still-valid read buffer) are
     * fatal; otherwise they are counted in stats.
     */
    void cycle(const CyclePlan &plan, const ColumnTiles &tiles);

    bool selfTimed() const { return self_timed_; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Total driver events (32-bit bus transactions). */
    uint64_t transfers() const { return transfers_.value(); }

    /**
     * Sum over transfers of the connected-group node count — a proxy
     * for the wire length each transfer toggled; the segmentation
     * ablation uses this to quantify the energy saved by splitting
     * the bus.
     */
    uint64_t wireSpanSum() const { return wire_span_.value(); }

  private:
    unsigned n_columns_;
    bool strict_;
    bool self_timed_;

    StatGroup stats_;
    Counter &transfers_;
    Counter &captures_;
    Counter &conflicts_;
    Counter &underruns_;
    Counter &overruns_;
    Counter &deferrals_;
    Counter &wire_span_;

    /** One candidate driver of a connected segment group. */
    struct Driver
    {
        uint32_t value = 0;
        Tile *src_tile = nullptr;
        bool present = false;
    };

    // Per-lane scratch (reused across cycles — the resolution runs
    // every active reference phase, so it must not allocate).
    std::vector<Driver> group_driver_;
    std::vector<char> group_deferred_;
};

/**
 * A chip's bus compiled from its columns' DOU trajectories: every
 * stretch of *active* phases (some tile drives or captures) with its
 * plan. Phase 0 finds column c at cycle starts[c] of its trajectory;
 * entries [0, loop) lie in [0, prefix), entries [loop, end) recur
 * every `period` phases (the lcm of the columns' periods).
 */
struct BusTable
{
    struct Entry
    {
        uint64_t begin = 0; //!< first phase of an active stretch
        uint64_t end = 0;   //!< one past its last
        uint32_t plan = 0;  //!< index into plans
    };

    std::vector<TrajectoryPtr> trajs;
    std::vector<uint64_t> starts;
    std::vector<Entry> active;
    size_t loop = 0;
    uint64_t prefix = 0;
    uint64_t period = 1;
    std::vector<CyclePlan> plans;

    /** The entry covering or following @p phase (active.size():
     * none); @p base gets the offset of its table phases. */
    size_t entryAt(uint64_t phase, uint64_t &base) const;

    /** Merge @p trajs entered at @p starts; fatal() past DouMaxRuns
     * stretches per hyperperiod. */
    static std::shared_ptr<const BusTable>
    build(std::vector<TrajectoryPtr> trajs, std::vector<uint64_t> starts);
};

} // namespace synchro::arch

#endif // SYNC_ARCH_BUS_HH
