#include "mapping/comm_schedule.hh"

#include <algorithm>
#include <array>
#include <map>
#include <string>

#include "common/log.hh"

namespace synchro::mapping
{

using arch::BufferCtl;
using arch::DouProgram;
using arch::DouState;

namespace
{

/**
 * Build the SEG/Buffer outputs for all transfers in one cycle into
 * @p st; "" or why no DOU state can encode that cycle.
 */
std::string
cycleOutputs(const CommSchedule &sched, unsigned offset, DouState &st)
{
    st = DouState{};
    std::array<bool, arch::BusLanes> lane_used{};
    for (const Transfer &t : sched.transfers) {
        if (t.offset != offset)
            continue;
        if (t.lane >= arch::BusLanes)
            return strprintf("schedule: lane %u out of range", t.lane);
        if (t.offset >= sched.period)
            return strprintf("schedule: offset %u >= period %u",
                             t.offset, sched.period);
        if (lane_used[t.lane])
            return strprintf("schedule: two transfers on lane %u at "
                             "offset %u",
                             t.lane, offset);
        lane_used[t.lane] = true;

        // Positions this transfer spans (for segment switches).
        unsigned lo = arch::TilesPerColumn, hi = 0;
        bool uses_h = t.to_horizontal || t.src_tile < 0;
        std::vector<unsigned> spans = t.dst_tiles;
        if (t.src_tile >= 0)
            spans.push_back(unsigned(t.src_tile));
        for (unsigned pos : spans) {
            if (pos >= arch::TilesPerColumn)
                return strprintf("schedule: tile position %u out of "
                                 "range",
                                 pos);
            lo = std::min(lo, pos);
            hi = std::max(hi, pos);
        }
        if (t.src_tile >= 0) {
            BufferCtl c = BufferCtl::fromByte(st.buf[t.src_tile]);
            if (c.drive)
                return strprintf("schedule: tile %d drives twice at "
                                 "offset %u",
                                 t.src_tile, offset);
            c.drive = true;
            c.drive_lane = uint8_t(t.lane);
            st.buf[t.src_tile] = c.byte();
        }
        // A transfer with no sink is a drain: it empties the source
        // write buffer without delivering anywhere (used to keep
        // SIMD columns in lock step when only some lanes carry
        // useful data).
        for (unsigned d : t.dst_tiles) {
            BufferCtl c = BufferCtl::fromByte(st.buf[d]);
            if (c.capture)
                return strprintf("schedule: tile %u captures twice at "
                                 "offset %u",
                                 d, offset);
            c.capture = true;
            c.capture_lane = uint8_t(t.lane);
            st.buf[d] = c.byte();
        }

        // Close the segment switches covering [lo, hi] on this
        // lane's pair bit, plus the boundary switch for horizontal
        // traffic (the boundary attaches at position 0).
        unsigned pair_bit = t.lane / 2;
        if (uses_h)
            lo = 0;
        for (unsigned k = lo; k < hi; ++k)
            st.seg[k] = uint8_t(st.seg[k] | (1u << pair_bit));
        if (uses_h)
            st.seg[3] = uint8_t(st.seg[3] | (1u << pair_bit));
    }
    return "";
}

/**
 * Three counter waits L3 | L2 | L1 (each at most 40 times the next)
 * that chain every gap in the fewest states, most significant first.
 */
std::array<uint32_t, 3>
radixWaits(const std::vector<uint32_t> &gaps)
{
    std::array<uint32_t, 3> best{};
    uint64_t best_states = UINT64_MAX;
    for (uint32_t l3 = 2; l3 < 40; ++l3) {
        for (uint32_t l2 = 2 * l3; l2 < 40 * l3; l2 += l3) {
            for (uint32_t l1 = 2 * l2; l1 < 40 * l2; l1 += l2) {
                uint64_t states = 0;
                for (uint32_t g : gaps)
                    states += g / l1 + g % l1 / l2 + g % l2 / l3 + g % l3;
                if (states < best_states) {
                    best_states = states;
                    best = {l1, l2, l3};
                }
            }
        }
    }
    return best;
}

} // namespace

EdgeSlots
allocateEdgeSlots(const std::vector<unsigned> &slots_per_edge,
                  uint64_t spacing)
{
    const size_t n_edges = slots_per_edge.size();
    if (n_edges == 0)
        fatal("edge slots: a DAG schedule needs at least one edge");
    if (n_edges > arch::BusLanes)
        fatal("edge slots: %zu DAG edges exceed the %u bus lanes",
              n_edges, arch::BusLanes);
    uint64_t total = 0;
    for (unsigned m : slots_per_edge) {
        if (m == 0)
            fatal("edge slots: every edge needs at least one slot "
                  "per period");
        total += m;
    }
    if (spacing <= total + n_edges)
        fatal("edge slots: grid period %llu too tight for %llu "
              "staggered slots (rate too high for the reference "
              "clock)",
              (unsigned long long)spacing,
              (unsigned long long)total);

    EdgeSlots slots;
    slots.period = unsigned(spacing);
    slots.offsets.resize(n_edges);
    std::vector<char> used(size_t(spacing), 0);
    for (size_t e = 0; e < n_edges; ++e) {
        slots.lane.push_back(unsigned(e));
        const unsigned m = slots_per_edge[e];
        const uint64_t stride = spacing / m;
        uint64_t prev = 0;
        bool first = true;
        for (unsigned j = 0; j < m; ++j) {
            uint64_t o = uint64_t(e) + j * stride;
            if (!first && o <= prev)
                o = prev + 1; // keep the lane's slots time-ordered
            while (o < spacing && used[size_t(o)])
                ++o;
            if (o >= spacing)
                fatal("edge slots: no conflict-free offset left for "
                      "slot %u of edge %zu in a period of %llu",
                      j, e, (unsigned long long)spacing);
            used[size_t(o)] = 1;
            slots.offsets[e].push_back(unsigned(o));
            prev = o;
            first = false;
        }
    }
    return slots;
}

std::string
scheduleFault(const CommSchedule &sched)
{
    DouState st;
    for (const Transfer &t : sched.transfers) {
        std::string why = cycleOutputs(sched, t.offset, st);
        if (!why.empty())
            return why;
    }
    return "";
}

DouState
scheduleOutputAt(const CommSchedule &sched, uint64_t bus_cycle)
{
    if (bus_cycle < sched.prologue)
        return DouState{};
    unsigned offset =
        unsigned((bus_cycle - sched.prologue) % sched.period);
    DouState st;
    const std::string why = cycleOutputs(sched, offset, st);
    if (!why.empty())
        fatal("%s", why.c_str());
    st.nxt0 = st.nxt1 = 0; // successor fields are compiler business
    return st;
}

/**
 * Counter 3 is reserved as the always-zero fall-through counter:
 * single-cycle states (actives and 1-cycle idles) must test *some*
 * counter, and testing a live gap counter would decrement it. A
 * counter that is never loaded stays zero, so CNTR=3 always takes
 * NXTSTATE0 without perturbing the gap counters.
 */
constexpr unsigned ReservedCounter = arch::DouNumCounters - 1;

DouProgram
compileSchedule(const CommSchedule &sched)
{
    if (sched.period == 0)
        fatal("schedule: zero period");
    const std::string why = scheduleFault(sched);
    if (!why.empty())
        fatal("%s", why.c_str());

    // Active offsets in order.
    std::vector<unsigned> active;
    for (const Transfer &t : sched.transfers)
        active.push_back(t.offset);
    std::sort(active.begin(), active.end());
    active.erase(std::unique(active.begin(), active.end()),
                 active.end());

    // Idle gaps in program order: the prologue, the gap before each
    // active offset, and the tail completing the period — or, when
    // nothing ever transfers, one idle state looping forever.
    std::vector<uint32_t> gaps = {sched.prologue};
    for (size_t i = 0; i < active.size(); ++i)
        gaps.push_back(active[i] - (i == 0 ? 0 : active[i - 1] + 1));
    gaps.push_back(active.empty() ? 1 : sched.period - (active.back() + 1));

    // First each gap gets a counter of its own, first come first
    // served, and a gap left without one takes the longest counter
    // wait that fits plus single idle states. When that overflows the
    // DOU, the counters hold radixWaits() instead and every gap
    // chains as many counter waits as fit.
    for (bool chain : {false, true}) {
        DouProgram prog;
        std::map<uint32_t, unsigned> waits; // wait length -> counter
        unsigned used = 0;
        if (chain) {
            const std::array<uint32_t, 3> lens = radixWaits(gaps);
            for (; used < ReservedCounter; ++used) {
                prog.counter_init[used] = lens[used] - 1;
                waits[lens[used]] = used;
            }
        }
        auto emit_wait = [&](uint32_t gap) {
            for (bool first = true; gap > 0; first = false) {
                if (gap >= 2 && used < ReservedCounter && !waits.count(gap)) {
                    prog.counter_init[used] = gap - 1;
                    waits.emplace(gap, used++);
                }
                // The longest wait that fits (the gap's own, if any).
                auto it = waits.upper_bound(gap);
                if (it == waits.begin() || !(first || chain))
                    it = waits.end();
                else
                    --it;
                // A wait state entered with counter value v spends v
                // decrement cycles plus one reload-and-exit cycle, so
                // the counter is reloaded for its next use.
                DouState wait;
                wait.cntr = uint8_t(ReservedCounter);
                const unsigned idx = unsigned(prog.states.size());
                wait.nxt0 = wait.nxt1 = uint8_t(idx + 1);
                uint32_t len = 1;
                if (it != waits.end()) {
                    len = it->first;
                    wait.cntr = uint8_t(it->second);
                    wait.nxt1 = uint8_t(idx);
                }
                if (idx > arch::DouMaxStates)
                    return;
                prog.states.push_back(wait);
                gap -= len;
            }
        };

        // Prologue wait, then the periodic body.
        emit_wait(gaps.front());
        const unsigned body_start = unsigned(prog.states.size());
        for (size_t i = 0; i < active.size(); ++i) {
            emit_wait(gaps[i + 1]);
            DouState st;
            cycleOutputs(sched, active[i], st); // scheduleFault() passed
            st.cntr = uint8_t(ReservedCounter);
            unsigned idx = unsigned(prog.states.size());
            st.nxt0 = st.nxt1 = uint8_t(idx + 1);
            prog.states.push_back(st);
        }
        emit_wait(gaps.back());
        if (prog.states.size() > arch::DouMaxStates)
            continue;
        // The last emitted state must wrap to body_start instead of
        // falling through.
        DouState &last = prog.states.back();
        if (last.nxt0 == prog.states.size())
            last.nxt0 = uint8_t(body_start);
        if (last.nxt1 == prog.states.size())
            last.nxt1 = uint8_t(body_start);
        prog.validate();
        return prog;
    }
    fatal("schedule compiles to more than %u states; the DOU holds %u",
          arch::DouMaxStates, arch::DouMaxStates);
}

} // namespace synchro::mapping
