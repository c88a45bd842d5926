#include "arch/bus.hh"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/log.hh"

namespace synchro::arch
{

BusFabric::BusFabric(unsigned n_columns, bool strict,
                     bool self_timed)
    : n_columns_(n_columns), strict_(strict),
      self_timed_(self_timed),
      transfers_(stats_.counter("transfers")),
      captures_(stats_.counter("captures")),
      conflicts_(stats_.counter("conflicts")),
      underruns_(stats_.counter("underruns")),
      overruns_(stats_.counter("overruns")),
      deferrals_(stats_.counter("deferrals")),
      wire_span_(stats_.counter("wireSpanSum"))
{
}

void
buildPlan(const std::vector<const DouState *> &states, CyclePlan &plan)
{
    // Only lanes with a scheduled drive do anything in cycle().
    uint32_t drive_lanes = 0;
    for (const DouState *st : states) {
        for (uint8_t b : st->buf) {
            const BufferCtl ctl = BufferCtl::fromByte(b);
            if (ctl.drive)
                drive_lanes |= 1u << ctl.drive_lane;
        }
    }
    plan.n = 0;
    for (unsigned lane = 0; lane < BusLanes; ++lane) {
        if (!(drive_lanes & (1u << lane)))
            continue;
        if (plan.n == plan.lanes.size())
            plan.lanes.emplace_back();
        LanePlan &lp = plan.lanes[plan.n++];
        lp.lane = uint8_t(lane);
        lp.drivers.clear();
        lp.captures.clear();
        // Segment groups on this lane: closed switches chain a
        // column's tile positions into intervals, and a closed
        // boundary switch joins position 0's interval to the one
        // horizontal bus (group 0). Each group's node count is the
        // input of wire-span accounting.
        const unsigned bit = 1u << (lane / 2);
        std::vector<uint32_t> &raw = plan.raw_nodes;
        raw.assign(1, 1);
        for (unsigned c = 0; c < states.size(); ++c) {
            uint16_t group = 0;
            for (unsigned t = 0; t < TilesPerColumn; ++t) {
                const uint8_t sw = states[c]->seg[t == 0 ? 3 : t - 1];
                if (!(sw & bit)) {
                    group = uint16_t(raw.size());
                    raw.push_back(0);
                }
                ++raw[group];
                const BufferCtl ctl = BufferCtl::fromByte(states[c]->buf[t]);
                const LanePlan::Slot s{uint8_t(c), uint8_t(t), group};
                if (ctl.drive && ctl.drive_lane == lane)
                    lp.drivers.push_back(s);
                if (ctl.capture && ctl.capture_lane == lane)
                    lp.captures.push_back(s);
            }
        }
        // Renumber densely over the groups a slot touches: cycle()
        // visits every group of the plan on every active phase.
        plan.dense.assign(raw.size(), -1);
        lp.group_nodes.clear();
        for (auto *slots : {&lp.drivers, &lp.captures}) {
            for (LanePlan::Slot &s : *slots) {
                int &d = plan.dense[s.group];
                if (d < 0) {
                    d = int(lp.group_nodes.size());
                    lp.group_nodes.push_back(raw[s.group]);
                }
                s.group = uint16_t(d);
            }
        }
    }
}

void
BusFabric::cycle(const CyclePlan &plan, const ColumnTiles &tiles)
{
    sync_assert(tiles.size() == n_columns_,
                "bus cycle expects %u columns, got %zu", n_columns_,
                tiles.size());

    for (const LanePlan &lp : plan) {
        const unsigned lane = lp.lane;
        const int n_groups = int(lp.group_nodes.size());

        // Gather candidate drivers (peek only: whether the word
        // actually leaves the write buffer is decided below, once
        // the capture side of its group is known).
        group_driver_.assign(n_groups, Driver{});
        bool any_activity = false;
        for (const LanePlan::Slot &s : lp.drivers) {
            Tile *tile = tiles[s.col][s.tile];
            if (!tile)
                continue;
            any_activity = true;
            if (!tile->writeBuffer().valid()) {
                ++underruns_;
                if (strict_ && !self_timed_)
                    fatal("bus: tile (%u,%u) scheduled to drive "
                          "lane %u with empty write buffer",
                          s.col, s.tile, lane);
                continue;
            }
            int wtag = tile->writeBuffer().laneTag();
            if (wtag >= 0 && unsigned(wtag) != lane) {
                // The pending word belongs to another edge's
                // lane; this slot idles and the word waits for
                // its own slot.
                ++deferrals_;
                continue;
            }
            Driver &d = group_driver_[s.group];
            if (d.present) {
                ++conflicts_;
                if (strict_)
                    fatal("bus: structural hazard on lane %u — "
                          "two drivers in one segment group",
                          lane);
                // Non-strict: first driver wins; the late write
                // buffer still drains (the electrical fight is
                // what the conflict counter records).
                tile->writeBuffer().pop();
                continue;
            }
            d.present = true;
            d.value = tile->writeBuffer().peek();
            d.src_tile = tile;
        }

        if (!any_activity)
            continue;

        // Self-timed: a transfer delivers only when every scheduled
        // capture in its group can accept the word; otherwise the
        // whole group defers and the driver keeps it for the next
        // slot (Section 2.3's buffers double as the handshake).
        group_deferred_.assign(n_groups, 0);
        if (self_timed_) {
            for (const LanePlan::Slot &s : lp.captures) {
                Tile *tile = tiles[s.col][s.tile];
                if (!tile)
                    continue;
                if (group_driver_[s.group].present &&
                    tile->readBuffer(lane).valid())
                    group_deferred_[s.group] = 1;
            }
        }

        // Commit drivers: pop delivered words (crediting their wire
        // span), defer held ones.
        for (int g = 0; g < n_groups; ++g) {
            Driver &d = group_driver_[g];
            if (!d.present)
                continue;
            if (group_deferred_[g]) {
                d.present = false;
                ++deferrals_;
                continue;
            }
            d.src_tile->writeBuffer().pop();
            ++transfers_;
            wire_span_ += lp.group_nodes[g];
        }

        // Deliver captures into the per-lane read buffers.
        for (const LanePlan::Slot &s : lp.captures) {
            Tile *tile = tiles[s.col][s.tile];
            if (!tile)
                continue;
            const Driver &d = group_driver_[s.group];
            if (!d.present) {
                if (group_deferred_[s.group])
                    continue; // deferral already counted
                ++underruns_;
                if (strict_ && !self_timed_)
                    fatal("bus: tile (%u,%u) captures lane %u "
                          "but no driver is connected",
                          s.col, s.tile, lane);
                continue;
            }
            if (!tile->readBuffer(lane).push(d.value,
                                             int(lane))) {
                // Drop-new: the pending unread word survives and
                // the word on the bus this cycle is the one lost.
                ++overruns_;
                if (strict_)
                    fatal("bus: tile (%u,%u) read buffer overrun "
                          "on lane %u",
                          s.col, s.tile, lane);
            }
            ++captures_;
        }
    }
}

size_t
BusTable::entryAt(uint64_t phase, uint64_t &base) const
{
    base = phase < prefix ? 0 : (phase - prefix) / period * period;
    auto it = std::partition_point(
        active.begin(), active.end(),
        [&](const Entry &e) { return e.end <= phase - base; });
    size_t i = size_t(it - active.begin());
    if (i == active.size() && loop < i) {
        i = loop;
        base += period;
    }
    return i;
}

std::shared_ptr<const BusTable>
BusTable::build(std::vector<TrajectoryPtr> trajs,
                std::vector<uint64_t> starts)
{
    auto t = std::make_shared<BusTable>();
    const size_t n = trajs.size();
    auto tooLong = [] {
        fatal("bus: the columns' DOU periods merge into more than %zu "
              "stretches per hyperperiod",
              DouMaxRuns);
    };
    // Per column: the run covering the current phase, its lasso
    // unroll, and the phase it ends (never, for an inert tail).
    std::vector<size_t> run(n);
    std::vector<uint64_t> base(n), end(n);
    for (size_t c = 0; c < n; ++c) {
        const DouTrajectory &d = *trajs[c];
        run[c] = d.runAt(starts[c], base[c]);
        end[c] = d.runEnd(run[c], base[c]) - starts[c];
        if (d.prefix() > starts[c])
            t->prefix = std::max(t->prefix, d.prefix() - starts[c]);
        if (d.period == 0)
            continue;
        const uint64_t f = d.period / std::gcd(t->period, d.period);
        if (t->period > (UINT64_MAX >> 2) / f)
            tooLong();
        t->period *= f;
    }

    // Sweep one prefix and one period, cutting at every run boundary
    // of any column: a stretch where some tile drives or captures
    // becomes an entry, with one plan per distinct output
    // combination.
    std::map<std::vector<uint64_t>, uint32_t> plan_of;
    std::vector<const DouState *> states(n);
    std::vector<uint64_t> key(n);
    const uint64_t horizon = t->prefix + t->period;
    for (uint64_t x = 0, stretches = 0; x < horizon; ++stretches) {
        if (stretches == DouMaxRuns)
            tooLong();
        if (x == t->prefix)
            t->loop = t->active.size();
        uint64_t next = x < t->prefix ? t->prefix : horizon;
        bool any = false;
        for (size_t c = 0; c < n; ++c) {
            const DouTrajectory &d = *trajs[c];
            states[c] = &d.prog.states[d.runs[run[c]].state];
            for (uint8_t b : states[c]->buf)
                any = any || b != 0; // some tile drives or captures
            key[c] = states[c]->pack() >> 14; // drop nxt0/nxt1
            next = std::min(next, end[c]);
        }
        if (any) {
            auto [it, fresh] = plan_of.emplace(key, t->plans.size());
            if (fresh)
                buildPlan(states, t->plans.emplace_back());
            t->active.push_back({x, next, it->second});
        }
        x = next;
        for (size_t c = 0; c < n; ++c) {
            if (end[c] == x) {
                trajs[c]->next(run[c], base[c]);
                end[c] = trajs[c]->runEnd(run[c], base[c]) - starts[c];
            }
        }
    }
    t->trajs = std::move(trajs);
    t->starts = std::move(starts);
    return t;
}

} // namespace synchro::arch
