#include "arch/dou.hh"

#include <algorithm>
#include <map>

#include "common/bitfield.hh"
#include "common/log.hh"

namespace synchro::arch
{

uint64_t
DouState::pack() const
{
    // Field order (LSB first): NXT1(7) NXT0(7) BUF3..0(32) SEG3..0(16)
    // CNTR(2) — 64 bits total, matching Figure 3's bit budget.
    uint64_t w = 0;
    unsigned pos = 0;
    w = insertBits(w, pos + 6, pos, nxt1);
    pos += 7;
    w = insertBits(w, pos + 6, pos, nxt0);
    pos += 7;
    for (unsigned t = 0; t < TilesPerColumn; ++t) {
        w = insertBits(w, pos + 7, pos, buf[t]);
        pos += 8;
    }
    for (unsigned s = 0; s < SegPointsPerColumn; ++s) {
        w = insertBits(w, pos + 3, pos, seg[s]);
        pos += 4;
    }
    w = insertBits(w, pos + 1, pos, cntr);
    return w;
}

DouState
DouState::unpack(uint64_t w)
{
    DouState st;
    unsigned pos = 0;
    st.nxt1 = uint8_t(bits(w, pos + 6, pos));
    pos += 7;
    st.nxt0 = uint8_t(bits(w, pos + 6, pos));
    pos += 7;
    for (unsigned t = 0; t < TilesPerColumn; ++t) {
        st.buf[t] = uint8_t(bits(w, pos + 7, pos));
        pos += 8;
    }
    for (unsigned s = 0; s < SegPointsPerColumn; ++s) {
        st.seg[s] = uint8_t(bits(w, pos + 3, pos));
        pos += 4;
    }
    st.cntr = uint8_t(bits(w, pos + 1, pos));
    return st;
}

DouProgram
DouProgram::idle()
{
    DouProgram p;
    p.states.push_back(DouState{}); // all-zero outputs, nxt0=nxt1=0
    return p;
}

void
DouProgram::validate() const
{
    if (states.empty())
        fatal("DOU program has no states");
    if (states.size() > DouMaxStates)
        fatal("DOU program has %zu states; hardware holds %u",
              states.size(), DouMaxStates);
    for (size_t i = 0; i < states.size(); ++i) {
        const DouState &s = states[i];
        if (s.cntr >= DouNumCounters)
            fatal("DOU state %zu: counter %u out of range", i, s.cntr);
        if (s.nxt0 >= states.size() || s.nxt1 >= states.size())
            fatal("DOU state %zu: successor out of range (%u/%u of "
                  "%zu states)",
                  i, s.nxt0, s.nxt1, states.size());
        for (unsigned p = 0; p < SegPointsPerColumn; ++p) {
            if (s.seg[p] > 0xf)
                fatal("DOU state %zu: seg[%u] wider than 4 bits", i, p);
        }
    }
}

std::string
DouTrajectory::derive(const DouProgram &prog, DouTrajectory &out)
{
    out.prog = prog;
    out.runs.clear();
    using Entry = std::pair<unsigned, std::array<uint32_t, DouNumCounters>>;
    std::map<Entry, size_t> seen;
    Entry m{0, prog.counter_init};
    uint64_t cyc = 0;
    while (true) {
        auto &[st, ctrs] = m;
        if (st >= prog.states.size())
            return strprintf("DOU transitions to missing state %u", st);
        if (prog.states[st].cntr >= DouNumCounters)
            return strprintf("DOU state %u tests counter %u", st,
                             prog.states[st].cntr);
        auto [it, fresh] = seen.emplace(m, out.runs.size());
        if (!fresh) {
            out.loop = it->second;
            out.period = cyc - out.runs[out.loop].start;
            return "";
        }
        if (out.runs.size() == DouMaxRuns)
            return strprintf("DOU trajectory does not repeat within "
                             "%zu runs",
                             DouMaxRuns);
        out.runs.push_back({cyc, st, ctrs});
        const DouState &s = prog.states[st];
        uint32_t &ctr = ctrs[s.cntr];
        if (s.nxt0 == st && s.nxt1 == st) {
            out.loop = out.runs.size() - 1;
            out.period = 0;
            return "";
        }
        // step(): zero reloads and takes nxt0, else decrement and
        // take nxt1 — a wait state repeats the latter ctr times.
        cyc += s.nxt1 == st ? uint64_t(ctr) + 1 : 1;
        if (s.nxt1 == st || ctr == 0) {
            ctr = prog.counter_init[s.cntr];
            st = s.nxt0;
        } else {
            --ctr;
            st = s.nxt1;
        }
    }
}

size_t
DouTrajectory::runAt(uint64_t cyc, uint64_t &base) const
{
    base = 0;
    if (period && cyc >= prefix()) {
        base = (cyc - prefix()) / period * period;
        cyc -= base;
    }
    auto it = std::upper_bound(
        runs.begin(), runs.end(), cyc,
        [](uint64_t c, const Run &r) { return c < r.start; });
    return size_t(it - runs.begin()) - 1;
}

void
DouTrajectory::at(uint64_t cyc, unsigned &state,
                  std::array<uint32_t, DouNumCounters> &ctrs) const
{
    uint64_t base;
    const Run &r = runs[runAt(cyc, base)];
    const uint64_t d = cyc - base - r.start;
    const DouState &s = prog.states[r.state];
    state = r.state;
    ctrs = r.ctrs;
    uint32_t &ctr = ctrs[s.cntr];
    if (d <= ctr) {
        ctr -= uint32_t(d); // a wait state's stay so far
    } else {
        // An inert self-loop: the tested counter wraps from zero to
        // its reload value every reload + 1 cycles.
        const uint64_t reload = prog.counter_init[s.cntr];
        ctr = uint32_t(reload - (d - ctr - 1) % (reload + 1));
    }
}

Dou::Dou(unsigned column)
    : column_(column), steps_(stats_.counter("steps"))
{
    // Every DOU powers up idle, so they share that trajectory.
    static const TrajectoryPtr idle = [] {
        auto t = std::make_shared<DouTrajectory>();
        DouTrajectory::derive(DouProgram::idle(), *t);
        return t;
    }();
    traj_ = idle;
    reset();
}

void
Dou::load(const DouProgram &prog)
{
    prog.validate();
    auto traj = std::make_shared<DouTrajectory>();
    const std::string why = DouTrajectory::derive(prog, *traj);
    if (!why.empty())
        fatal("column %u: %s", column_, why.c_str());
    traj_ = std::move(traj);
    reset();
}

void
Dou::reset()
{
    state_ = 0;
    counters_ = traj_->prog.counter_init;
    pos_ = 0;
}

void
Dou::seek(uint64_t pos)
{
    traj_->at(pos, state_, counters_);
    steps_ += pos - pos_;
    pos_ = pos;
}

void
Dou::copyStateFrom(const Dou &other)
{
    traj_ = other.traj_;
    state_ = other.state_;
    counters_ = other.counters_;
    pos_ = other.pos_;
}

} // namespace synchro::arch
