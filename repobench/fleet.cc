/**
 * @file
 * Workload "fleet": one op is one served item. Each batch admits many
 * multi-item streams, cycling through the four apps' fleet views, to
 * one FleetExecutor up front and drains them. Templates are built in
 * set-up, so an item is clone/refeed + simulate + readout + golden.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "apps/app_registry.hh"
#include "bench.hh"
#include "common/log.hh"
#include "trace.hh"

using namespace synchro;

namespace repobench
{

namespace
{

constexpr unsigned Workers = 2;
/** Streams per batch (a multiple of NumApps, so every batch holds
 *  the same app mix) and items per stream (at least two: a stream's
 *  chip stays live from its first item to its last). */
constexpr unsigned StreamsPerBatch = 128;
constexpr unsigned ItemsPerStream = 4;
constexpr int SetupRepeats = 7;
constexpr int ClonesTimed = 8;

/**
 * Wall clocks of every item of the batch in flight, indexed by item
 * minus base. Each slot is written only by the worker serving that
 * item; admitStream() and drain() order those writes against the
 * main thread's resize and reads.
 */
struct ItemClocks
{
    uint64_t base = 0;
    std::vector<double> start;    //!< feed called
    std::vector<double> fed;      //!< feed returned
    std::vector<double> simulated; //!< read_output called
    std::vector<double> done;     //!< golden returned
    std::vector<uint32_t> tid;    //!< serving thread
    bool plant = false;
    uint64_t plant_item = 0;

    void
    reset(uint64_t first_item, size_t items)
    {
        base = first_item;
        for (auto *v : {&start, &fed, &simulated, &done})
            v->assign(items, 0.0);
        tid.assign(items, 0);
    }
};

/** The item the calling worker is serving (feed .. golden). */
thread_local uint64_t tl_item = 0;

/** @p inner with its per-item hooks timed (and spanned when traced). */
sim::FleetWorkload
timedWorkload(sim::FleetWorkload inner, std::shared_ptr<ItemClocks> clk)
{
    sim::FleetWorkload w = inner;
    w.feed = [feed = inner.feed, clk](arch::Chip &chip, uint64_t item) {
        tl_item = item;
        const size_t i = item - clk->base;
        clk->start[i] = nowSeconds();
        clk->tid[i] = threadIndex();
        {
            Span s("arch.feed", item);
            feed(chip, item);
        }
        clk->fed[i] = nowSeconds();
    };
    w.read_output = [read = inner.read_output, clk](arch::Chip &chip) {
        clk->simulated[tl_item - clk->base] = nowSeconds();
        Span s("apps.readout", tl_item);
        return read(chip);
    };
    w.golden = [golden = inner.golden, clk](uint64_t item) {
        std::vector<uint8_t> want;
        {
            Span s("dsp.golden", item);
            want = golden(item);
        }
        if (clk->plant && item == clk->plant_item)
            want.at(0) ^= 1;
        clk->done[item - clk->base] = nowSeconds();
        return want;
    };
    return w;
}

struct Fleet
{
    std::unique_ptr<sim::FleetExecutor> ex;
    std::vector<unsigned> ids;
};

Fleet
buildFleet(uint32_t seed, const std::shared_ptr<ItemClocks> &clk)
{
    Fleet f;
    sim::FleetConfig cfg;
    cfg.workers = Workers;
    f.ex = std::make_unique<sim::FleetExecutor>(cfg);
    for (size_t a = 0; a < NumApps; ++a) {
        const apps::AppDescriptor &d =
            apps::AppRegistry::instance().at(AppNames[a]);
        f.ids.push_back(f.ex->addWorkload(timedWorkload(
            d.fleet(appParams(a, Shape::Served, appSeed(seed, a))),
            clk)));
    }
    return f;
}

/** What one drained batch measured. */
struct Batch
{
    uint64_t items = 0;
    double wall = 0;
    /** Feed start to golden end, per app (stream s serves app
     *  s % NumApps). */
    std::vector<double> item_s[NumApps];
    double sim_s = 0;           //!< summed feed end to readout start
    std::vector<double> queue_wait_s; //!< admission to first feed
    unsigned live_max = 0;
    uint64_t ticks = 0;
    uint64_t steals = 0;
    ArchCounts counts;
};

} // namespace

Report
runFleet(const Options &opt)
{
    Report rep;
    Tracer *const tracer = Tracer::active();
    Tracer::install(nullptr);
    auto clk = std::make_shared<ItemClocks>();

    // Set-up: the four fleet views and the executor with its four
    // template chips (plan + lower + verify + load, once each).
    std::vector<double> setup;
    Fleet fleet = timedSetup(SetupRepeats, setup,
                             [&] { return buildFleet(opt.seed, clk); });
    sim::FleetExecutor &ex = *fleet.ex;

    const double guard_mw = guardOp(rep, Shape::Served, opt.seed);

    uint64_t next_item = 0;
    sim::FleetReport last; // cumulative, as drain() reports it
    ArchCounts last_counts;
    auto runBatch = [&](unsigned streams) {
        const uint64_t items = uint64_t(streams) * ItemsPerStream;
        clk->reset(next_item, items);
        std::vector<double> admitted(streams);
        const double t0 = nowSeconds();
        for (unsigned s = 0; s < streams; ++s) {
            admitted[s] = nowSeconds();
            ex.admitStream(fleet.ids[s % NumApps], ItemsPerStream,
                           next_item + uint64_t(s) * ItemsPerStream);
        }
        sim::FleetReport fr = ex.drain();
        Batch b;
        b.wall = nowSeconds() - t0;
        b.items = items;
        rep.attempted += items;

        uint64_t failed = fr.items_abandoned - last.items_abandoned;
        std::string why;
        for (size_t s = last.stream_results.size();
             s < fr.stream_results.size(); ++s) {
            const sim::FleetStreamResult &sr = fr.stream_results[s];
            failed += sr.mismatches;
            if (why.empty())
                why = sr.first_failure;
        }
        if (failed > 0 || !fr.all_verified)
            rep.fail(why.empty() ? "fleet reported a failed item" : why,
                     std::max<uint64_t>(failed, 1));

        std::vector<std::pair<double, int>> live;
        Tracer *const t = Tracer::active();
        for (uint64_t i = 0; i < items; ++i) {
            b.item_s[(i / ItemsPerStream) % NumApps].push_back(
                clk->done[i] - clk->start[i]);
            b.sim_s += clk->simulated[i] - clk->fed[i];
            if (t) {
                // The item and its simulate step, rebuilt from the
                // hook clocks: Chip::run itself is not wrapped.
                SpanRecord op{"op", clk->start[i], clk->done[i],
                              t->nextId(), 0, next_item + i,
                              clk->tid[i]};
                t->record(op);
                t->record({"sim.run", clk->fed[i], clk->simulated[i],
                           t->nextId(), op.id, op.op, op.tid});
            }
        }
        for (unsigned s = 0; s < streams; ++s) {
            const uint64_t first = uint64_t(s) * ItemsPerStream;
            b.queue_wait_s.push_back(clk->start[first] - admitted[s]);
            live.push_back({clk->start[first], +1});
            live.push_back({clk->done[first + ItemsPerStream - 1], -1});
        }
        std::sort(live.begin(), live.end());
        int now_live = 0;
        for (const auto &[t, d] : live) {
            now_live += d;
            b.live_max = std::max<unsigned>(b.live_max, unsigned(now_live));
        }

        ArchCounts counts;
        counts.add(fr.totals.counters);
        b.counts = counts;
        b.counts -= last_counts;
        b.ticks = fr.totals.total_ticks - last.totals.total_ticks;
        b.steals = fr.steals - last.steals;
        last_counts = counts;
        last = std::move(fr);
        next_item += items;
        return b;
    };

    // Warm-up: one stream per app, timed apart. The modelled metrics
    // come from it, so they are a pure function of the seed.
    Batch warm = runBatch(NumApps);

    clk->plant = opt.plant_fault;
    clk->plant_item = next_item;
    std::vector<Batch> plain, traced_b;
    const double start = nowSeconds();
    auto measure = [&](bool traced) {
        Tracer::install(traced ? tracer : nullptr);
        (traced ? traced_b : plain).push_back(runBatch(StreamsPerBatch));
        Tracer::install(nullptr);
    };
    // A traced run serves batches in pairs, traced and untraced in
    // alternating order, so both kinds see the same drift.
    for (unsigned i = 0; nowSeconds() - start < opt.seconds; ++i) {
        measure(tracer && i % 2 == 1);
        if (tracer)
            measure(i % 2 == 0);
    }
    Tracer::install(tracer);
    std::fprintf(stderr,
                 "fleet: warm-up batch %.1f ms, %zu untraced + %zu "
                 "traced batches of %u x %u items in %.2f s\n",
                 warm.wall * 1e3, plain.size(), traced_b.size(),
                 StreamsPerBatch, ItemsPerStream, nowSeconds() - start);

    auto itemsPerSec = [](const std::vector<Batch> &bs) {
        double items = 0, wall = 0;
        for (const Batch &b : bs) {
            items += double(b.items);
            wall += b.wall;
        }
        return wall > 0 ? items / wall : 0.0;
    };
    // Item latencies form one cluster per app, so a quantile over
    // the mix would sit in a gap between clusters: take each app's
    // quantile and average them.
    auto itemQuantile = [](const std::vector<Batch> &bs, double q) {
        double sum = 0;
        for (size_t a = 0; a < NumApps; ++a) {
            std::vector<double> all;
            for (const Batch &b : bs)
                all.insert(all.end(), b.item_s[a].begin(),
                           b.item_s[a].end());
            sum += quantile(std::move(all), q);
        }
        return sum / NumApps;
    };

    if (!opt.trace) {
        rep.set("setup_s", setupSeconds(setup));
        rep.set("ops_per_s", itemsPerSec(plain));
        rep.set("op_ms_p50", 1e3 * itemQuantile(plain, 0.5));
        rep.set("op_ms_p90", 1e3 * itemQuantile(plain, 0.9));
        rep.set("peak_rss_mb", peakRssMb());
        rep.set("sim_ticks_per_op",
                double(warm.ticks) / double(warm.items));
        rep.set("model_mw", guard_mw);
        return rep;
    }

    double items = 0, wall = 0, sim_s = 0, ticks = 0, issued = 0;
    double steals = 0;
    unsigned live_max = 0;
    for (const Batch &b : traced_b) {
        items += double(b.items);
        wall += b.wall;
        sim_s += b.sim_s;
        ticks += double(b.ticks);
        issued += double(b.counts.issued);
        steals += double(b.steals);
        live_max = std::max(live_max, b.live_max);
    }
    double item_total = 0;
    std::vector<double> waits;
    for (const Batch &b : traced_b) {
        for (const auto &per_app : b.item_s)
            for (double s : per_app)
                item_total += s;
        waits.insert(waits.end(), b.queue_wait_s.begin(),
                     b.queue_wait_s.end());
    }
    auto self = tracer->selfSeconds();
    const double n = std::max(items, 1.0);
    auto ms = [&](const char *span) { return 1e3 * self[span] / n; };
    const double covered = self["arch.feed"] + self["apps.readout"] +
                           self["dsp.golden"] + sim_s;

    double build_s = 0;
    for (unsigned id : fleet.ids)
        build_s += ex.templateBuildSeconds(id);
    double clone_s = 0;
    for (unsigned id : fleet.ids) {
        for (int k = 0; k < ClonesTimed; ++k) {
            double t0 = nowSeconds();
            auto c = ex.templateChip(id).clone();
            clone_s += nowSeconds() - t0;
        }
    }
    uint64_t most = 0, total = 0;
    for (uint64_t w : last.items_by_worker) {
        most = std::max(most, w);
        total += w;
    }

    rep.set("dsp.golden_ms", ms("dsp.golden"));
    rep.set("arch.build_ms", 1e3 * build_s);
    rep.set("arch.clone_ms",
            1e3 * clone_s / double(ClonesTimed * fleet.ids.size()));
    rep.set("arch.feed_ms", ms("arch.feed"));
    rep.set("apps.readout_ms", ms("apps.readout"));
    rep.set("sim.run_ms", 1e3 * sim_s / n);
    rep.set("sim.mticks_per_s", ticks / sim_s / 1e6);
    rep.set("sim.ns_per_inst", 1e9 * sim_s / issued);
    rep.set("sim.run_share", sim_s / item_total);
    rep.set("fleet.item_ms_p50", 1e3 * itemQuantile(traced_b, 0.5));
    rep.set("fleet.item_ms_p90", 1e3 * itemQuantile(traced_b, 0.9));
    rep.set("fleet.busy_frac", item_total / (Workers * wall));
    rep.set("fleet.steals", steals / double(traced_b.size()));
    rep.set("fleet.worker_imbalance",
            total ? double(most) * double(last.items_by_worker.size()) /
                            double(total) -
                        1.0
                  : 0.0);
    rep.set("fleet.queue_wait_ms_p90", 1e3 * quantile(waits, 0.9));
    rep.set("fleet.live_streams_max", double(live_max));
    rep.set("trace.overhead_pct",
            100.0 * (itemsPerSec(plain) / itemsPerSec(traced_b) - 1.0));
    rep.set("trace.unaccounted_pct",
            100.0 * (item_total - covered) / item_total);
    warm.counts.addTo(rep, double(warm.items));
    return rep;
}

} // namespace repobench
