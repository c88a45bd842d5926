/**
 * @file
 * End-to-end mapped 802.11a receiver bench: the demap ->
 * de-interleave -> fork(Viterbi ACS x2) -> join(traceback) DAG
 * planned by the AutoMapper and executed cycle-accurately, producing
 * (1) the per-backend throughput comparison on a fork/join
 * workload and (2) the measured-activity multi-V vs single-V power
 * comparison next to the paper's Table 4 802.11a row. Appends its
 * numbers to BENCH_wifi.json so the trajectory is tracked across
 * PRs (tools/bench_check.py gates regressions in CI).
 */

#include <cstdio>

#include "apps/paper_workloads.hh"
#include "apps/wifi_runner.hh"
#include "bench_json.hh"
#include "sim/scheduler.hh"

using namespace synchro;
using namespace synchro::apps;

int
main(int argc, char **argv)
{
    // --backend picks which run's power/throughput is reported as
    // "this run"; both backends are always measured.
    const SchedulerKind primary = backendFromArgs(argc, argv);
    WifiPipelineParams params;
    params.symbols = 16;

    std::printf("mapped 802.11a receiver, %u frames, every "
                "backend:\n",
                params.symbols);
    MappedWifiRun runs[2];
    double wall[2] = {0, 0};
    SchedulerKind kinds[2] = {SchedulerKind::EventQueue,
                              SchedulerKind::Compiled};
    int pidx = 0;
    for (int i = 0; i < 2; ++i) {
        if (kinds[i] == primary)
            pidx = i;
        params.scheduler = kinds[i];
        runs[i] = runMappedWifi(params);
        wall[i] = runs[i].sim_seconds;
        std::printf("  %-10s %8llu ticks in %6.1f ms = %6.2f "
                    "Mticks/s  (%s, %llu overruns, %llu "
                    "deferrals)\n",
                    schedulerName(kinds[i]),
                    (unsigned long long)runs[i].ticks, wall[i] * 1e3,
                    double(runs[i].ticks) / wall[i] / 1e6,
                    runs[i].bit_exact ? "bit-exact" : "MISMATCH",
                    (unsigned long long)runs[i].overruns,
                    (unsigned long long)runs[i].deferrals);
    }
    const bool identical = runs[1].ticks == runs[0].ticks &&
                           runs[1].output == runs[0].output &&
                           runs[1].stats == runs[0].stats;
    double compiled_speedup = wall[1] > 0 ? wall[0] / wall[1] : 0.0;
    std::printf("  compiled speedup %.2fx, backends %s\n",
                compiled_speedup, identical ? "identical" : "MISMATCH");

    // --- measured power next to the paper's Table 4 row ----------
    const auto &pw = runs[pidx].power;
    int paper_pct = 0;
    for (const auto &row : paperAppTotals()) {
        if (row.app == "802.11a")
            paper_pct = row.savings_pct;
    }
    std::printf("\nmulti-V vs single-V (measured activity, %.1f "
                "kbit/s sustained): %.2f mW vs %.2f mW = %.1f%% "
                "saved (paper: %d%%)\n",
                runs[pidx].achieved_bit_rate_hz / 1e3,
                pw.multi_v.total(), pw.single_v.total(),
                pw.savingsPct(), paper_pct);

    bench::JsonReport report("BENCH_wifi.json");
    report.set("wifi_dag", "ticks", double(runs[0].ticks));
    report.set("wifi_dag", "eventq_mticks_per_s",
               double(runs[0].ticks) / wall[0] / 1e6);
    report.set("wifi_dag", "compiled_mticks_per_s",
               double(runs[1].ticks) / wall[1] / 1e6);
    report.set("wifi_dag", "compiled_speedup", compiled_speedup);
    report.set("wifi_dag", "bit_exact",
               runs[0].bit_exact && runs[1].bit_exact && identical
                   ? 1.0
                   : 0.0);
    report.set("wifi_dag", "sustained_kbps",
               runs[pidx].achieved_bit_rate_hz / 1e3);
    report.set("wifi_power_measured", "multi_v_mw",
               pw.multi_v.total());
    report.set("wifi_power_measured", "single_v_mw",
               pw.single_v.total());
    report.set("wifi_power_measured", "savings_pct",
               pw.savingsPct());
    report.set("wifi_power_measured", "paper_savings_pct",
               double(paper_pct));
    if (!report.write())
        std::printf("(could not write BENCH_wifi.json)\n");
    else
        std::printf("\nwrote BENCH_wifi.json\n");

    return runs[0].bit_exact && runs[1].bit_exact && identical &&
                   runs[pidx].overruns == 0 &&
                   runs[pidx].conflicts == 0
               ? 0
               : 1;
}
