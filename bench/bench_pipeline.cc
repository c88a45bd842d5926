/**
 * @file
 * End-to-end mapped-pipeline bench: the DDC receiver planned by the
 * AutoMapper and executed cycle-accurately, producing (1) the
 * per-backend throughput comparison at multi-column scale and (2)
 * the first *measured-activity* multi-V vs single-V power
 * comparison, printed next to the paper's Table 4 DDC row. Appends
 * its numbers to BENCH_pipeline.json so the trajectory is tracked
 * across PRs.
 */

#include <cstdio>

#include "apps/paper_workloads.hh"
#include "apps/pipeline_runner.hh"
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
    DdcPipelineParams params;
    params.samples = 2048;

    std::printf("mapped DDC receiver, %u samples, every backend:\n",
                params.samples);
    MappedDdcRun runs[2];
    double wall[2] = {0, 0};
    SchedulerKind kinds[2] = {SchedulerKind::EventQueue,
                              SchedulerKind::Compiled};
    int pidx = 0;
    for (int i = 0; i < 2; ++i) {
        if (kinds[i] == primary)
            pidx = i;
        params.scheduler = kinds[i];
        runs[i] = runMappedDdc(params);
        wall[i] = runs[i].sim_seconds;
        std::printf("  %-10s %8llu ticks in %6.1f ms = %6.2f "
                    "Mticks/s  (%s, %llu overruns)\n",
                    schedulerName(kinds[i]),
                    (unsigned long long)runs[i].ticks, wall[i] * 1e3,
                    double(runs[i].ticks) / wall[i] / 1e6,
                    runs[i].bit_exact ? "bit-exact" : "MISMATCH",
                    (unsigned long long)runs[i].overruns);
    }
    const bool identical = runs[1].ticks == runs[0].ticks &&
                           runs[1].output == runs[0].output &&
                           runs[1].stats == runs[0].stats;
    double compiled_speedup = wall[1] > 0 ? wall[0] / wall[1] : 0.0;
    std::printf("  compiled speedup %.2fx, backends %s\n",
                compiled_speedup, identical ? "identical" : "MISMATCH");

    // --- measured power next to the paper's Table 4 DDC row ------
    const auto &pw = runs[pidx].power;
    double paper_multi = 0, paper_single = 0;
    int paper_pct = 0;
    for (const auto &row : paperAppTotals()) {
        if (row.app == "DDC") {
            paper_multi = row.total_mw;
            paper_single = row.single_v_mw;
            paper_pct = row.savings_pct;
        }
    }
    std::printf("\nmulti-V vs single-V (measured activity of the "
                "%s run, %0.2f MS/s sustained):\n",
                schedulerName(primary),
                runs[pidx].achieved_sample_rate_hz / 1e6);
    std::printf("  %-28s %10s %12s %8s\n", "", "multi-V", "single-V",
                "saved");
    std::printf("  %-28s %7.2f mW %9.2f mW %6.1f%%\n",
                "this run (1 tile/stage)", pw.multi_v.total(),
                pw.single_v.total(), pw.savingsPct());
    std::printf("  %-28s %7.2f mW %9.2f mW %6d%%\n",
                "paper Table 4 DDC (50 tiles)", paper_multi,
                paper_single, paper_pct);

    bench::JsonReport report("BENCH_pipeline.json");
    report.set("pipeline_ddc", "ticks", double(runs[0].ticks));
    report.set("pipeline_ddc", "eventq_mticks_per_s",
               double(runs[0].ticks) / wall[0] / 1e6);
    report.set("pipeline_ddc", "compiled_mticks_per_s",
               double(runs[1].ticks) / wall[1] / 1e6);
    report.set("pipeline_ddc", "compiled_speedup", compiled_speedup);
    report.set("pipeline_ddc", "bit_exact",
               runs[0].bit_exact && runs[1].bit_exact && identical
                   ? 1.0
                   : 0.0);
    report.set("pipeline_ddc", "sustained_msps",
               runs[pidx].achieved_sample_rate_hz / 1e6);
    report.set("power_measured", "multi_v_mw", pw.multi_v.total());
    report.set("power_measured", "single_v_mw", pw.single_v.total());
    report.set("power_measured", "savings_pct", pw.savingsPct());
    report.set("power_measured", "paper_savings_pct",
               double(paper_pct));
    if (!report.write())
        std::printf("(could not write BENCH_pipeline.json)\n");
    else
        std::printf("\nwrote BENCH_pipeline.json\n");

    return runs[0].bit_exact && runs[1].bit_exact && identical &&
                   runs[pidx].overruns == 0
               ? 0
               : 1;
}
