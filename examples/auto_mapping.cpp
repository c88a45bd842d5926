/**
 * @file
 * Automated mapping example — the paper's future-work tool chain
 * (Section 7: "a software tool chain to automate and optimize
 * application parallelization and communication scheduling"), now
 * closed end to end:
 *
 * The DDC receiver is described as an SDF graph with measured
 * per-firing cycle costs; the AutoMapper checks the SDF certificates
 * (consistency, deadlock freedom, buffer bounds) and chooses
 * power-optimal tile counts, dividers off the 600 MHz reference,
 * supply voltages and exact ZORM settings; codegen lowers the real
 * kernels and the static transfer schedule onto the planned columns;
 * the chip then streams samples through the mapped receiver and the
 * output is checked bit-exactly against the dsp:: golden chain —
 * cross-checked on both scheduler backends, with
 * measured-activity power priced next to the plan's analytic
 * estimate.
 *
 * `--backend eventq|compiled` picks the run used for the power
 * report; the cross-check always covers both.
 */

#include <cstdio>

#include "apps/pipeline_runner.hh"
#include "sim/scheduler.hh"

using namespace synchro;
using namespace synchro::apps;

int
main(int argc, char **argv)
{
    const SchedulerKind primary = backendFromArgs(argc, argv);
    DdcPipelineParams params;
    params.samples = 2048;

    // --- the plan and its SDF certificates ----------------------
    auto plan = planDdc(params);
    if (!plan) {
        std::printf("no feasible mapping\n");
        return 1;
    }
    std::printf("%s", plan->report().c_str());
    std::printf("\nSDF certificates:\n  repetition vector:");
    for (uint64_t q : plan->repetition)
        std::printf(" %llu", (unsigned long long)q);
    std::printf("\n  buffer bounds (tokens):");
    for (uint64_t b : plan->buffer_bounds)
        std::printf(" %llu", (unsigned long long)b);
    std::printf("\n");

    // --- run the real mapped receiver on every backend ----------
    MappedDdcRun runs[2];
    const SchedulerKind kinds[2] = {SchedulerKind::EventQueue,
                                    SchedulerKind::Compiled};
    int pidx = 0;
    for (int i = 0; i < 2; ++i) {
        if (kinds[i] == primary)
            pidx = i;
        params.scheduler = kinds[i];
        runs[i] = runMappedDdc(params);
        const MappedDdcRun &r = runs[i];
        std::printf("\n%s: %u samples -> %zu outputs in %llu ticks "
                    "(%.2f MS/s sustained)\n",
                    schedulerName(kinds[i]), params.samples,
                    r.output.size(), (unsigned long long)r.ticks,
                    r.achieved_sample_rate_hz / 1e6);
        std::printf("  vs dsp:: golden chain: %s; %llu bus "
                    "transfers, %llu overruns, %llu conflicts\n",
                    r.bit_exact ? "bit-exact" : "MISMATCH",
                    (unsigned long long)r.bus_transfers,
                    (unsigned long long)r.overruns,
                    (unsigned long long)r.conflicts);
    }

    // --- cross-check: everything observable must be identical ---
    const bool identical = runs[1].result.exit == runs[0].result.exit &&
                           runs[1].ticks == runs[0].ticks &&
                           runs[1].output == runs[0].output &&
                           runs[1].stats == runs[0].stats;
    std::printf("\nbackend cross-check (compiled vs event-queue): "
                "%s (both at tick %llu, all stats compared)\n",
                identical ? "identical" : "MISMATCH",
                (unsigned long long)runs[0].ticks);

    // --- measured power vs the plan's analytic estimate ---------
    std::printf("\npower report from the %s run:\n",
                schedulerName(kinds[pidx]));
    const auto &pw = runs[pidx].power;
    std::printf("\nmeasured power (priced at the sustained rate):\n");
    for (const auto &load : pw.loads) {
        std::printf("  %-10s %.1f MHz @ %.2f V\n", load.name.c_str(),
                    load.f_mhz, load.v);
    }
    std::printf("  multi-V %.2f mW vs single-V %.2f mW -> %.1f%% "
                "saved (plan estimated %.2f / %.2f mW)\n",
                pw.multi_v.total(), pw.single_v.total(),
                pw.savingsPct(), plan->power.total(),
                plan->single_voltage.total());

    bool ok = identical && runs[0].bit_exact && runs[1].bit_exact &&
              runs[pidx].overruns == 0 && runs[pidx].conflicts == 0;
    return ok ? 0 : 1;
}
