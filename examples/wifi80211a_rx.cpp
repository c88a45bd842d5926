/**
 * @file
 * 802.11a receiver example — the paper's end-to-end wireless
 * workload (Section 3), now executed *mapped* on the simulated chip:
 * the demap -> de-interleave -> fork(Viterbi ACS x2) -> join
 * (traceback) DAG is planned by the AutoMapper, lowered by the DAG
 * codegen, run cycle-accurately on both scheduler backends, checked
 * bit-exactly against the dsp:: golden chain, and priced next to the
 * paper's Table 4 802.11a row from its measured activity.
 *
 * A BER sweep of the pure dsp:: link (FFT -> demap -> de-interleave
 * -> Viterbi across SNR and modulations) still opens the report, as
 * the golden context for what the mapped receiver implements.
 */

#include <cstdio>

#include "apps/paper_workloads.hh"
#include "apps/wifi_runner.hh"
#include "common/rng.hh"
#include "dsp/ofdm.hh"
#include "sim/scheduler.hh"

using namespace synchro;
using namespace synchro::dsp;
using namespace synchro::apps;

int
main(int argc, char **argv)
{
    // --backend picks the run used for the power report; the
    // cross-check always covers both backends.
    const SchedulerKind primary = backendFromArgs(argc, argv);
    Rng rng(80211);

    std::printf("802.11a OFDM link: 48 data carriers, rate-1/2 "
                "K=7 code, 64-point FFT, CP %u\n\n",
                OfdmCpLen);
    std::printf("  %-8s %-10s", "SNR dB", "");
    for (Modulation m : {Modulation::BPSK, Modulation::QPSK,
                         Modulation::QAM16, Modulation::QAM64}) {
        std::printf(" %10s", m == Modulation::BPSK    ? "BPSK"
                             : m == Modulation::QPSK  ? "QPSK"
                             : m == Modulation::QAM16 ? "16-QAM"
                                                      : "64-QAM");
    }
    std::printf("\n");

    for (double snr : {30.0, 20.0, 15.0, 10.0, 5.0}) {
        std::printf("  %-8.0f %-10s", snr, "BER:");
        for (Modulation m : {Modulation::BPSK, Modulation::QPSK,
                             Modulation::QAM16, Modulation::QAM64}) {
            OfdmConfig cfg{m};
            std::vector<uint8_t> bits(20 * cfg.dataBitsPerSymbol());
            for (auto &b : bits)
                b = uint8_t(rng.below(2));
            auto tx = ofdmTransmit(bits, cfg);
            addAwgn(tx, snr, rng);
            auto rx = ofdmReceive(tx, cfg);
            rx.resize(bits.size());
            double ber = bitErrorRate(bits, rx);
            if (ber == 0)
                std::printf(" %10s", "clean");
            else
                std::printf(" %10.2e", ber);
        }
        std::printf("\n");
    }

    // --- the mapped receiver: plan, lower, run, verify ----------
    WifiPipelineParams params;
    params.symbols = 16;

    auto plan = planWifi(params);
    if (!plan) {
        std::printf("no feasible mapping\n");
        return 1;
    }
    std::printf("\nmapped receiver (QPSK, %u frames of %u data "
                "bits):\n%s",
                params.symbols, WifiFrameBits,
                plan->report().c_str());

    MappedWifiRun runs[2];
    const SchedulerKind kinds[2] = {SchedulerKind::EventQueue,
                                    SchedulerKind::Compiled};
    int pidx = 0;
    for (int i = 0; i < 2; ++i) {
        if (kinds[i] == primary)
            pidx = i;
        params.scheduler = kinds[i];
        runs[i] = runMappedWifi(params);
        const MappedWifiRun &r = runs[i];
        std::printf("\n%s: %zu data bits in %llu ticks (%.1f kbit/s "
                    "sustained)\n",
                    schedulerName(kinds[i]), r.output.size(),
                    (unsigned long long)r.ticks,
                    r.achieved_bit_rate_hz / 1e3);
        std::printf("  vs dsp:: golden chain: %s (payload %s); "
                    "%llu bus transfers, %llu deferrals, "
                    "%llu overruns, %llu conflicts\n",
                    r.bit_exact ? "bit-exact" : "MISMATCH",
                    r.golden_matches_tx ? "recovered" : "DAMAGED",
                    (unsigned long long)r.bus_transfers,
                    (unsigned long long)r.deferrals,
                    (unsigned long long)r.overruns,
                    (unsigned long long)r.conflicts);
    }

    const bool identical = runs[1].result.exit == runs[0].result.exit &&
                           runs[1].ticks == runs[0].ticks &&
                           runs[1].output == runs[0].output &&
                           runs[1].stats == runs[0].stats;
    std::printf("\nbackend cross-check (compiled vs event-queue): "
                "%s (both at tick %llu, all stats compared)\n",
                identical ? "identical" : "MISMATCH",
                (unsigned long long)runs[0].ticks);

    // --- measured power next to the paper's Table 4 row ----------
    std::printf("\npower report from the %s run:\n",
                schedulerName(kinds[pidx]));
    const auto &pw = runs[pidx].power;
    double paper_multi = 0, paper_single = 0;
    int paper_pct = 0;
    for (const auto &row : apps::paperAppTotals()) {
        if (row.app == "802.11a") {
            paper_multi = row.total_mw;
            paper_single = row.single_v_mw;
            paper_pct = row.savings_pct;
        }
    }
    std::printf("\nmulti-V vs single-V (measured activity, %.1f "
                "kbit/s sustained):\n",
                runs[pidx].achieved_bit_rate_hz / 1e3);
    std::printf("  %-30s %10s %12s %8s\n", "", "multi-V", "single-V",
                "saved");
    std::printf("  %-30s %7.2f mW %9.2f mW %6.1f%%\n",
                "this run (1 tile/stage)", pw.multi_v.total(),
                pw.single_v.total(), pw.savingsPct());
    std::printf("  %-30s %7.2f mW %9.2f mW %6d%%\n",
                "paper Table 4 802.11a (20 tiles)", paper_multi,
                paper_single, paper_pct);
    std::printf("  (the Viterbi ACS columns dominate at the top "
                "supply in both pricings — why the paper's own "
                "802.11a row saves so little, and why Figure 8 "
                "studies the ACS bus traffic)\n");

    bool ok = runs[0].bit_exact && runs[1].bit_exact && identical &&
              runs[pidx].overruns == 0 && runs[pidx].conflicts == 0;
    return ok ? 0 : 1;
}
