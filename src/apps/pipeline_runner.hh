/**
 * @file
 * End-to-end mapped-pipeline execution of the paper's DDC receiver
 * (Section 3): mixer -> 5-stage CIC integrator (decimate by 8) ->
 * 5-stage CIC comb -> channel FIR -> power demodulator, closing the
 * whole Section 4.1 methodology loop on the simulator:
 *
 *   1. describe the receiver as an SDF graph with kernel cycle costs
 *   2. AutoMapper picks tiles, columns, dividers, voltages, ZORM
 *   3. codegen lowers the kernels + transfer schedule onto the plan
 *   4. the chip streams N samples cycle-accurately
 *   5. outputs are checked bit-exactly against the dsp:: goldens
 *   6. priceSimulation turns measured activity into the multi-V vs
 *      single-V comparison of Table 4
 *
 * The fixed-point contract: samples travel the bus as one 32-bit
 * word per token, I in the low half and Q in the high half, with the
 * CIC's 2^15 gain removed by a rounding right-shift at the decimator
 * (Hogenauer-style width pruning, mirrored exactly in the golden
 * model).
 */

#ifndef SYNC_APPS_PIPELINE_RUNNER_HH
#define SYNC_APPS_PIPELINE_RUNNER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "apps/app_harness.hh"
#include "mapping/explorer.hh"
#include "mapping/verifier.hh"
#include "power/dvfs.hh"
#include "sim/fleet.hh"

namespace synchro::apps
{

struct DdcPipelineParams
{
    /** Input samples to stream (multiple of 8, <= 4088). */
    unsigned samples = 2048;

    /** Input rate the mapping targets (Hz). */
    double sample_rate_hz = 5.5e6;

    /** Channel (PFIR-style) filter length. */
    unsigned chan_taps = 63;

    /** Delivery-grid slack passed to the lowerer. */
    double slack = 1.4;

    /** Synthetic-input RNG seed. */
    uint32_t seed = 2004;

    /** Execution backend. */
    SchedulerKind scheduler = defaultSchedulerKind();
};

/**
 * Everything a finished mapped-DDC run produced; the common slice
 * (plan, ticks, fabric stats, power, ...) comes from the harness.
 */
struct MappedDdcRun : MappedAppRun
{
    std::vector<int16_t> output; //!< demod output read from the chip
    std::vector<int16_t> golden; //!< dsp:: reference chain
    bool bit_exact = false;

    /** Input throughput the run actually sustained. */
    double achieved_sample_rate_hz = 0;
};

/** The synthetic RF input (tone + interferer + noise). */
std::vector<int16_t> ddcInput(const DdcPipelineParams &p);

/** Golden reference: the dsp:: chain the chip must match bit-exactly. */
std::vector<int16_t> ddcGolden(const DdcPipelineParams &p,
                               const std::vector<int16_t> &x);

/**
 * The receiver's SDF graph with measured per-firing cycle costs;
 * optionally also the per-actor bus annotations.
 */
mapping::SdfGraph ddcGraph(
    const DdcPipelineParams &p,
    std::vector<mapping::ActorCommSpec> *comm = nullptr);

/** Map the receiver; nullopt if no feasible allocation exists. */
std::optional<mapping::ChipPlan> planDdc(const DdcPipelineParams &p);

/**
 * The kernel stages ready for mapping::lowerPipeline (exposed for
 * tests that want to lower onto hand-built plans).
 */
std::vector<mapping::PipelineStage> ddcStages(
    const DdcPipelineParams &p, const std::vector<int16_t> &x);

/**
 * The whole loop: plan, lower, load, run, verify, price. fatal() if
 * no feasible mapping exists or the run does not halt.
 */
MappedDdcRun runMappedDdc(const DdcPipelineParams &p);

/*
 * The capability hooks below are legacy wrappers: the receiver
 * registers once with apps::AppRegistry (app_registry.hh) and these
 * forward to AppRegistry::instance().at("ddc")'s views.
 */

/**
 * Package the receiver for mapping::explorePlans — the plan-variant
 * hook: lowers, budgets, and golden-verifies an arbitrary candidate
 * ChipPlan. fatal() if no feasible baseline mapping exists.
 */
mapping::ExplorableApp explorableDdc(const DdcPipelineParams &p);

/**
 * The committed lowering bundled for mapping::verifyLowered — the
 * report hook the verify_plan example and the verifier regression
 * tests use to re-verify exactly what runMappedDdc() runs.
 */
mapping::LoweredArtifact verifiableDdc(const DdcPipelineParams &p);

/**
 * Package the receiver for sim::FleetExecutor — the per-work-item
 * hook set: one cold build (plan + lowering + load), then a
 * restart/refeed per item with input data seeded by
 * sim::fleetItemSeed(p.seed, item). Each item is one p.samples-long
 * channel block; outputs and goldens travel as raw halfword bytes.
 * fatal() if no feasible mapping exists.
 */
sim::FleetWorkload fleetDdc(const DdcPipelineParams &p);

/**
 * Package the receiver for the online DVFS governor (power/dvfs.hh):
 * the verifier-gated artifact, the fleet hooks, the canonical bursty
 * traffic shape, and the item <-> iteration exchange rate.
 */
power::DvfsAppHooks dvfsDdc(const DdcPipelineParams &p);

} // namespace synchro::apps

#endif // SYNC_APPS_PIPELINE_RUNNER_HH
