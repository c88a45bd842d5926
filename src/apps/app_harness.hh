/**
 * @file
 * The shared scaffolding of every end-to-end mapped application —
 * the Section 4.1 methodology loop that pipeline_runner (DDC),
 * wifi_runner (802.11a), stereo_runner (stereo vision) and
 * motion_runner (MPEG-4 motion estimation) all execute:
 *
 *   1. describe the application as an SDF graph with kernel costs
 *   2. AutoMapper picks tiles, columns, dividers, voltages, ZORM
 *      (planApp)
 *   3. codegen lowers the kernels + transfer schedule onto the plan
 *      (lowerDag of the DAG the app's MappedAppSpec builds)
 *   4. the chip streams the workload cycle-accurately (MappedApp)
 *   5. outputs are checked bit-exactly against the dsp:: goldens
 *      (describeMismatch reports the first divergence)
 *   6. priceSimulationComparison turns measured activity into the
 *      multi-V vs single-V comparison of Table 4
 *
 * Each app keeps only what is genuinely its own: the SDF graph, the
 * hand-scheduled kernel bodies, how to read its output back out of
 * tile SRAM, and which golden chain to compare against. Everything
 * else — chip construction from the plan, program load, the timed
 * run with drain checking, fabric statistics, achieved-rate pricing
 * — lives here once.
 */

#ifndef SYNC_APPS_APP_HARNESS_HH
#define SYNC_APPS_APP_HARNESS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "mapping/auto_mapper.hh"
#include "mapping/codegen.hh"
#include "power/activity.hh"

namespace synchro::apps
{

/** Everything the harness needs to run a lowered application. */
struct MappedAppParams
{
    /** Short app name used in fatal()/diagnostic messages. */
    std::string app = "app";

    /** Execution backend. */
    SchedulerKind scheduler = defaultSchedulerKind();

    /** Tick budget for the run; fatal() if the chip does not drain. */
    Tick tick_limit = 0;

    /**
     * Items (samples, bits, blocks, ...) the run processes; the
     * achieved item rate is priced from this and the final tick
     * count, so the derived per-column frequencies are exactly what
     * this silicon would need to sustain the stream in real time.
     */
    uint64_t priced_items = 0;
};

/** The harness's common slice of a finished mapped-app run. */
struct MappedAppRun
{
    mapping::ChipPlan plan;
    arch::RunResult result{};

    uint64_t ticks = 0;
    uint64_t overruns = 0;
    uint64_t conflicts = 0;
    uint64_t deferrals = 0;
    uint64_t bus_transfers = 0;

    /** Host wall-clock seconds spent inside Chip::run alone. */
    double sim_seconds = 0;

    /** Item throughput the run actually sustained (items/s). */
    double achieved_items_per_sec = 0;

    /** Measured-activity power, multi-V vs single-V (Table 4). */
    power::MeasuredComparison power;

    /** Full chip statistics (for backend cross-checking). */
    std::map<std::string, uint64_t> stats;
};

/**
 * Methodology step 2: map @p graph with the stock power model and
 * supply levels. fatal() on an empty graph (a mapped app must have
 * actors); returns nullopt when no feasible allocation exists.
 */
std::optional<mapping::ChipPlan> planApp(
    const mapping::SdfGraph &graph,
    const std::vector<mapping::ActorCommSpec> &comm,
    double iterations_per_sec);

/**
 * Steps 4-6 around a lowered program: build the chip the plan and
 * program ask for, load it, run it, and on success price the
 * measured activity.
 *
 * The app reads its outputs back out of tile SRAM through chip()
 * after run() — the chip outlives the run precisely for that.
 */
class MappedApp
{
  public:
    /**
     * Builds and loads the chip; the program must fit the plan (it
     * is consumed here — the caller keeps ownership for its own
     * columnFor() lookups).
     */
    MappedApp(const MappedAppParams &params,
              const mapping::ChipPlan &plan,
              const mapping::PipelineProgram &prog);
    ~MappedApp();

    /**
     * Run until every column halts. fatal() (naming the app and the
     * exit reason) if the chip deadlocks or exhausts the tick
     * budget. Fills every MappedAppRun field.
     */
    MappedAppRun run();

    arch::Chip &chip() { return *chip_; }

  private:
    MappedAppParams params_;
    mapping::ChipPlan plan_;
    std::unique_ptr<arch::Chip> chip_;
};

/**
 * Fleet-serving support (sim/fleet.hh): the per-item warm path of a
 * FleetWorkload. Chip::restart() back to tick 0, wipe the programmed
 * tiles' SRAM, and write @p spec's stage images (matched to columns
 * by actor name). After it, the chip is bit-identical to a fresh
 * mapping::buildChip of a program lowered from @p spec — programs,
 * DOU schedules and ZORM settings depend only on the app parameters,
 * never on the input data, so only the images differ between items.
 */
void refeedImages(arch::Chip &chip,
                  const mapping::PipelineProgram &prog,
                  const mapping::DagSpec &spec);

/** Raw little-endian bytes of a halfword/word vector, as tile SRAM
 * stores them — the fleet's output/golden exchange format. */
std::vector<uint8_t> bytesOfHalves(const std::vector<int16_t> &h);
std::vector<uint8_t> bytesOfWords(const std::vector<int32_t> &w);

/**
 * Golden-mismatch reporting: "" when @p got == @p want, otherwise a
 * one-line diagnosis (size divergence, or the first differing index
 * with both values) the runners put in their failure output instead
 * of a bare boolean.
 */
std::string describeMismatch(const std::string &what,
                             const std::vector<uint8_t> &got,
                             const std::vector<uint8_t> &want);
std::string describeMismatch(const std::string &what,
                             const std::vector<int16_t> &got,
                             const std::vector<int16_t> &want);
std::string describeMismatch(const std::string &what,
                             const std::vector<int32_t> &got,
                             const std::vector<int32_t> &want);

} // namespace synchro::apps

#endif // SYNC_APPS_APP_HARNESS_HH
