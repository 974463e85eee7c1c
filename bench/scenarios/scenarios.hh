/**
 * @file
 * Registry of the paper's figure/table scenarios as library
 * functions.
 *
 * Every paper experiment is a function of a ScenarioContext, so the
 * same code backs two frontends:
 *   - tools/vsgpu_cli.cc: `vsgpu scenario NAME` runs one scenario and
 *     `vsgpu record-golden` dumps each Summary into
 *     tests/golden/<scenario>.json,
 *   - the tier-1 golden regression tests, which replay scenarios at
 *     goldenScale and byte-compare the recorded summaries.
 *
 * Scenarios list their co-simulations as RunPoints and run them with
 * runAll() (scenario_util.hh), which shards them across ctx.pool,
 * shares per-configuration electrical setup through ctx.cache and
 * records every run into the context, so results are
 * bitwise-identical for any --jobs value; see docs/parallel_exec.md.
 *
 * The registry is an explicit list (no static self-registration —
 * linker-proof and greppable).
 */

#ifndef VSGPU_BENCH_SCENARIOS_SCENARIOS_HH
#define VSGPU_BENCH_SCENARIOS_SCENARIOS_HH

#include <algorithm>
#include <cmath>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "bench/scenarios/summary.hh"
#include "common/units.hh"
#include "exec/pool.hh"
#include "exec/setup_cache.hh"
#include "exec/sweep.hh"
#include "obs/profile.hh"
#include "obs/stats_snapshot.hh"
#include "obs/timeseries.hh"
#include "sim/metrics.hh"

namespace vsgpu::scen
{

/** Frontend-facing knobs of one scenario invocation. */
struct ScenarioOptions
{
    /** Worker count; 0 = hardware concurrency. */
    int jobs = 0;

    /**
     * Workload scale: multiplies instruction counts and cycle caps.
     * 1.0 reproduces the paper-sized runs; the golden harness replays
     * at goldenScale to keep tier-1 wall-clock small.
     */
    double scale = 1.0;

    /**
     * Time-series sampling window for every co-simulation, in
     * *simulated* seconds (<= 0 disables; CosimConfig::sampleEvery).
     * Observability only: never perturbs results.
     */
    double sampleEverySec = 0.0;

    /** Enable the stage-cost self-profiler for the run. */
    bool profile = false;

    /** Render a live per-task progress line on stderr. */
    bool progress = false;
};

/** Optional observability artifacts harvested by runScenario(). */
struct ScenarioTelemetry
{
    /** Per-run windowed series (empty when sampling was off). */
    obs::TimeSeriesDoc series;

    /** Aggregated stage-cost profile (runs == 0 when off). */
    obs::Profile profile;

    /** Sorted "scenario|pds-kind@area|severity|id|subject" of the
     *  audit findings on every cached setup and recorded run. */
    std::vector<std::string> auditFindings;
};

/** Insert "pds-kind@area|severity|id|subject" for each finding of
 *  @p audit into @p out. */
void addAuditFindings(std::set<std::string> &out,
                      const ModelAudit &audit);

/** Scale used when recording and replaying golden summaries. */
inline constexpr double goldenScale = 0.15;

/** Everything a scenario needs to run. */
struct ScenarioContext
{
    exec::Pool &pool;
    exec::SetupCache &cache;
    double scale = 1.0;

    /** Sink for the human-readable tables. */
    std::ostream &out;

    /** Sampling window runAll() sets on every run (sim seconds;
     *  <= 0 disables; ScenarioOptions::sampleEverySec). */
    double sampleEverySec = 0.0;

    /** Scale an instruction budget (>= 1). */
    int
    instrs(int base) const
    {
        return std::max(1, static_cast<int>(
                               std::lround(base * scale)));
    }

    /** Scale a cycle cap (floor keeps short runs meaningful). */
    Cycle
    cycles(Cycle base) const
    {
        const double scaled = static_cast<double>(base) * scale;
        return std::max<Cycle>(5000, static_cast<Cycle>(scaled));
    }

    // What runAll() recorded of every run; runScenario() reads it
    // after the scenario returns.

    /** Labels of every run, each unique in the scenario. */
    std::set<std::string> runLabels{};

    /**
     * Event counters summed over every run.  They are unsigned
     * integers summed element-wise under the mutex, so the totals are
     * exact and independent of pool scheduling: stats dumps built
     * from them are bitwise identical for --jobs 1 and --jobs N.
     */
    CosimCounters counters{};
    std::mutex countersMutex{};

    /**
     * Per-run time series keyed by run label, and the scenario-wide
     * stage-cost profile.  The map keys order the eventual dump, so
     * it is identical for any --jobs value even though tasks
     * *finish* in schedule order.
     */
    std::map<std::string, std::shared_ptr<obs::TimeSeriesRun>>
        series{};
    obs::Profile profile{};

    /** Control-audit findings of the runs. */
    std::set<std::string> auditFindings{};
};

using ScenarioFn = Summary (*)(ScenarioContext &ctx);

/** One registry entry. */
struct ScenarioInfo
{
    const char *name;  ///< stable id; golden file stem
    const char *title; ///< banner line
    ScenarioFn fn;
};

/** All registered scenarios, in paper order. */
const std::vector<ScenarioInfo> &allScenarios();

/** @return the named scenario, or nullptr. */
const ScenarioInfo *findScenario(const std::string &name);

/**
 * Run one scenario: builds the pool and setup cache, prints the
 * banner and tables to @p out, returns the summary.
 *
 * When @p stats is non-null, the scenario's aggregated counters
 * (gpu / sim / control / hypervisor) and exec-layer stats (pool,
 * setup cache) are appended to it after the run.  When
 * @p manifest is non-null it is filled with the run's provenance
 * (config fingerprint over every cached pdsSetupKey) and stamped
 * into the returned summary.  Both default to null so the golden
 * harness keeps producing manifest-free summaries byte-identical
 * to the recorded files.
 *
 * When @p telemetry is non-null it receives the time-series dump
 * (opts.sampleEverySec > 0) and the aggregated stage-cost profile
 * (opts.profile).
 */
Summary runScenario(const ScenarioInfo &info,
                    const ScenarioOptions &opts, std::ostream &out,
                    obs::StatsSnapshot *stats = nullptr,
                    obs::Manifest *manifest = nullptr,
                    ScenarioTelemetry *telemetry = nullptr);

// Scenario implementations (one translation unit each).
Summary runFig03Impedance(ScenarioContext &ctx);
Summary runFig08PdeBreakdown(ScenarioContext &ctx);
Summary runFig09WorstTransient(ScenarioContext &ctx);
Summary runFig10Sensitivity(ScenarioContext &ctx);
Summary runFig11NoiseDistribution(ScenarioContext &ctx);
Summary runFig12ThresholdSweep(ScenarioContext &ctx);
Summary runFig13ActuatorTradeoff(ScenarioContext &ctx);
Summary runFig14PenaltySaving(ScenarioContext &ctx);
Summary runFig15Dfs(ScenarioContext &ctx);
Summary runFig16Pg(ScenarioContext &ctx);
Summary runFig17Imbalance(ScenarioContext &ctx);
Summary runTable2Detectors(ScenarioContext &ctx);
Summary runTable3PdsComparison(ScenarioContext &ctx);
Summary runCtlStability(ScenarioContext &ctx);
Summary runSpectrumAnalysis(ScenarioContext &ctx);
Summary runAblationStacking(ScenarioContext &ctx);
Summary runAblationPiController(ScenarioContext &ctx);
Summary runAblationLoadline(ScenarioContext &ctx);

} // namespace vsgpu::scen

#endif // VSGPU_BENCH_SCENARIOS_SCENARIOS_HH
