#include "bench/scenarios/scenarios.hh"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "circuit/solver.hh"
#include "common/logging.hh"
#include "exec/progress.hh"
#include "obs/flight_recorder.hh"
#include "obs/trace.hh"
#include "sim/stats_export.hh"

namespace vsgpu::scen
{

const std::vector<ScenarioInfo> &
allScenarios()
{
    static const std::vector<ScenarioInfo> scenarios = {
        {"fig03_impedance", "effective impedance of the VS GPU",
         &runFig03Impedance},
        {"table2_detectors", "voltage detector options",
         &runTable2Detectors},
        {"table3_pds_comparison",
         "comparison of power delivery subsystems (all 12 benchmarks)",
         &runTable3PdsComparison},
        {"fig08_pde_breakdown",
         "PDE and power breakdown across benchmarks",
         &runFig08PdeBreakdown},
        {"fig09_worst_transient",
         "transient waveforms under worst-case imbalance (layer "
         "halted at 3 us)",
         &runFig09WorstTransient},
        {"fig10_sensitivity",
         "worst droop vs CR-IVR area and control latency",
         &runFig10Sensitivity},
        {"fig11_noise_distribution",
         "noise distribution across benchmarks and the worst case "
         "(0.2x CR-IVR)",
         &runFig11NoiseDistribution},
        {"fig12_threshold_sweep",
         "performance penalty vs controller threshold",
         &runFig12ThresholdSweep},
        {"fig13_actuator_tradeoff",
         "energy saving vs performance penalty across actuator "
         "weights",
         &runFig13ActuatorTradeoff},
        {"fig14_penalty_saving",
         "performance penalty and net energy saving per benchmark",
         &runFig14PenaltySaving},
        {"fig15_dfs", "DFS on conventional vs voltage-stacked GPU",
         &runFig15Dfs},
        {"fig16_pg",
         "power gating on conventional vs voltage-stacked GPU",
         &runFig16Pg},
        {"fig17_imbalance",
         "vertical-pair current-imbalance distribution under power "
         "management",
         &runFig17Imbalance},
        {"ctl_stability",
         "closed-loop stability and disturbance-gain analysis",
         &runCtlStability},
        {"spectrum_analysis",
         "spectral split of layer-imbalance currents (basis of "
         "Section IV)",
         &runSpectrumAnalysis},
        {"ablation_stacking",
         "stacking geometry: re-partitioning 16 SMs into 2x8 / 4x4 / "
         "8x2",
         &runAblationStacking},
        {"ablation_pi_controller",
         "P vs PI smoothing: integral action against sustained "
         "imbalance",
         &runAblationPiController},
        {"ablation_loadline",
         "VRM load-line regulation: remote-sense servo on the "
         "conventional baseline",
         &runAblationLoadline},
    };
    return scenarios;
}

const ScenarioInfo *
findScenario(const std::string &name)
{
    for (const ScenarioInfo &s : allScenarios())
        if (name == s.name)
            return &s;
    return nullptr;
}

Summary
runScenario(const ScenarioInfo &info, const ScenarioOptions &opts,
            std::ostream &out, obs::StatsSnapshot *stats,
            obs::Manifest *manifest, ScenarioTelemetry *telemetry)
{
    exec::ProgressTracker progress(opts.progress);
    exec::Pool pool(opts.jobs, &progress);
    exec::SetupCache cache;
    ScenarioContext ctx{pool, cache, opts.scale, out};
    ctx.sampleEverySec = opts.sampleEverySec;

    if (opts.profile)
        obs::setProfiling(true);

    out << "=====================================================\n"
        << info.name << ": " << info.title << "\n"
        << "  (jobs=" << pool.threads() << ", scale=" << opts.scale
        << ")\n"
        << "=====================================================\n";

    Summary summary = info.fn(ctx);
    summary.scenario = info.name;
    summary.scale = opts.scale;

    if (opts.profile)
        obs::setProfiling(false);
    progress.finish();

    if (telemetry != nullptr) {
        if (opts.sampleEverySec > 0.0) {
            telemetry->series.sampleEverySec = opts.sampleEverySec;
            telemetry->series.dtSec = config::clockPeriod.raw();
            telemetry->series.windowCycles =
                obs::timeSeriesWindowCycles(config::clockPeriod.raw(),
                                            opts.sampleEverySec);
            for (const auto &entry : ctx.series)
                telemetry->series.runs.push_back(*entry.second);
        }
        telemetry->profile = ctx.profile;
    }

    if (stats != nullptr) {
        appendCounters(*stats, ctx.counters);
        appendExecStats(
            *stats, pool.tasksRun(),
            static_cast<std::uint64_t>(cache.setupsBuilt()),
            static_cast<std::uint64_t>(cache.setupHits()));
    }
    if (manifest != nullptr) {
        *manifest = obs::makeManifest(info.name);
        manifest->subject = info.name;
        manifest->configFingerprint =
            obs::configFingerprint(cache.cachedKeys());
        manifest->seed = 0; // scenarios derive seeds per sweep
        manifest->scale = opts.scale;
        summary.manifest = *manifest;
    }
    return summary;
}

int
scenarioMain(const char *name, int argc, char **argv)
{
    const ScenarioInfo *info = findScenario(name);
    if (info == nullptr) {
        std::cerr << "unknown scenario: " << name << "\n";
        return 1;
    }

    ScenarioOptions opts;
    std::string jsonPath;
    std::string statsPath;
    std::string tracePath;
    std::string traceCategories;
    std::string timeseriesPath;
    std::string flightPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--jobs" && hasValue) {
            const std::string text = argv[++i];
            const char *end = text.data() + text.size();
            const auto [ptr, ec] =
                std::from_chars(text.data(), end, opts.jobs);
            fatalIf(ec != std::errc{} || ptr != end || opts.jobs < 0,
                    "--jobs must be an integer >= 0, got '", text, "'");
        } else if (arg == "--scale" && hasValue) {
            opts.scale = std::atof(argv[++i]);
        } else if (arg == "--json" && hasValue) {
            jsonPath = argv[++i];
        } else if (arg == "--stats-out" && hasValue) {
            statsPath = argv[++i];
        } else if (arg == "--trace-out" && hasValue) {
            tracePath = argv[++i];
        } else if (arg == "--trace-categories" && hasValue) {
            traceCategories = argv[++i];
        } else if (arg == "--sample-every" && hasValue) {
            opts.sampleEverySec = std::atof(argv[++i]);
        } else if (arg == "--timeseries-out" && hasValue) {
            timeseriesPath = argv[++i];
        } else if (arg == "--profile") {
            opts.profile = true;
        } else if (arg == "--progress") {
            opts.progress = true;
        } else if (arg == "--flight-out" && hasValue) {
            flightPath = argv[++i];
        } else if (arg == "--solver" && hasValue) {
            SolverKind kind;
            if (!parseSolverKind(argv[++i], kind)) {
                std::cerr << "--solver must be sparse or dense\n";
                return 1;
            }
            setDefaultSolver(kind);
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: " << argv[0]
                << " [--jobs N] [--scale X] [--json PATH]\n"
                << "       [--stats-out PATH] [--trace-out PATH]\n"
                << "       [--trace-categories LIST]\n"
                << "  --jobs N     worker threads (default: hardware "
                   "concurrency)\n"
                << "  --scale X    workload scale (default 1.0)\n"
                << "  --json PATH  write the summary metrics as "
                   "JSON\n"
                << "  --stats-out PATH  write the stats dump as "
                   "JSON\n"
                << "  --trace-out PATH  write a Chrome trace_event "
                   "JSON file\n"
                << "  --trace-categories LIST  comma list of phase,"
                   "pool,ctl,hv,all\n"
                << "  --sample-every SEC  windowed time-series "
                   "telemetry cadence (sim seconds)\n"
                << "  --timeseries-out PATH  write the time-series "
                   "dump as JSON\n"
                << "  --profile    stage-cost self-profiler (report "
                   "on stdout, JSON in --stats-out)\n"
                << "  --progress   live per-task progress line on "
                   "stderr\n"
                << "  --flight-out PATH  crash-dump flight recorder "
                   "JSON here\n"
                << "  --solver KIND  MNA linear solver: sparse "
                   "(default) or dense\n";
            return 0;
        } else {
            std::cerr << "unknown argument: " << arg
                      << " (try --help)\n";
            return 1;
        }
    }
    if (opts.scale <= 0.0) {
        std::cerr << "--scale must be positive\n";
        return 1;
    }

    if (!tracePath.empty())
        obs::Tracer::instance().enable(
            obs::parseTraceCategories(traceCategories));
    if (!flightPath.empty())
        obs::setFlightDumpPath(flightPath);

    setLogQuiet(true);
    obs::StatsSnapshot stats;
    obs::Manifest manifest;
    ScenarioTelemetry telemetry;
    const Summary summary =
        runScenario(*info, opts, std::cout, &stats, &manifest,
                    &telemetry);

    std::cout << "\nSummary metrics:\n";
    for (const SummaryMetric &m : summary.metrics)
        std::cout << "  " << m.name << " = " << m.value << "\n";

    if (opts.profile && telemetry.profile.runs > 0) {
        stats.profileJson =
            obs::writeProfileJson(telemetry.profile, "  ");
        std::cout << "\n"
                  << obs::renderProfileReport(telemetry.profile);
    }

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath);
        if (!out.good()) {
            std::cerr << "cannot write " << jsonPath << "\n";
            return 1;
        }
        writeSummaryJson(summary, out);
        std::cout << "\nwrote " << jsonPath << "\n";
    }
    if (!statsPath.empty()) {
        std::ofstream out(statsPath);
        if (!out.good()) {
            std::cerr << "cannot write " << statsPath << "\n";
            return 1;
        }
        stats.manifest = manifest;
        obs::writeStatsJson(stats, out);
        std::cout << "wrote " << statsPath << "\n";
    }
    if (!timeseriesPath.empty()) {
        std::ofstream out(timeseriesPath);
        if (!out.good()) {
            std::cerr << "cannot write " << timeseriesPath << "\n";
            return 1;
        }
        obs::writeTimeSeriesJson(telemetry.series, out);
        std::cout << "wrote " << timeseriesPath << " ("
                  << telemetry.series.runs.size() << " runs)\n";
    }
    if (!tracePath.empty()) {
        obs::Tracer::instance().disable();
        std::ofstream out(tracePath);
        if (!out.good()) {
            std::cerr << "cannot write " << tracePath << "\n";
            return 1;
        }
        obs::Tracer::instance().writeJson(out);
        std::cout << "wrote " << tracePath << " ("
                  << obs::Tracer::instance().numEvents()
                  << " events)\n";
    }
    return 0;
}

} // namespace vsgpu::scen
