/**
 * @file
 * vsgpu — command-line driver for the voltage-stacked GPU simulator.
 *
 * Subcommands:
 *   vsgpu list
 *       List benchmarks and PDS configurations.
 *   vsgpu run [options]
 *       Co-simulate a workload on a PDS configuration.
 *   vsgpu impedance [--area F]
 *       Effective-impedance sweep of the stacked PDN.
 *   vsgpu export-trace --benchmark NAME --out FILE [--sms N]
 *       Export a generated workload as a textual warp trace.
 *
 * run options:
 *   --pds vrm|ivr|vs|cross      PDS configuration  [cross]
 *   --benchmark NAME            paper benchmark    [hotspot]
 *   --trace FILE                replay a warp-trace file instead
 *   --instrs N                  instructions per warp [1500]
 *   --cycles N                  cycle budget       [200000]
 *   --area F                    CR-IVR area, x GPU [config default]
 *   --threshold V               smoothing trigger  [0.9]
 *   --halt-layer L@T            halt layer L at time T seconds
 *   --wave FILE.csv             dump layer-voltage trace as CSV
 *   --wave-out FILE             per-SM rail waveforms (VCD, or CSV
 *                               when FILE ends in .csv)
 *   --wave-stride N             record every Nth timestep [16]
 *   --stats-out FILE            stats dump as JSON with the run
 *                               manifest
 *   --trace-out FILE            Chrome trace_event JSON (open in
 *                               Perfetto / chrome://tracing)
 *   --trace-categories LIST     comma list of phase,pool,ctl,hv,all
 *   --sample-every SEC          windowed time-series telemetry
 *                               cadence, simulated seconds
 *   --timeseries-out FILE       time-series dump as JSON
 *   --profile                   stage-cost self-profiler: report on
 *                               stdout, JSON inside --stats-out
 *   --flight-out FILE           write the flight-recorder crash dump
 *                               as JSON here (stderr text dump is
 *                               always on)
 *   --gate-watts W              power of a halted layer's SMs
 *                               (fault injection: 'nan' trips the
 *                               solver NaN guard)
 *   --no-verify                 skip the static model verifier
 *                               (see tools/vsgpu_verify)
 *   --solver KIND               MNA linear solver: sparse (default)
 *                               or dense (docs/sparse_solver.md)
 *
 *   vsgpu report --stats FILE [--timeseries FILE]
 *       Render stats / profile / time-series JSON dumps as a
 *       human-readable report.
 */

#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "circuit/solver.hh"
#include "circuit/wave_writer.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "exec/pool.hh"
#include "exec/setup_cache.hh"
#include "obs/flight_recorder.hh"
#include "obs/manifest.hh"
#include "obs/profile.hh"
#include "obs/report.hh"
#include "obs/stats_snapshot.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "pdn/impedance.hh"
#include "sim/cosim.hh"
#include "sim/pds_setup.hh"
#include "sim/stats_export.hh"
#include "workloads/suite.hh"
#include "workloads/trace_file.hh"

using namespace vsgpu;

namespace
{

/** Minimal flag parser: --key value pairs after the subcommand. */
std::map<std::string, std::string>
parseFlags(int argc, char **argv, int first)
{
    std::map<std::string, std::string> flags;
    for (int i = first; i < argc; ++i) {
        const std::string key = argv[i];
        fatalIf(key.size() < 3 || key.substr(0, 2) != "--",
                "expected --flag, got '", key, "'");
        if (key == "--no-verify" || key == "--profile") {
            // Boolean flags, no value.
            flags.emplace(key.substr(2), "1");
            continue;
        }
        fatalIf(i + 1 >= argc, "flag ", key, " needs a value");
        flags[key.substr(2)] = argv[++i];
    }
    return flags;
}

std::string
flagOr(const std::map<std::string, std::string> &flags,
       const std::string &key, const std::string &fallback)
{
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
}

/** Integer flag --key (default @p fallback) that must be >= 1. */
template <typename Int>
Int
countFlag(const std::map<std::string, std::string> &flags,
          const std::string &key, const std::string &fallback)
{
    const std::string text = flagOr(flags, key, fallback);
    const char *end = text.data() + text.size();
    Int value = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    fatalIf(ec != std::errc{} || ptr != end || value < 1, "--", key,
            " must be an integer >= 1, got '", text, "'");
    return value;
}

PdsKind
parsePds(const std::string &name)
{
    if (name == "vrm")
        return PdsKind::ConventionalVrm;
    if (name == "ivr")
        return PdsKind::SingleLayerIvr;
    if (name == "vs")
        return PdsKind::VsCircuitOnly;
    if (name == "cross")
        return PdsKind::VsCrossLayer;
    fatal("unknown PDS '", name, "' (vrm|ivr|vs|cross)");
}

Benchmark
parseBenchmark(const std::string &name)
{
    for (Benchmark b : allBenchmarks())
        if (name == benchmarkName(b))
            return b;
    fatal("unknown benchmark '", name, "' (try 'vsgpu list')");
}

int
cmdList()
{
    std::cout << "benchmarks:";
    for (Benchmark b : allBenchmarks())
        std::cout << " " << benchmarkName(b);
    std::cout << "\npds configurations: vrm (single-layer VRM), "
                 "ivr (single-layer IVR),\n  vs (VS circuit-only), "
                 "cross (VS cross-layer)\n";
    return 0;
}

int
cmdRun(const std::map<std::string, std::string> &flags)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(parsePds(flagOr(flags, "pds", "cross")));
    cfg.maxCycles = countFlag<Cycle>(flags, "cycles", "200000");
    if (flags.count("area"))
        cfg.pds.ivrAreaFraction = std::stod(flags.at("area"));
    if (flags.count("threshold"))
        cfg.pds.controller.vThreshold =
            Volts{std::stod(flags.at("threshold"))};
    if (flags.count("no-verify"))
        cfg.verifyModel = false;
    if (flags.count("halt-layer")) {
        const std::string spec = flags.at("halt-layer");
        const auto at = spec.find('@');
        fatalIf(at == std::string::npos,
                "--halt-layer wants L@seconds, e.g. 0@3e-6");
        cfg.gatedLayer = std::stoi(spec.substr(0, at));
        fatalIf(cfg.gatedLayer < 0 || cfg.gatedLayer >= config::numLayers,
                "--halt-layer: layer ", cfg.gatedLayer,
                " is not a stacking layer (0..", config::numLayers - 1,
                ")");
        cfg.gateLayerAtSec = Seconds{std::stod(spec.substr(at + 1))};
    }
    if (flags.count("gate-watts"))
        cfg.gatedLayerWatts = Watts{std::stod(flags.at("gate-watts"))};
    if (flags.count("sample-every"))
        cfg.sampleEvery = Seconds{std::stod(flags.at("sample-every"))};
    if (flags.count("flight-out"))
        obs::setFlightDumpPath(flags.at("flight-out"));
    const bool wantProfile = flags.count("profile") > 0;
    if (wantProfile)
        obs::setProfiling(true);
    const bool wantWave = flags.count("wave") > 0;
    if (wantWave)
        cfg.traceStride = 16;
    const std::string waveOutPath = flagOr(flags, "wave-out", "");
    const int waveStride = std::stoi(flagOr(flags, "wave-stride", "16"));
    fatalIf(waveStride < 1, "--wave-stride must be >= 1, got ", waveStride);
    if (!waveOutPath.empty())
        cfg.waveStride = waveStride;

    const std::string tracePath = flagOr(flags, "trace-out", "");
    if (!tracePath.empty())
        obs::Tracer::instance().enable(obs::parseTraceCategories(
            flagOr(flags, "trace-categories", "")));

    // Route through the exec layer (single-worker pool + setup
    // cache) so the exec.* stats describe a real code path and the
    // manifest fingerprint comes from the cache's key set.
    exec::SetupCache cache;
    exec::Pool pool(1);

    CosimResult result;
    std::uint64_t seed = 0;
    std::string subject;
    if (flags.count("trace")) {
        std::ifstream in(flags.at("trace"));
        fatalIf(!in, "cannot open trace '", flags.at("trace"), "'");
        TraceFileFactory factory(TraceFile::parse(in));
        subject = "run trace " + flags.at("trace");
        CoSimulator sim(cache.withSetup(cfg));
        pool.parallelFor(1, [&](int) {
            result = sim.run(factory, 0.6);
        });
    } else {
        const Benchmark bench =
            parseBenchmark(flagOr(flags, "benchmark", "hotspot"));
        seed = benchmarkSeed(bench);
        subject = std::string("run ") + benchmarkName(bench);
        WorkloadSpec spec = workloadFor(bench);
        spec = scaledToInstrs(
            spec, countFlag<int>(flags, "instrs", "1500"));
        CoSimulator sim(cache.withSetup(cfg));
        pool.parallelFor(1, [&](int) { result = sim.run(spec); });
    }

    if (wantProfile)
        obs::setProfiling(false);

    const auto &e = result.energy;
    Table table("run summary");
    table.setHeader({"metric", "value"});
    table.beginRow().cell("pds").cell(pdsName(cfg.pds.kind)).endRow();
    table.beginRow()
        .cell("cycles")
        .cell(static_cast<long long>(result.cycles))
        .endRow();
    table.beginRow()
        .cell("instructions")
        .cell(static_cast<long long>(result.instructions))
        .endRow();
    table.beginRow()
        .cell("finished")
        .cell(result.finished ? "yes" : "NO (cycle budget)")
        .endRow();
    table.beginRow()
        .cell("avg load power (W)")
        .cell(result.avgLoadPower(), 2)
        .endRow();
    table.beginRow()
        .cell("PDE")
        .cell(formatPercent(e.pde()))
        .endRow();
    table.beginRow()
        .cell("mean rail (V)")
        .cell(result.meanVoltage, 3)
        .endRow();
    table.beginRow()
        .cell("min rail (V)")
        .cell(result.minVoltage, 3)
        .endRow();
    table.beginRow()
        .cell("throttle rate")
        .cell(formatPercent(result.throttleRate))
        .endRow();
    table.print(std::cout);

    if (wantWave) {
        std::ofstream out(flags.at("wave"));
        fatalIf(!out, "cannot open '", flags.at("wave"), "'");
        out << "time_s,min_sm,max_sm,layer0,layer1,layer2,layer3\n";
        for (const auto &s : result.trace) {
            out << s.timeSec.raw() << "," << s.minSmVolts.raw() << ","
                << s.maxSmVolts.raw();
            for (double v : s.layerVolts)
                out << "," << v;
            out << "\n";
        }
        std::cout << "\nwrote " << result.trace.size()
                  << " waveform samples to " << flags.at("wave")
                  << "\n";
    }

    if (!waveOutPath.empty()) {
        fatalIf(!result.wave, "run produced no waveform capture");
        std::ofstream out(waveOutPath);
        fatalIf(!out, "cannot open '", waveOutPath, "'");
        const bool csv =
            waveOutPath.size() >= 4 &&
            waveOutPath.substr(waveOutPath.size() - 4) == ".csv";
        if (csv)
            result.wave->writeCsv(out);
        else
            result.wave->writeVcd(out);
        std::cout << "wrote " << result.wave->numSamples()
                  << " samples x " << result.wave->numSignals()
                  << " rails to " << waveOutPath
                  << (csv ? " (CSV)" : " (VCD)") << "\n";
    }

    if (wantProfile && result.profile) {
        std::cout << "\n"
                  << obs::renderProfileReport(*result.profile);
    }

    if (flags.count("timeseries-out")) {
        obs::TimeSeriesDoc doc;
        doc.sampleEverySec = cfg.sampleEvery.raw();
        doc.dtSec = config::clockPeriod.raw();
        doc.windowCycles = obs::timeSeriesWindowCycles(
            config::clockPeriod.raw(), cfg.sampleEvery.raw());
        if (result.timeSeries) {
            result.timeSeries->label = subject;
            doc.runs.push_back(*result.timeSeries);
        }
        const std::string &path = flags.at("timeseries-out");
        std::ofstream out(path);
        fatalIf(!out, "cannot open '", path, "'");
        obs::writeTimeSeriesJson(doc, out);
        std::cout << "wrote " << doc.runs.size()
                  << " time-series runs to " << path << "\n";
    }

    if (flags.count("stats-out")) {
        obs::Manifest manifest = obs::makeManifest("vsgpu");
        manifest.subject = subject;
        manifest.configFingerprint =
            obs::configFingerprint(cache.cachedKeys());
        manifest.seed = seed;
        manifest.scale = 1.0;

        obs::StatsSnapshot stats;
        stats.manifest = manifest;
        appendRunStats(stats, result);
        appendExecStats(
            stats, pool.tasksRun(),
            static_cast<std::uint64_t>(cache.setupsBuilt()),
            static_cast<std::uint64_t>(cache.setupHits()));
        if (wantProfile && result.profile) {
            stats.profileJson =
                obs::writeProfileJson(*result.profile, "  ");
        }

        const std::string &path = flags.at("stats-out");
        std::ofstream out(path);
        fatalIf(!out, "cannot open '", path, "'");
        obs::writeStatsJson(stats, out);
        std::cout << "wrote " << stats.entries.size() << " stats to "
                  << path << "\n";
    }

    if (!tracePath.empty()) {
        obs::Tracer &tracer = obs::Tracer::instance();
        tracer.disable();
        std::ofstream out(tracePath);
        fatalIf(!out, "cannot open '", tracePath, "'");
        tracer.writeJson(out);
        std::cout << "wrote " << tracer.numEvents() << " events to "
                  << tracePath << "\n";
    }
    return 0;
}

int
cmdReport(const std::map<std::string, std::string> &flags)
{
    fatalIf(!flags.count("stats"),
            "report needs --stats FILE (a --stats-out dump); "
            "--timeseries FILE is optional");
    std::ifstream statsIn(flags.at("stats"));
    fatalIf(!statsIn, "cannot open '", flags.at("stats"), "'");
    const obs::StatsSnapshot stats = obs::readStatsJson(statsIn);

    obs::TimeSeriesDoc series;
    const bool haveSeries = flags.count("timeseries") > 0;
    if (haveSeries) {
        std::ifstream seriesIn(flags.at("timeseries"));
        fatalIf(!seriesIn, "cannot open '", flags.at("timeseries"),
                "'");
        series = obs::readTimeSeriesJson(seriesIn);
    }

    obs::writeRunReport(std::cout, stats,
                        haveSeries ? &series : nullptr);
    return 0;
}

int
cmdImpedance(const std::map<std::string, std::string> &flags)
{
    VsPdnOptions options;
    const double area = std::stod(flagOr(flags, "area", "0.2"));
    if (area > 0.0) {
        const CrIvrDesign design(area * config::gpuDieArea);
        options.crIvrEffOhms = design.effOhmsPerCell();
        options.crIvrFlyCapF = design.flyCapPerCell();
    }
    VsPdn pdn(options);
    ImpedanceAnalyzer analyzer(pdn);
    Table table("effective impedance, CR-IVR " +
                formatFixed(area, 2) + "x GPU area");
    table.setHeader({"freq_MHz", "Z_G", "Z_ST", "Z_R_same",
                     "Z_R_diff"});
    for (const auto &p :
         analyzer.sweep(logFrequencyGrid(1.0_MHz, 500.0_MHz, 24))) {
        table.beginRow()
            .cell(p.freq / 1.0_MHz, 2)
            .cell(p.zGlobal.raw(), 4)
            .cell(p.zStack.raw(), 4)
            .cell(p.zResidualSameLayer.raw(), 4)
            .cell(p.zResidualDiffLayer.raw(), 4)
            .endRow();
    }
    table.print(std::cout);
    return 0;
}

int
cmdExportTrace(const std::map<std::string, std::string> &flags)
{
    fatalIf(!flags.count("benchmark") || !flags.count("out"),
            "export-trace needs --benchmark and --out");
    WorkloadSpec spec =
        workloadFor(parseBenchmark(flags.at("benchmark")));
    spec = scaledToInstrs(spec, countFlag<int>(flags, "instrs", "500"));
    const int sms = countFlag<int>(flags, "sms", "2");
    WorkloadFactory factory(spec);
    const TraceFile trace = recordTrace(factory, sms);
    std::ofstream out(flags.at("out"));
    fatalIf(!out, "cannot open '", flags.at("out"), "'");
    trace.write(out);
    std::cout << "wrote " << trace.totalInstrs()
              << " instructions (" << trace.numStreams()
              << " streams) to " << flags.at("out") << "\n";
    return 0;
}

void
usage()
{
    std::cout
        << "usage: vsgpu <list|run|report|impedance|export-trace> "
           "[--flag value ...]\n"
           "see the header of tools/vsgpu_cli.cc for all options\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string cmd = argv[1];
    const auto flags = parseFlags(argc, argv, 2);
    if (flags.count("solver")) {
        SolverKind kind;
        fatalIf(!parseSolverKind(flags.at("solver"), kind),
                "--solver wants sparse or dense");
        setDefaultSolver(kind);
    }
    if (cmd == "list")
        return cmdList();
    if (cmd == "run")
        return cmdRun(flags);
    if (cmd == "report")
        return cmdReport(flags);
    if (cmd == "impedance")
        return cmdImpedance(flags);
    if (cmd == "export-trace")
        return cmdExportTrace(flags);
    usage();
    return 1;
}
