/**
 * @file
 * vsgpu — command-line frontend of the voltage-stacked GPU simulator
 * and of the paper's scenarios.
 *
 *   vsgpu list                         benchmarks, PDS kinds, scenarios
 *   vsgpu run [flags]                  co-simulate one workload
 *   vsgpu scenario NAME [flags]        run one paper scenario
 *   vsgpu record-golden [flags] [NAME...]
 *                                      re-record tests/golden/<NAME>.json
 *   vsgpu report --stats FILE [--timeseries FILE]
 *   vsgpu impedance [--area F]
 *   vsgpu export-trace --benchmark NAME --out FILE [--sms N]
 *
 * Each subcommand has one flag table (commands() below) that drives
 * its parsing, its rejection of unknown flags and `vsgpu CMD --help`.
 * Every number is read whole with std::from_chars; trailing garbage
 * or an out-of-range value is a fatal() naming the flag.
 */

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/scenarios/scenarios.hh"
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

/** One row of a subcommand's flag table. */
struct Flag
{
    const char *name; ///< without the leading "--"
    const char *arg;  ///< value placeholder; nullptr for a switch
    const char *help;
};

/** True when all of @p text is one T (std::from_chars: no sign
 *  prefix, no whitespace; "nan", "inf" and exponents are floats). */
template <typename T>
bool
parseWhole(const std::string &text, T &value)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    return ec == std::errc{} && ptr == end;
}

/** @p text, the value of --@p flag, as an integer >= @p min. */
template <typename Int>
Int
readInt(const std::string &flag, const std::string &text, Int min)
{
    Int value = 0;
    fatalIf(!parseWhole(text, value) || value < min, "--", flag,
            " must be an integer >= ", min, ", got '", text, "'");
    return value;
}

/** @p text, the value of --@p flag, as a double (NaN allowed: it is
 *  the fault --gate-watts injects). */
double
readReal(const std::string &flag, const std::string &text)
{
    double value = 0.0;
    fatalIf(!parseWhole(text, value), "--", flag,
            " must be a number, got '", text, "'");
    return value;
}

/** One subcommand's command line, checked against its flag table. */
struct Args
{
    std::map<std::string, std::string> values; ///< "" for a switch
    std::vector<std::string> operands;

    bool has(const std::string &key) const { return values.count(key) > 0; }

    std::string
    str(const std::string &key, const std::string &fallback = "") const
    {
        const auto it = values.find(key);
        return it == values.end() ? fallback : it->second;
    }

    template <typename Int>
    Int
    integer(const std::string &key, Int fallback, Int min) const
    {
        return has(key) ? readInt(key, values.at(key), min) : fallback;
    }

    double
    real(const std::string &key, double fallback) const
    {
        return has(key) ? readReal(key, values.at(key)) : fallback;
    }
};

struct Command
{
    const char *name;
    const char *operands; ///< usage of the operands; nullptr if none
    const char *summary;
    std::vector<Flag> flags;
    int (*run)(const Args &args);
};

/** The observability flags of run and scenario. */
const std::vector<Flag> obsFlags = {
    {"solver", "KIND",
     "MNA linear solver: sparse (default) or dense"},
    {"stats-out", "FILE", "stats dump as JSON with the run manifest"},
    {"timeseries-out", "FILE", "time-series dump as JSON"},
    {"sample-every", "SEC",
     "time-series window, simulated seconds [off]"},
    {"trace-out", "FILE",
     "Chrome trace_event JSON (Perfetto / chrome://tracing)"},
    {"trace-categories", "LIST", "comma list of phase,pool,ctl,hv,all"},
    {"profile", nullptr,
     "stage-cost self-profiler: report on stdout, JSON in --stats-out"},
    {"flight-out", "FILE",
     "flight-recorder crash dump as JSON (stderr text dump always on)"},
};

void
applySolver(const Args &args)
{
    if (!args.has("solver"))
        return;
    SolverKind kind;
    fatalIf(!parseSolverKind(args.str("solver"), kind),
            "--solver wants sparse or dense");
    setDefaultSolver(kind);
}

/** Applies --solver, --flight-out, --trace-out and --profile; call
 *  right before the run. */
void
armObservability(const Args &args)
{
    applySolver(args);
    if (args.has("flight-out"))
        obs::setFlightDumpPath(args.str("flight-out"));
    if (args.has("trace-out"))
        obs::Tracer::instance().enable(
            obs::parseTraceCategories(args.str("trace-categories")));
    if (args.has("profile"))
        obs::setProfiling(true);
}

/** Writes @p path with @p write, flushes it and prints "wrote
 *  WHAT to PATH", WHAT being what @p write returns.  A file that
 *  cannot be opened or written (a full disk, /dev/full) is a fatal()
 *  naming it instead. */
template <typename Write>
void
writeFile(const std::string &path, Write &&write)
{
    std::ofstream out(path);
    fatalIf(!out, "cannot open '", path, "'");
    const std::string what = write(out);
    out.flush();
    fatalIf(!out, "cannot write '", path, "'");
    std::cout << "wrote " << what << " to " << path << "\n";
}

/** After a run: prints the profile report and writes --stats-out
 *  (with the profile's JSON), --timeseries-out and --trace-out. */
void
writeArtifacts(const Args &args, obs::StatsSnapshot &stats,
               const obs::TimeSeriesDoc &series,
               const obs::Profile *profile)
{
    if (args.has("profile")) {
        obs::setProfiling(false);
        if (profile != nullptr) {
            stats.profileJson = obs::writeProfileJson(*profile, "  ");
            std::cout << "\n" << obs::renderProfileReport(*profile);
        }
    }
    if (args.has("stats-out")) {
        writeFile(args.str("stats-out"), [&](std::ostream &out) {
            obs::writeStatsJson(stats, out);
            return std::to_string(stats.entries.size()) + " stats";
        });
    }
    if (args.has("timeseries-out")) {
        writeFile(args.str("timeseries-out"), [&](std::ostream &out) {
            obs::writeTimeSeriesJson(series, out);
            return std::to_string(series.runs.size()) + " time-series runs";
        });
    }
    if (args.has("trace-out")) {
        obs::Tracer &tracer = obs::Tracer::instance();
        tracer.disable();
        writeFile(args.str("trace-out"), [&](std::ostream &out) {
            tracer.writeJson(out);
            return std::to_string(tracer.numEvents()) + " events";
        });
    }
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

const scen::ScenarioInfo &
parseScenario(const std::string &name)
{
    const scen::ScenarioInfo *info = scen::findScenario(name);
    fatalIf(info == nullptr, "unknown scenario '", name,
            "' (try 'vsgpu list')");
    return *info;
}

int
cmdList(const Args &)
{
    std::cout << "benchmarks:";
    for (Benchmark b : allBenchmarks())
        std::cout << " " << benchmarkName(b);
    std::cout << "\npds configurations: vrm (single-layer VRM), "
                 "ivr (single-layer IVR),\n  vs (VS circuit-only), "
                 "cross (VS cross-layer)\nscenarios:";
    for (const scen::ScenarioInfo &s : scen::allScenarios())
        std::cout << " " << s.name;
    std::cout << "\n";
    return 0;
}

int
cmdRun(const Args &args)
{
    // A trace fixes the workload and its length, so a workload flag
    // next to it would be silently ignored.
    for (const char *flag : {"benchmark", "instrs"})
        fatalIf(args.has("trace") && args.has(flag), "--", flag,
                " does not apply to a --trace replay");
    CosimConfig cfg;
    cfg.pds = defaultPds(parsePds(args.str("pds", "cross")));
    cfg.maxCycles = args.integer<Cycle>("cycles", 200000, 1);
    cfg.pds.ivrAreaFraction = args.real("area", cfg.pds.ivrAreaFraction);
    if (args.has("threshold"))
        cfg.pds.controller.vThreshold =
            Volts{args.real("threshold", 0.0)};
    if (args.has("no-verify"))
        cfg.verifyModel = false;
    if (args.has("halt-layer")) {
        const std::string spec = args.str("halt-layer");
        const auto at = spec.find('@');
        fatalIf(at == std::string::npos,
                "--halt-layer wants L@seconds, e.g. 0@3e-6");
        cfg.gatedLayer = readInt("halt-layer", spec.substr(0, at), 0);
        fatalIf(cfg.gatedLayer >= config::numLayers,
                "--halt-layer: layer ", cfg.gatedLayer,
                " is not a stacking layer (0..", config::numLayers - 1,
                ")");
        cfg.gateLayerAtSec =
            Seconds{readReal("halt-layer", spec.substr(at + 1))};
    }
    if (args.has("gate-watts"))
        cfg.gatedLayerWatts = Watts{args.real("gate-watts", 0.0)};
    const std::string waveOutPath = args.str("wave-out");
    const int waveStride = args.integer("wave-stride", 16, 1);
    if (!waveOutPath.empty())
        cfg.waveStride = waveStride;
    const Benchmark bench =
        parseBenchmark(args.str("benchmark", "hotspot"));
    const int instrs = args.integer("instrs", 1500, 1);
    const double sampleEverySec = args.real("sample-every", 0.0);
    cfg.sampleEvery = Seconds{sampleEverySec};
    armObservability(args);

    // Route through the exec layer (single-worker pool + setup
    // cache) so the exec.* stats describe a real code path and the
    // manifest fingerprint comes from the cache's key set.
    exec::SetupCache cache;
    exec::Pool pool(1);

    CosimResult result;
    std::uint64_t seed = 0;
    std::string subject;
    if (args.has("trace")) {
        const std::string path = args.str("trace");
        std::ifstream in(path);
        fatalIf(!in, "cannot open trace '", path, "'");
        TraceFileFactory factory(TraceFile::parse(in));
        subject = "run trace " + path;
        CoSimulator sim(cache.withSetup(cfg));
        pool.parallelFor(1, [&](int) {
            result = sim.run(factory, 0.6);
        });
    } else {
        seed = benchmarkSeed(bench);
        subject = std::string("run ") + benchmarkName(bench);
        WorkloadSpec spec = scaledToInstrs(workloadFor(bench), instrs);
        CoSimulator sim(cache.withSetup(cfg));
        pool.parallelFor(1, [&](int) { result = sim.run(spec); });
    }

    Table table("run summary");
    table.setHeader({"metric", "value"});
    const auto row = [&table](const char *metric) -> Table & {
        return table.beginRow().cell(metric);
    };
    row("pds").cell(pdsName(cfg.pds.kind)).endRow();
    row("cycles").cell(static_cast<long long>(result.cycles)).endRow();
    row("instructions")
        .cell(static_cast<long long>(result.instructions))
        .endRow();
    row("finished")
        .cell(result.finished ? "yes" : "NO (cycle budget)")
        .endRow();
    row("avg load power (W)").cell(result.avgLoadPower(), 2).endRow();
    row("PDE").cell(formatPercent(result.energy.pde())).endRow();
    row("mean rail (V)").cell(result.meanVoltage, 3).endRow();
    row("min rail (V)").cell(result.minVoltage, 3).endRow();
    row("throttle rate").cell(formatPercent(result.throttleRate)).endRow();
    table.print(std::cout);

    if (!waveOutPath.empty()) {
        fatalIf(!result.wave, "run produced no waveform capture");
        const bool csv =
            waveOutPath.size() >= 4 &&
            waveOutPath.substr(waveOutPath.size() - 4) == ".csv";
        writeFile(waveOutPath, [&](std::ostream &out) {
            if (csv)
                result.wave->writeCsv(out);
            else
                result.wave->writeVcd(out);
            return std::to_string(result.wave->numSamples()) +
                   " samples x " +
                   std::to_string(result.wave->numSignals()) +
                   (csv ? " rails (CSV)" : " rails (VCD)");
        });
    }

    obs::TimeSeriesDoc series = obs::timeSeriesHeader(
        config::clockPeriod.raw(), sampleEverySec);
    if (result.timeSeries) {
        result.timeSeries->label = subject;
        series.runs.push_back(*result.timeSeries);
    }

    obs::StatsSnapshot stats;
    stats.manifest = obs::makeManifest("vsgpu");
    stats.manifest.subject = subject;
    std::vector<std::string> keys;
    for (const auto &setup : cache.cachedSetups())
        keys.push_back(setup->key);
    stats.manifest.configFingerprint = obs::configFingerprint(keys);
    stats.manifest.seed = seed;
    stats.manifest.scale = 1.0;
    appendRunStats(stats, result);
    appendExecStats(stats, pool.tasksRun(),
                    static_cast<std::uint64_t>(cache.setupsBuilt()),
                    static_cast<std::uint64_t>(cache.setupHits()));
    writeArtifacts(args, stats, series, result.profile.get());
    return 0;
}

int
cmdScenario(const Args &args)
{
    fatalIf(args.operands.size() != 1,
            "scenario wants one NAME (try 'vsgpu list')");
    const scen::ScenarioInfo &info = parseScenario(args.operands[0]);
    scen::ScenarioOptions opts;
    opts.jobs = args.integer("jobs", 0, 0);
    opts.scale = args.real("scale", 1.0);
    fatalIf(!(opts.scale > 0.0), "--scale must be positive, got '",
            args.str("scale"), "'");
    opts.sampleEverySec = args.real("sample-every", 0.0);
    opts.profile = args.has("profile");
    opts.progress = args.has("progress");
    armObservability(args);

    setLogQuiet(true);
    obs::StatsSnapshot stats;
    scen::ScenarioTelemetry telemetry;
    const scen::Summary summary = scen::runScenario(
        info, opts, std::cout, &stats, &stats.manifest, &telemetry);

    std::cout << "\nSummary metrics:\n";
    for (const scen::SummaryMetric &m : summary.metrics)
        std::cout << "  " << m.name << " = " << m.value << "\n";

    writeArtifacts(args, stats, telemetry.series,
                   telemetry.profile.runs > 0 ? &telemetry.profile
                                              : nullptr);
    if (args.has("json")) {
        writeFile(args.str("json"), [&](std::ostream &out) {
            scen::writeSummaryJson(summary, out);
            return std::to_string(summary.metrics.size()) +
                   " summary metrics";
        });
    }
    return 0;
}

int
cmdRecordGolden(const Args &args)
{
    const std::string outDir = args.str("out", VSGPU_GOLDEN_DIR);
    scen::ScenarioOptions opts;
    opts.jobs = args.integer("jobs", 0, 0);
    opts.scale = scen::goldenScale;
    for (const std::string &name : args.operands)
        parseScenario(name);

    setLogQuiet(true);
    std::ostream discard(nullptr); // the scenarios' tables
    int recorded = 0;
    for (const scen::ScenarioInfo &info : scen::allScenarios()) {
        if (!args.operands.empty() &&
            std::find(args.operands.begin(), args.operands.end(),
                      info.name) == args.operands.end())
            continue;
        const std::string path = outDir + "/" + info.name + ".json";
        std::cout << "recording " << info.name << "\n" << std::flush;
        // Opened before the run, so a bad --out fails at once.
        writeFile(path, [&](std::ostream &out) {
            const scen::Summary summary =
                scen::runScenario(info, opts, discard);
            scen::writeSummaryJson(summary, out);
            return std::to_string(summary.metrics.size()) + " metrics";
        });
        ++recorded;
    }
    std::cout << recorded << " golden summaries written to " << outDir
              << "\n";
    return 0;
}

int
cmdReport(const Args &args)
{
    fatalIf(!args.has("stats"),
            "report needs --stats FILE (a --stats-out dump); "
            "--timeseries FILE is optional");
    std::ifstream statsIn(args.str("stats"));
    fatalIf(!statsIn, "cannot open '", args.str("stats"), "'");
    const obs::StatsSnapshot stats = obs::readStatsJson(statsIn);

    obs::TimeSeriesDoc series;
    const bool haveSeries = args.has("timeseries");
    if (haveSeries) {
        std::ifstream seriesIn(args.str("timeseries"));
        fatalIf(!seriesIn, "cannot open '", args.str("timeseries"),
                "'");
        series = obs::readTimeSeriesJson(seriesIn);
    }

    obs::writeRunReport(std::cout, stats,
                        haveSeries ? &series : nullptr);
    return 0;
}

int
cmdImpedance(const Args &args)
{
    applySolver(args);
    VsPdnOptions options;
    const double area = args.real("area", 0.2);
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
cmdExportTrace(const Args &args)
{
    fatalIf(!args.has("benchmark") || !args.has("out"),
            "export-trace needs --benchmark and --out");
    const WorkloadSpec spec =
        scaledToInstrs(workloadFor(parseBenchmark(args.str("benchmark"))),
                       args.integer("instrs", 500, 1));
    const int sms = args.integer("sms", 2, 1);
    fatalIf(sms > config::numSMs, "--sms must be <= ", config::numSMs,
            " (the GPU's SMs), got '", args.str("sms"), "'");
    WorkloadFactory factory(spec);
    const TraceFile trace = recordTrace(factory, sms);
    writeFile(args.str("out"), [&](std::ostream &out) {
        trace.write(out);
        return std::to_string(trace.totalInstrs()) + " instructions (" +
               std::to_string(trace.numStreams()) + " streams)";
    });
    return 0;
}

std::vector<Flag>
withObsFlags(std::vector<Flag> flags)
{
    flags.insert(flags.end(), obsFlags.begin(), obsFlags.end());
    return flags;
}

const std::vector<Command> &
commands()
{
    static const std::vector<Command> table = {
        {"list", nullptr,
         "list benchmarks, PDS configurations and scenarios",
         {},
         &cmdList},
        {"run", nullptr, "co-simulate a workload on a PDS configuration",
         withObsFlags({
             {"pds", "vrm|ivr|vs|cross", "PDS configuration [cross]"},
             {"benchmark", "NAME", "paper benchmark [hotspot]"},
             {"trace", "FILE", "replay a warp-trace file instead"},
             {"instrs", "N", "instructions per warp [1500]"},
             {"cycles", "N", "cycle budget [200000]"},
             {"area", "F", "CR-IVR area, x GPU [config default]"},
             {"threshold", "V", "smoothing trigger [0.9]"},
             {"halt-layer", "L@T", "halt layer L at time T seconds"},
             {"gate-watts", "W",
              "power of a halted layer's SMs ('nan' trips the solver "
              "NaN guard)"},
             {"wave-out", "FILE",
              "per-SM rail waveforms (VCD, or CSV when FILE ends in "
              ".csv)"},
             {"wave-stride", "N", "record every Nth timestep [16]"},
             {"no-verify", nullptr,
              "skip the static model audits "
              "(docs/model_verification.md)"},
         }),
         &cmdRun},
        {"scenario", "NAME", "run one paper scenario (see 'vsgpu list')",
         withObsFlags({
             {"jobs", "N", "worker threads [hardware concurrency]"},
             {"scale", "X", "workload scale [1.0]"},
             {"json", "FILE", "summary metrics as JSON"},
             {"progress", nullptr, "live per-task progress on stderr"},
         }),
         &cmdScenario},
        {"record-golden", "[NAME...]",
         "re-record the golden summaries at the golden scale (all "
         "scenarios, or the NAMEs)",
         {
             {"out", "DIR", "output directory [tests/golden]"},
             {"jobs", "N", "worker threads [hardware concurrency]"},
         },
         &cmdRecordGolden},
        {"report", nullptr,
         "render stats / profile / time-series dumps as a report",
         {
             {"stats", "FILE", "a --stats-out dump"},
             {"timeseries", "FILE", "a --timeseries-out dump"},
         },
         &cmdReport},
        {"impedance", nullptr,
         "effective-impedance sweep of the stacked PDN",
         {
             {"area", "F", "CR-IVR area, x GPU [0.2]"},
             {"solver", "KIND",
              "MNA linear solver: sparse (default) or dense"},
         },
         &cmdImpedance},
        {"export-trace", nullptr,
         "export a generated workload as a textual warp trace",
         {
             {"benchmark", "NAME", "paper benchmark"},
             {"out", "FILE", "trace file to write"},
             {"instrs", "N", "instructions per warp [500]"},
             {"sms", "N", "SMs to record, 1..16 [2]"},
         },
         &cmdExportTrace},
    };
    return table;
}

void
printHelp(const Command &cmd)
{
    std::cout << "usage: vsgpu " << cmd.name
              << (cmd.operands ? std::string(" ") + cmd.operands : "")
              << (cmd.flags.empty() ? "" : " [flags]") << "\n  "
              << cmd.summary << "\n";
    for (const Flag &f : cmd.flags) {
        const std::string lhs = std::string("--") + f.name +
                                (f.arg ? std::string(" ") + f.arg : "");
        std::cout << "  " << std::left << std::setw(26) << lhs << " "
                  << f.help << "\n";
    }
}

Args
parseArgs(const Command &cmd, int argc, char **argv)
{
    Args args;
    for (int i = 2; i < argc; ++i) {
        const std::string word = argv[i];
        if (word == "--help" || word == "-h") {
            printHelp(cmd);
            std::exit(0);
        }
        if (word.empty() || word[0] != '-') {
            fatalIf(!cmd.operands, "vsgpu ", cmd.name,
                    " takes no argument '", word, "'");
            args.operands.push_back(word);
            continue;
        }
        const std::string key =
            word.rfind("--", 0) == 0 ? word.substr(2) : "";
        const auto flag =
            std::find_if(cmd.flags.begin(), cmd.flags.end(),
                         [&](const Flag &f) { return key == f.name; });
        fatalIf(flag == cmd.flags.end(),
                "vsgpu ", cmd.name, ": unknown flag ", word,
                " (try 'vsgpu ", cmd.name, " --help')");
        if (flag->arg == nullptr) {
            args.values[key] = "";
            continue;
        }
        fatalIf(i + 1 >= argc, "flag ", word, " needs a value");
        args.values[key] = argv[++i];
    }
    return args;
}

void
usage(std::ostream &os)
{
    os << "usage: vsgpu COMMAND [flags]  ('vsgpu COMMAND --help' lists "
          "a command's flags)\n";
    for (const Command &c : commands())
        os << "  " << std::left << std::setw(14) << c.name << " "
           << c.summary << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "";
    if (name == "--help" || name == "-h") {
        usage(std::cout);
        return 0;
    }
    for (const Command &cmd : commands())
        if (name == cmd.name)
            return cmd.run(parseArgs(cmd, argc, argv));
    usage(std::cerr);
    return 1;
}
