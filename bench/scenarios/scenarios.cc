#include "bench/scenarios/scenarios.hh"

#include <ostream>

#include "bench/scenarios/scenario_util.hh"
#include "common/logging.hh"
#include "exec/progress.hh"
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

void
addAuditFindings(std::set<std::string> &out, const ModelAudit &audit)
{
    const auto row = std::find_if(
        std::begin(kPdsKinds), std::end(kPdsKinds),
        [&audit](const PdsKindRow &r) { return r.kind == audit.kind; });
    const std::string config = std::string(row->id) + "@" +
                               formatFixed(audit.ivrAreaFraction, 2);
    for (const verify::Diagnostic &d : audit.report.diags)
        out.insert(config + "|" +
                   std::string(verify::severityName(d.severity)) + "|" +
                   d.id + "|" + d.subject);
}

namespace
{

/** Sum one run's counters and keep its telemetry and control audit
 *  (thread-safe; called from the run's task). */
void
recordObs(ScenarioContext &ctx, const std::string &label,
          const CosimResult &r)
{
    std::lock_guard<std::mutex> lock(ctx.countersMutex);
    ctx.counters.add(r.counters);
    if (r.timeSeries) {
        r.timeSeries->label = label;
        ctx.series.emplace(label, r.timeSeries);
    }
    if (r.profile)
        ctx.profile.merge(*r.profile);
    addAuditFindings(ctx.auditFindings, r.controlAudit);
}

} // namespace

std::vector<CosimResult>
runAll(ScenarioContext &ctx, const std::vector<RunPoint> &points)
{
    for (const RunPoint &p : points)
        panicIfNot(ctx.runLabels.insert(p.label).second,
                   "duplicate run label '", p.label, "'");
    std::vector<CosimResult> results(points.size());
    ctx.pool.parallelFor(static_cast<int>(points.size()), [&](int i) {
        const RunPoint &p = points[static_cast<std::size_t>(i)];
        CosimConfig cfg = p.cfg;
        cfg.sampleEvery = Seconds{ctx.sampleEverySec};
        if (p.pg)
            cfg.gpu.sm.scheduler = SchedulerKind::Gates;
        std::optional<DfsGovernor> dfs;
        PgGovernor pg;
        VsAwareHypervisor hv;
        CoSimulator sim(ctx.cache.withSetup(cfg));
        if (p.dfs)
            sim.attachDfs(&dfs.emplace(*p.dfs));
        if (p.pg)
            sim.attachPg(&pg);
        if (p.dfs || p.pg)
            sim.attachHypervisor(&hv);
        CosimResult &r = results[static_cast<std::size_t>(i)];
        r = sim.run(p.workload);
        recordObs(ctx, p.label, r);
    });
    return results;
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

    const auto setups = cache.cachedSetups();
    if (telemetry != nullptr) {
        telemetry->series = obs::timeSeriesHeader(
            config::clockPeriod.raw(), opts.sampleEverySec);
        for (const auto &entry : ctx.series)
            telemetry->series.runs.push_back(*entry.second);
        telemetry->profile = ctx.profile;
        std::set<std::string> findings = std::move(ctx.auditFindings);
        for (const auto &setup : setups)
            addAuditFindings(findings, setup->audit);
        for (const std::string &f : findings)
            telemetry->auditFindings.push_back(info.name + ("|" + f));
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
        std::vector<std::string> keys;
        for (const auto &setup : setups)
            keys.push_back(setup->key);
        manifest->configFingerprint = obs::configFingerprint(keys);
        manifest->seed = 0; // scenarios derive seeds per sweep
        manifest->scale = opts.scale;
        summary.manifest = *manifest;
    }
    return summary;
}

} // namespace vsgpu::scen
