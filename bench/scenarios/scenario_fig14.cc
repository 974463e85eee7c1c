/**
 * @file
 * Paper Fig. 14: per-benchmark performance penalty and net energy
 * saving of the cross-layer voltage-stacked GPU, normalized against
 * the conventional single-layer VRM system.
 *
 * Expected shape (paper): penalties within 2-4%; net energy savings
 * of 10-15% across benchmarks after accounting for the extended
 * execution time and extra leakage energy.
 *
 * Runs are kernel-sized: one generated workload corresponds to one
 * kernel launch.  Real kernels resynchronize the SMs at every launch
 * boundary; concatenating many iterations without that global resync
 * lets throttle-induced phase drift accumulate across SMs and
 * overstates the penalty relative to the paper's binaries.
 */

#include "bench/scenarios/scenario_util.hh"

namespace vsgpu::scen
{

Summary
runFig14PenaltySaving(ScenarioContext &ctx)
{
    const auto &benches = allBenchmarks();

    // Per benchmark: the conventional baseline, then cross-layer VS.
    CosimConfig conv, vs;
    conv.pds = defaultPds(PdsKind::ConventionalVrm);
    vs.pds = defaultPds(PdsKind::VsCrossLayer);
    conv.maxCycles = vs.maxCycles = ctx.cycles(250000);
    std::vector<RunPoint> runs;
    for (Benchmark b : benches) {
        const std::string name = benchmarkName(b);
        runs.push_back({name + "/conv", conv, benchWorkload(ctx, b)});
        runs.push_back({name + "/vs", vs, benchWorkload(ctx, b)});
    }
    const auto results = runAll(ctx, runs);

    Table table("cross-layer VS vs conventional VRM");
    table.setHeader({"benchmark", "penalty %", "net saving %",
                     "throttle rate", "trigger rate"});

    Summary summary;
    double meanPenalty = 0.0, meanSaving = 0.0;
    for (std::size_t bi = 0; bi < benches.size(); ++bi) {
        const Benchmark b = benches[bi];
        const CosimResult &rb = results[bi * 2];
        const CosimResult &rt = results[bi * 2 + 1];

        const double penalty =
            (static_cast<double>(rt.cycles) /
                 static_cast<double>(rb.cycles) -
             1.0) *
            100.0;
        // Net energy saving: wall energy for the same work, which
        // already charges the longer runtime's leakage and clocking.
        const double saving =
            (1.0 - rt.energy.wall / rb.energy.wall) * 100.0;

        table.beginRow()
            .cell(benchmarkName(b))
            .cell(penalty, 2)
            .cell(saving, 2)
            .cell(formatPercent(rt.throttleRate))
            .cell(formatPercent(rt.triggerRate))
            .endRow();
        summary.add("penalty_pct_" + std::string(benchmarkName(b)), penalty);
        summary.add("saving_pct_" + std::string(benchmarkName(b)), saving);
        meanPenalty += penalty;
        meanSaving += saving;
    }
    table.print(ctx.out);

    meanPenalty /= static_cast<double>(benches.size());
    meanSaving /= static_cast<double>(benches.size());
    ctx.out << "\n";
    claim(ctx.out, "mean performance penalty (paper: 2-4%)", 3.0,
          meanPenalty, "%");
    claim(ctx.out, "mean net energy saving (paper: 10-15%)", 12.5,
          meanSaving, "%");

    summary.add("mean_penalty_pct", meanPenalty);
    summary.add("mean_saving_pct", meanSaving);
    return summary;
}

} // namespace vsgpu::scen
