/**
 * @file
 * Paper Fig. 12: performance penalty as a function of the
 * controller's trigger threshold voltage.
 *
 * Expected shape (paper): penalties grow with the threshold (more
 * cycles spend throttled); at the default 0.9 V threshold penalties
 * sit in the low single-digit percents, and fewer than ~20% of
 * cycles are affected by smoothing.
 */

#include "bench/scenarios/scenario_util.hh"

namespace vsgpu::scen
{

namespace
{

constexpr double kThresholds[] = {0.70, 0.80, 0.90, 0.95};
constexpr int kNumThresholds = 4;

} // namespace

Summary
runFig12ThresholdSweep(ScenarioContext &ctx)
{
    const auto &benches = allBenchmarks();

    // Per benchmark: the smoothing-off baseline, then each threshold.
    CosimConfig baseline;
    baseline.pds = defaultPds(PdsKind::VsCircuitOnly);
    baseline.pds.ivrAreaFraction = 0.2;
    baseline.maxCycles = ctx.cycles(200000);
    std::vector<RunPoint> points;
    for (Benchmark b : benches) {
        const std::string name = benchmarkName(b);
        points.push_back(
            {name + "/baseline", baseline, benchWorkload(ctx, b)});
        for (double t : kThresholds) {
            CosimConfig cfg;
            cfg.pds = defaultPds(PdsKind::VsCrossLayer);
            cfg.pds.controller.vThreshold = Volts{t};
            cfg.maxCycles = ctx.cycles(200000);
            points.push_back({name + "/vth=" + formatFixed(t, 2), cfg,
                              benchWorkload(ctx, b)});
        }
    }
    const auto results = runAll(ctx, points);

    Table table("penalty (%) per benchmark");
    std::vector<std::string> header = {"benchmark"};
    for (double t : kThresholds)
        header.push_back("Vth=" + formatFixed(t, 2));
    header.push_back("throttle@0.9");
    table.setHeader(header);

    Summary summary;
    const int runsPerBench = 1 + kNumThresholds;
    double meanPenaltyAtDefault = 0.0;
    double meanThrottleAtDefault = 0.0;
    for (std::size_t bi = 0; bi < benches.size(); ++bi) {
        const Benchmark b = benches[bi];
        const CosimResult &baseline =
            results[bi * runsPerBench];

        auto &row = table.beginRow().cell(benchmarkName(b));
        double throttleAtDefault = 0.0;
        for (int t = 0; t < kNumThresholds; ++t) {
            const CosimResult &r =
                results[bi * runsPerBench + 1 +
                        static_cast<std::size_t>(t)];
            const double penalty =
                (static_cast<double>(r.cycles) /
                     static_cast<double>(baseline.cycles) -
                 1.0) *
                100.0;
            row.cell(penalty, 2);
            if (kThresholds[t] == 0.90) {
                throttleAtDefault = r.throttleRate;
                meanPenaltyAtDefault += penalty;
                summary.add("penalty_pct_vth090_" +
                                std::string(benchmarkName(b)),
                            penalty);
            }
        }
        row.cell(formatPercent(throttleAtDefault));
        row.endRow();
        meanThrottleAtDefault += throttleAtDefault;
    }
    table.print(ctx.out);

    meanPenaltyAtDefault /= static_cast<double>(benches.size());
    meanThrottleAtDefault /= static_cast<double>(benches.size());
    ctx.out << "\n";
    claim(ctx.out, "mean penalty at Vth=0.9 (paper: 2-4%)", 3.0,
          meanPenaltyAtDefault, "%");

    summary.add("mean_penalty_pct_vth090", meanPenaltyAtDefault);
    summary.add("mean_throttle_rate_vth090", meanThrottleAtDefault);
    return summary;
}

} // namespace vsgpu::scen
