/**
 * @file
 * Design-space ablation: VRM remote-sense / load-line regulation on
 * the single-layer baselines (paper Section II-C: "static IR-drop
 * ... can be effectively tamed by circuit techniques such as load
 * line regulation").
 *
 * With remote sense off, the VRM holds a fixed (pre-compensated)
 * setpoint and the die rail wanders with load; with it on, the
 * output servos so the mean rail tracks 1 V.  The voltage-stacked
 * configurations have no knob like this — inherent voltage division
 * sets the layer rails — which is why the paper needs the CR-IVR +
 * smoothing stack instead.
 */

#include "bench/scenarios/scenario_util.hh"

namespace vsgpu::scen
{

namespace
{

constexpr Benchmark kSet[] = {Benchmark::Heartwall, Benchmark::Bfs,
                              Benchmark::Blackscholes,
                              Benchmark::Simpleatomic};
constexpr int kNumBenches = 4;

} // namespace

Summary
runAblationLoadline(ScenarioContext &ctx)
{
    // Run 2j is benchmark j at the fixed setpoint, 2j + 1 servoed.
    std::vector<RunPoint> runs;
    for (Benchmark b : kSet)
        for (bool servo : {false, true}) {
            CosimConfig cfg;
            cfg.pds = defaultPds(PdsKind::ConventionalVrm);
            cfg.vrmRemoteSense = servo;
            cfg.maxCycles = ctx.cycles(defaultMaxCycles);
            runs.push_back({std::string(benchmarkName(b)) +
                                (servo ? "/servo" : "/fixed"),
                            cfg, benchWorkload(ctx, b)});
        }
    const auto results = runAll(ctx, runs);

    Table table("per-benchmark rail regulation");
    table.setHeader({"benchmark", "mean V (fixed)", "mean V (servo)",
                     "min V (fixed)", "min V (servo)",
                     "PDE (servo)"});
    double fixedErr = 0.0, servoErr = 0.0, servoMean = 0.0;
    for (int j = 0; j < kNumBenches; ++j) {
        const CosimResult &fixed =
            results[static_cast<std::size_t>(2 * j)];
        const CosimResult &servo =
            results[static_cast<std::size_t>(2 * j + 1)];
        table.beginRow()
            .cell(benchmarkName(kSet[j]))
            .cell(fixed.meanVoltage, 3)
            .cell(servo.meanVoltage, 3)
            .cell(fixed.minVoltage, 3)
            .cell(servo.minVoltage, 3)
            .cell(formatPercent(servo.energy.pde()))
            .endRow();
        fixedErr +=
            std::abs(fixed.meanVoltage - config::smVoltage.raw());
        servoErr +=
            std::abs(servo.meanVoltage - config::smVoltage.raw());
        servoMean += servo.meanVoltage;
    }
    table.print(ctx.out);

    const double errorRatio = fixedErr / std::max(servoErr, 1e-6);
    ctx.out << "\n";
    claim(ctx.out, "servo cuts the mean rail error (ratio fixed/servo)",
          2.0, errorRatio, "x+");
    ctx.out << "Reading: remote sense pins the die rail at nominal "
               "across light and heavy\nworkloads — the single-layer "
               "answer to static IR drop.  A stacked design has\nno "
               "equivalent knob per layer, which is why the paper "
               "pairs CR-IVRs with\narchitectural smoothing instead.\n";

    Summary summary;
    summary.add("servo_mean_rail_v", servoMean / kNumBenches);
    summary.add("fixed_mean_abs_error_v", fixedErr / kNumBenches);
    summary.add("servo_mean_abs_error_v", servoErr / kNumBenches);
    summary.add("error_ratio_fixed_over_servo", errorRatio);
    return summary;
}

} // namespace vsgpu::scen
