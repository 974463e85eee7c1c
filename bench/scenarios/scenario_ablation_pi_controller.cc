/**
 * @file
 * Design-space ablation: proportional vs proportional-integral
 * voltage smoothing.
 *
 * The paper uses a proportional controller "as an illustrative
 * example".  This ablation adds an integral path (with anti-windup)
 * and measures whether it helps.  Finding: it does not — under the
 * worst-case sustained imbalance the DIWS actuator already saturates
 * (issue width driven to zero by the proportional term alone), so
 * integral action cannot deepen the correction; the wound-up
 * integrator only slows release and adds a small limit-cycle ripple.
 * The worst-case floor is set by the actuation range, not by the
 * control law — supporting the paper's choice of plain P control.
 *
 * The hotspot runs scale with ctx.scale; the halted-layer runs are a
 * fixed-length event (6000 cycles) that does not.
 */

#include "bench/scenarios/scenario_util.hh"

namespace vsgpu::scen
{

namespace
{

struct Variant
{
    double kP, kI;
};

constexpr Variant kVariants[] = {
    {12.0, 0.0}, // the paper's proportional controller
    {12.0, 0.5}, // mild integral action
    {12.0, 2.0}, // strong integral action
    {6.0, 1.0},  // weaker P, integral carries steady state
};
constexpr int kNumVariants = 4;

} // namespace

Summary
runAblationPiController(ScenarioContext &ctx)
{
    // Run 2v is variant v's halted-layer test, 2v + 1 its hotspot run.
    std::vector<RunPoint> runs;
    for (const Variant &v : kVariants) {
        CosimConfig cfg;
        cfg.pds = defaultPds(PdsKind::VsCrossLayer);
        cfg.pds.controller.gainWattsPerVolt = WattsPerVolt{v.kP};
        cfg.pds.controller.integralGainWattsPerVolt = WattsPerVolt{v.kI};
        const std::string stem = "kP=" + formatFixed(v.kP, 1) +
                                 "/kI=" + formatFixed(v.kI, 1) + "/";
        CosimConfig worst = cfg;
        worst.maxCycles = 6000;
        worst.gateLayerAtSec = 2.0_us;
        worst.traceStride = 50;
        runs.push_back(
            {stem + "worst-case", worst, uniformWorkload(10000)});
        cfg.maxCycles = ctx.cycles(150000);
        runs.push_back({stem + "hotspot", cfg,
                        benchWorkload(ctx, Benchmark::Hotspot)});
    }
    const auto results = runAll(ctx, runs);

    Table table("controller variants");
    table.setHeader({"kP (W/V)", "kI (W/V/period)", "worst floor V",
                     "hotspot min V", "throttle", "cycles"});
    std::vector<double> floors;
    for (int v = 0; v < kNumVariants; ++v) {
        const CosimResult &worst =
            results[static_cast<std::size_t>(2 * v)];
        const CosimResult &bench =
            results[static_cast<std::size_t>(2 * v + 1)];
        floors.push_back(settledFloor(worst));
        table.beginRow()
            .cell(kVariants[v].kP, 1)
            .cell(kVariants[v].kI, 1)
            .cell(floors.back(), 3)
            .cell(bench.minVoltage, 3)
            .cell(formatPercent(bench.throttleRate))
            .cell(static_cast<long long>(bench.cycles))
            .endRow();
    }
    table.print(ctx.out);

    // The paper's P-only controller against strong integral action.
    const double gap = std::abs(floors[2] - floors[0]);
    ctx.out << "\n";
    claim(ctx.out,
          "PI does not improve the saturated worst case (floors "
          "within 0.06 V)",
          1.0, gap < 0.06 ? 1.0 : 0.0, "");
    ctx.out
        << "Reading: with the actuator saturated, integral action "
           "cannot deepen the\ncorrection; it only adds windup "
           "ripple.  The worst-case floor is an actuation-\nrange "
           "property, which supports the paper's plain proportional "
           "design.\n";

    Summary summary;
    summary.add("worst_floor_v_p_only", floors[0]);
    summary.add("worst_floor_v_strong_pi", floors[2]);
    summary.add("floor_gap_v_pi_vs_p", gap);
    return summary;
}

} // namespace vsgpu::scen
