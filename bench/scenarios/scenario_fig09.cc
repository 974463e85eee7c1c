/**
 * @file
 * Paper Fig. 9: transient layer-voltage waveforms under the synthetic
 * worst-case imbalance — one full layer of SMs is halted at the 3 us
 * mark.
 *
 * Expected shape (paper): circuit-only VS needs ~2x GPU area of
 * CR-IVR to hold the rail above 0.8 V; at 0.2x the rail collapses;
 * the cross-layer solution at only 0.2x dips briefly and recovers
 * above the margin.
 *
 * The event is fixed-length (4200 cycles), so the runs do not scale
 * with ctx.scale.  Solver results are bitwise-identical, so the
 * claims hold on either `--solver` backend; the sparse-vs-dense
 * circuit-engine replay of this event is BM_Fig09Replay* in
 * bench/perf_microbench.cc.
 */

#include "bench/scenarios/scenario_util.hh"
#include "circuit/solver.hh"

namespace vsgpu::scen
{

namespace
{

struct Config
{
    const char *label;
    const char *id; // metric-name stem
    PdsKind kind;
    double area;
};

constexpr Config kConfigs[] = {
    {"circuit-only 2.0x", "circuit_only_20x", PdsKind::VsCircuitOnly,
     2.0},
    {"circuit-only 1.0x", "circuit_only_10x", PdsKind::VsCircuitOnly,
     1.0},
    {"circuit-only 0.2x", "circuit_only_02x", PdsKind::VsCircuitOnly,
     0.2},
    {"cross-layer  0.2x", "cross_layer_02x", PdsKind::VsCrossLayer,
     0.2},
};
constexpr int kNumConfigs = 4;

} // namespace

Summary
runFig09WorstTransient(ScenarioContext &ctx)
{
    std::vector<RunPoint> points;
    for (const Config &c : kConfigs) {
        CosimConfig cfg;
        cfg.pds = defaultPds(c.kind);
        cfg.pds.ivrAreaFraction = c.area;
        cfg.maxCycles = 4200;
        cfg.gateLayerAtSec = 3.0_us;
        cfg.gatedLayer = 0;
        cfg.traceStride = 70;
        points.push_back({c.id, cfg, uniformWorkload(9000)});
    }
    const auto results = runAll(ctx, points);

    Table table("min SM voltage vs time");
    table.setHeader({"time_us", kConfigs[0].label, kConfigs[1].label,
                     kConfigs[2].label, kConfigs[3].label});
    const std::size_t samples = results[0].trace.size();
    for (std::size_t i = 0; i < samples; i += 3) {
        auto &row = table.beginRow().cell(
            results[0].trace[i].timeSec.raw() * 1e6, 2);
        for (const auto &r : results)
            row.cell(i < r.trace.size() ? r.trace[i].minSmVolts.raw()
                                        : 0.0,
                     3);
        row.endRow();
    }
    table.print(ctx.out);

    Summary summary;
    ctx.out << "\nPost-event minimum voltages:\n";
    for (int c = 0; c < kNumConfigs; ++c) {
        const CosimResult &r = results[static_cast<std::size_t>(c)];
        ctx.out << "  " << kConfigs[c].label << ": min "
                << formatFixed(r.minVoltage, 3) << " V\n";
        summary.add(std::string("min_v_") + kConfigs[c].id, r.minVoltage);
        summary.add(std::string("final_v_") + kConfigs[c].id,
                    r.trace.back().minSmVolts.raw());
    }

    std::uint64_t timesteps = 0;
    for (const auto &r : results)
        timesteps += r.counters.timesteps;
    ctx.out << "\nSolver: " << solverName(defaultSolver()) << ", "
            << timesteps << " timesteps\n";
    summary.add("timesteps", static_cast<double>(timesteps));

    claim(ctx.out, "circuit-only 2.0x stays above", 0.8,
          results[0].minVoltage, " V");
    claim(ctx.out, "cross-layer 0.2x recovers to ~", 0.85,
          results[3].trace.back().minSmVolts.raw(), " V");
    return summary;
}

} // namespace vsgpu::scen
