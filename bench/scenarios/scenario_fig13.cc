/**
 * @file
 * Paper Fig. 13: the energy-saving / performance-penalty trade-off
 * space spanned by the weighted actuation split (eq. (9)) across
 * DIWS, FII, and DCC.
 *
 * Expected shape (paper): DIWS sits at the high-saving end of the
 * Pareto frontier while FII and DCC deliver lower performance
 * penalties; DCC is dominated by FII where FII has slack (extra
 * leakage and area).  In this reproduction FII's saving edges out
 * DIWS because our fake instructions are only injected during the
 * rare droop windows (cheap), while DIWS's throttling extends
 * runtime; the penalty ordering — the frontier's shape — matches.
 */

#include "bench/scenarios/scenario_util.hh"

namespace vsgpu::scen
{

namespace
{

struct WeightPoint
{
    const char *label;
    const char *id; // metric-name stem
    double w1, w2, w3;
};

constexpr WeightPoint kPoints[] = {
    {"DIWS", "diws", 1.0, 0.0, 0.0},
    {"FII", "fii", 0.0, 1.0, 0.0},
    {"DCC", "dcc", 0.0, 0.0, 1.0},
    {"0.8 DIWS + 0.2 FII", "diws08_fii02", 0.8, 0.2, 0.0},
    {"0.8 DIWS + 0.2 DCC", "diws08_dcc02", 0.8, 0.0, 0.2},
    {"0.5 DIWS + 0.5 FII", "diws05_fii05", 0.5, 0.5, 0.0},
    {"0.4 DIWS + 0.4 FII + 0.2 DCC", "diws04_fii04_dcc02", 0.4, 0.4,
     0.2},
};
constexpr int kNumPoints = 7;

// Benchmarks with actuation-sensitive structure.
constexpr Benchmark kSet[] = {Benchmark::Hotspot, Benchmark::Backprop,
                              Benchmark::Fastwalsh};
constexpr int kSetSize = 3;

struct Outcome
{
    double penaltyPct;
    double netSavingPct;
};

} // namespace

Summary
runFig13ActuatorTradeoff(ScenarioContext &ctx)
{
    // The serial binary re-ran the three conventional baselines for
    // every weight point; they are deterministic, so run them once
    // and reuse the results for every point's normalization.
    std::vector<RunPoint> runs;
    CosimConfig conv;
    conv.pds = defaultPds(PdsKind::ConventionalVrm);
    conv.maxCycles = ctx.cycles(200000);
    for (Benchmark b : kSet)
        runs.push_back({std::string(benchmarkName(b)) + "/conv", conv,
                        benchWorkload(ctx, b)});
    for (int w = 0; w < kNumPoints; ++w) {
        CosimConfig cfg;
        cfg.pds = defaultPds(PdsKind::VsCrossLayer);
        cfg.pds.controller.w1 = kPoints[w].w1;
        cfg.pds.controller.w2 = kPoints[w].w2;
        cfg.pds.controller.w3 = kPoints[w].w3;
        cfg.maxCycles = ctx.cycles(200000);
        for (Benchmark b : kSet)
            runs.push_back(
                {std::string(benchmarkName(b)) + "/w" + std::to_string(w),
                 cfg, benchWorkload(ctx, b)});
    }
    const auto results = runAll(ctx, runs);

    const auto outcomeOf = [&results](int w) {
        double cyclesBase = 0.0, cyclesTest = 0.0;
        double wallBase = 0.0, wallTest = 0.0;
        for (int j = 0; j < kSetSize; ++j) {
            const CosimResult &rb =
                results[static_cast<std::size_t>(j)];
            const CosimResult &rt = results[static_cast<std::size_t>(
                kSetSize + w * kSetSize + j)];
            cyclesBase += static_cast<double>(rb.cycles);
            cyclesTest += static_cast<double>(rt.cycles);
            wallBase += rb.energy.wall;
            wallTest += rt.energy.wall;
        }
        Outcome o;
        o.penaltyPct = (cyclesTest / cyclesBase - 1.0) * 100.0;
        o.netSavingPct = (1.0 - wallTest / wallBase) * 100.0;
        return o;
    };

    Table table("trade-off space (vs conventional VRM baseline)");
    table.setHeader({"weights", "perf penalty %", "net saving %"});
    Summary summary;
    Outcome diws{}, fii{};
    for (int w = 0; w < kNumPoints; ++w) {
        const Outcome o = outcomeOf(w);
        table.beginRow()
            .cell(kPoints[w].label)
            .cell(o.penaltyPct, 2)
            .cell(o.netSavingPct, 2)
            .endRow();
        summary.add(std::string("penalty_pct_") + kPoints[w].id, o.penaltyPct);
        summary.add(std::string("saving_pct_") + kPoints[w].id,
                    o.netSavingPct);
        if (w == 0)
            diws = o;
        if (w == 1)
            fii = o;
    }
    table.print(ctx.out);

    ctx.out << "\nPareto expectations (paper):\n"
            << "  - DIWS sits at the high-saving end\n"
            << "  - FII/DCC trade saving for a lower penalty\n";
    claim(ctx.out, "FII penalty below DIWS penalty (sign)", 1.0,
          fii.penaltyPct <= diws.penaltyPct + 0.5 ? 1.0 : 0.0, "");
    claim(ctx.out, "both DIWS and FII land in the 10-15% saving band",
          1.0,
          (diws.netSavingPct > 9.0 && fii.netSavingPct > 9.0) ? 1.0
                                                              : 0.0,
          "");
    return summary;
}

} // namespace vsgpu::scen
