/**
 * @file
 * Paper Fig. 15: GRAPE-style DFS on the conventional GPU versus the
 * cross-layer voltage-stacked GPU, at several performance targets.
 * Energies are normalized by the conventional GPU's energy at peak
 * performance including power-delivery inefficiency.
 *
 * Expected shape (paper): the VS-aware hypervisor slightly perturbs
 * the optimal frequency settings (~1-2% computational energy), but
 * the superior PDE more than compensates — overall 7-13% lower total
 * energy than DFS on the conventional PDS.
 */

#include "bench/scenarios/scenario_util.hh"

namespace vsgpu::scen
{

namespace
{

constexpr Benchmark kSet[] = {Benchmark::Heartwall, Benchmark::Srad,
                              Benchmark::Hotspot,
                              Benchmark::Scalarprod};
constexpr int kSetSize = 4;

constexpr double kTargets[] = {0.9, 0.7, 0.5};
constexpr int kNumTargets = 3;

struct DfsGroup
{
    double wallJ = 0.0;
    double loadJ = 0.0;
    Cycle cycles = 0;
};

} // namespace

Summary
runFig15Dfs(ScenarioContext &ctx)
{
    // Groups of kSetSize runs, in reduction order: the conventional
    // peak normalization, then (conventional, VS) per target.
    std::vector<RunPoint> runs;
    // DFS runs under the VS-aware hypervisor on the stacked PDS.
    const auto addGroup = [&ctx, &runs](PdsKind kind, double target) {
        CosimConfig cfg;
        cfg.pds = defaultPds(kind);
        cfg.maxCycles = ctx.cycles(300000);
        const bool hv = kind == PdsKind::VsCrossLayer;
        for (Benchmark b : kSet)
            runs.push_back({std::string(pdsName(kind)) +
                                (hv ? "+hv" : "") + "/target=" +
                                formatFixed(target, 1) + "/" +
                                benchmarkName(b),
                            cfg, benchWorkload(ctx, b),
                            DfsConfig{.perfTarget = target}});
    };
    addGroup(PdsKind::ConventionalVrm, 1.0);
    for (double target : kTargets) {
        addGroup(PdsKind::ConventionalVrm, target);
        addGroup(PdsKind::VsCrossLayer, target);
    }
    const auto results = runAll(ctx, runs);

    const auto groupOf = [&results](int g) {
        DfsGroup out;
        for (int j = 0; j < kSetSize; ++j) {
            const CosimResult &r = results[static_cast<std::size_t>(
                g * kSetSize + j)];
            out.wallJ += r.energy.wall;
            out.loadJ += r.energy.load;
            out.cycles += r.cycles;
        }
        return out;
    };

    // Normalization: conventional at peak performance (no DFS cap).
    const DfsGroup peak = groupOf(0);

    Table table("total energy, normalized to conventional @ peak");
    table.setHeader({"perf target", "conventional+DFS", "VS+DFS",
                     "VS saving %"});
    Summary summary;
    double savingAt70 = 0.0;
    for (int t = 0; t < kNumTargets; ++t) {
        const DfsGroup conv = groupOf(1 + 2 * t);
        const DfsGroup vs = groupOf(2 + 2 * t);
        const double convNorm = conv.wallJ / peak.wallJ;
        const double vsNorm = vs.wallJ / peak.wallJ;
        const double saving = (1.0 - vsNorm / convNorm) * 100.0;
        table.beginRow()
            .cell(formatPercent(kTargets[t], 0))
            .cell(convNorm, 3)
            .cell(vsNorm, 3)
            .cell(saving, 1)
            .endRow();
        const std::string stem =
            "target_" + formatFixed(kTargets[t], 1);
        summary.add(stem + "_conv_norm", convNorm);
        summary.add(stem + "_vs_norm", vsNorm);
        if (kTargets[t] == 0.7)
            savingAt70 = saving;
    }
    table.print(ctx.out);

    ctx.out << "\n";
    claim(ctx.out, "VS energy saving under DFS (paper: 7-13%)", 10.0,
          savingAt70, "%");
    summary.add("saving_pct_at_target_0.7", savingAt70);
    return summary;
}

} // namespace vsgpu::scen
