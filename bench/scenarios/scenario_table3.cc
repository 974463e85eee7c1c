/**
 * @file
 * Paper Table III: PDE and die-area overhead of the four
 * power-delivery subsystems, averaged over all twelve benchmarks.
 *
 * Paper values: single-layer VRM 80% / no die area; single-layer IVR
 * 85% / 172.3 mm^2; VS circuit-only 93.0% / 912 mm^2 (1.72x GPU die);
 * VS cross-layer 92.3% / 105.8 mm^2 (0.2x GPU die).
 */

#include "bench/scenarios/scenario_util.hh"

namespace vsgpu::scen
{

Summary
runTable3PdsComparison(ScenarioContext &ctx)
{
    const auto &benches = allBenchmarks();
    const int nb = static_cast<int>(benches.size());

    const auto results = runAll(ctx, pdsComparisonRuns(ctx));

    Table table("Table III");
    table.setHeader({"PDS configuration", "PDE", "die area (mm^2)",
                     "area (xGPU die)"});

    Summary summary;
    double pdeVrm = 0.0, pdeCross = 0.0, pdeCircuit = 0.0;
    for (int k = 0; k < kNumPdsKinds; ++k) {
        double loadJ = 0.0, wallJ = 0.0;
        for (int j = 0; j < nb; ++j) {
            const CosimResult &r =
                results[static_cast<std::size_t>(k * nb + j)];
            loadJ += r.energy.load;
            wallJ += r.energy.wall;
        }
        const double pde = loadJ / wallJ;
        const PdsKind kind = kPdsKinds[k].kind;
        const PdsOptions options = defaultPds(kind);
        const Area area = pdsAreaOverhead(options);
        table.beginRow()
            .cell(pdsName(kind))
            .cell(formatPercent(pde))
            .cell(area / 1.0_mm2, 1)
            .cell(area / config::gpuDieArea, 2)
            .endRow();
        const std::string stem = kPdsKinds[k].id;
        summary.add("pde_" + stem, pde);
        summary.add("area_mm2_" + stem, area / 1.0_mm2);
        if (kind == PdsKind::ConventionalVrm)
            pdeVrm = pde;
        if (kind == PdsKind::VsCircuitOnly)
            pdeCircuit = pde;
        if (kind == PdsKind::VsCrossLayer)
            pdeCross = pde;
    }
    table.print(ctx.out);

    ctx.out << "\nHeadline claims:\n";
    claim(ctx.out, "VS cross-layer PDE", 92.3, pdeCross * 100.0, "%");
    claim(ctx.out, "VS circuit-only PDE", 93.0, pdeCircuit * 100.0,
          "%");
    claim(ctx.out, "conventional PDE", 80.0, pdeVrm * 100.0, "%");
    claim(ctx.out, "PDE improvement over conventional", 12.3,
          (pdeCross - pdeVrm) * 100.0, " pts");
    claim(ctx.out, "PDS loss eliminated", 61.5,
          (1.0 - (1.0 - pdeCross) / (1.0 - pdeVrm)) * 100.0, "%");
    const Area areaCircuit =
        pdsAreaOverhead(defaultPds(PdsKind::VsCircuitOnly));
    const Area areaCross =
        pdsAreaOverhead(defaultPds(PdsKind::VsCrossLayer));
    claim(ctx.out, "area reduction vs circuit-only", 88.0,
          (1.0 - areaCross / areaCircuit) * 100.0, "%");

    summary.add("pde_improvement_pts", (pdeCross - pdeVrm) * 100.0);
    summary.add("loss_eliminated_pct",
                (1.0 - (1.0 - pdeCross) / (1.0 - pdeVrm)) * 100.0);
    return summary;
}

} // namespace vsgpu::scen
