/**
 * @file
 * Paper Fig. 8: power-delivery efficiency and the normalized power
 * breakdown for every benchmark under each PDS configuration.
 *
 * Expected shape (paper): both VS configurations deliver ~92-93%
 * across benchmarks, versus 80% (VRM) and 85% (single-layer IVR);
 * conversion loss dominates the non-stacked configurations while the
 * VS losses are small and dominated by the CR-IVR's shuffled power.
 */

#include "bench/scenarios/scenario_util.hh"

namespace vsgpu::scen
{

Summary
runFig08PdeBreakdown(ScenarioContext &ctx)
{
    const auto &benches = allBenchmarks();
    const int nb = static_cast<int>(benches.size());

    const auto results = runAll(ctx, pdsComparisonRuns(ctx));

    Summary summary;
    for (int k = 0; k < kNumPdsKinds; ++k) {
        Table table(std::string("breakdown: ") +
                    pdsName(kPdsKinds[k].kind));
        table.setHeader({"benchmark", "PDE", "load%", "pdn%", "conv%",
                         "cr-ivr%", "overhead%"});
        EnergyBreakdown total;
        double pdeMin = 1.0, pdeMax = 0.0;
        for (int j = 0; j < nb; ++j) {
            const EnergyBreakdown &e =
                results[static_cast<std::size_t>(k * nb + j)].energy;
            table.beginRow()
                .cell(benchmarkName(benches[j]))
                .cell(formatPercent(e.pde()))
                .cell(formatPercent(e.load / e.wall))
                .cell(formatPercent(e.pdn / e.wall))
                .cell(formatPercent(e.conversion / e.wall))
                .cell(formatPercent(e.crIvr / e.wall))
                .cell(formatPercent(e.overhead / e.wall))
                .endRow();
            total.load += e.load;
            total.pdn += e.pdn;
            total.conversion += e.conversion;
            total.crIvr += e.crIvr;
            total.overhead += e.overhead;
            total.wall += e.wall;
            pdeMin = std::min(pdeMin, e.pde());
            pdeMax = std::max(pdeMax, e.pde());
        }
        table.beginRow()
            .cell("AVERAGE")
            .cell(formatPercent(total.load / total.wall))
            .cell("")
            .cell("")
            .cell("")
            .cell("")
            .cell("")
            .endRow();
        table.print(ctx.out);
        ctx.out << "\n";

        const std::string stem = kPdsKinds[k].id;
        summary.add("pde_" + stem, total.load / total.wall);
        summary.add("pde_spread_pts_" + stem, (pdeMax - pdeMin) * 100.0);
        summary.add("conv_share_pct_" + stem,
                    total.conversion / total.wall * 100.0);
        summary.add("crivr_share_pct_" + stem,
                    total.crIvr / total.wall * 100.0);
        summary.add("overhead_share_pct_" + stem,
                    total.overhead / total.wall * 100.0);
        summary.add("pdn_share_pct_" + stem, total.pdn / total.wall * 100.0);
    }
    return summary;
}

} // namespace vsgpu::scen
