/**
 * @file
 * Design-space ablation: stacking geometry.
 *
 * The paper fixes a 4x4 arrangement (four layers of four SMs).  This
 * ablation re-partitions the same 16 SMs into 2x8, 4x4, and 8x2
 * stacks and quantifies the trade the geometry makes:
 *
 *   - deeper stacks transport the same power at proportionally lower
 *     PDN current (supply current ~ 1/N, resistive loss ~ 1/N^2), but
 *   - the worst-case residual (vertical imbalance) impedance grows
 *     with depth and the input voltage N x 1.025 V stresses the
 *     level-shifted interfaces more.
 *
 * Each geometry is a bare PDN netlist settled for a fixed 3000 steps
 * under a balanced load: no workload, so nothing scales with
 * ctx.scale, and the re-partitioned stacks are not co-simulation
 * configurations.
 */

#include "bench/scenarios/scenario_util.hh"
#include "ivr/cr_ivr.hh"
#include "pdn/impedance.hh"

namespace vsgpu::scen
{

namespace
{

struct Geometry
{
    int layers;
    int columns;
};

constexpr Geometry kGeometries[] = {{2, 8}, {4, 4}, {8, 2}};
constexpr int kNumGeometries = 3;
constexpr double kAreas[] = {0.0, 0.2};
constexpr int kNumAreas = 2;

struct Outcome
{
    double supplyAmps = 0.0;
    double pdnLossW = 0.0;
    Ohms zResidualDc{};
    Ohms zGlobalPeak{};
};

Outcome
evaluate(const Geometry &g, double ivrAreaFraction)
{
    VsPdnOptions options;
    options.numLayers = g.layers;
    options.numColumns = g.columns;
    options.supplyVolts =
        static_cast<double>(g.layers) * config::pcbVoltage /
        static_cast<double>(config::numLayers);
    if (ivrAreaFraction > 0.0) {
        CrIvrTech tech;
        // One equalizer cell per adjacent layer pair per column.
        tech.numCells = (g.layers - 1) * g.columns;
        const CrIvrDesign design(
            ivrAreaFraction * config::gpuDieArea, tech);
        options.crIvrEffOhms = design.effOhmsPerCell();
        options.crIvrFlyCapF = design.flyCapPerCell();
    }
    VsPdn pdn(options);

    // Balanced nominal load: each SM draws its 7 W at ~1 V.
    TransientSim sim(pdn.netlist(), config::clockPeriod.raw());
    const double amps = (options.params.smNominalPower /
                         options.params.smNominalVoltage)
                            .raw();
    const double resAmps = (pdn.nominalLayerVolts() /
                            options.params.smLoadOhms())
                               .raw();
    for (int sm = 0; sm < pdn.numSms(); ++sm)
        sim.setCurrent(pdn.smCurrentSource(sm), amps - resAmps);
    sim.initToDc();
    for (int i = 0; i < 3000; ++i)
        sim.step();

    Outcome out;
    out.supplyAmps = sim.sourceCurrent(pdn.supplySource());
    double loadRes = 0.0;
    for (int idx : pdn.loadResistorIndices()) {
        const double i = sim.resistorCurrent(idx);
        loadRes += i * i *
                   pdn.netlist()
                       .resistors()[static_cast<std::size_t>(idx)]
                       .ohms;
    }
    out.pdnLossW = sim.totalResistivePower() - loadRes;

    ImpedanceAnalyzer analyzer(pdn);
    out.zResidualDc = analyzer.residualImpedance(1.0_MHz, true);
    for (Hertz f : logFrequencyGrid(5.0_MHz, 500.0_MHz, 40))
        out.zGlobalPeak =
            std::max(out.zGlobalPeak, analyzer.globalImpedance(f));
    return out;
}

} // namespace

Summary
runAblationStacking(ScenarioContext &ctx)
{
    // Index a * kNumGeometries + g: every area's table in turn.
    const auto outcomes = exec::runIndexSweep(
        ctx.pool, kNumAreas * kNumGeometries, /*sweepSeed=*/28,
        [](int i, exec::TaskContext &) {
            return evaluate(kGeometries[i % kNumGeometries],
                            kAreas[i / kNumGeometries]);
        });
    const auto outcome = [&outcomes](int area, int geometry) {
        return outcomes[static_cast<std::size_t>(
            area * kNumGeometries + geometry)];
    };

    for (int a = 0; a < kNumAreas; ++a) {
        Table table(kAreas[a] > 0.0 ? "with 0.2x-GPU-area CR-IVR"
                                    : "no on-chip regulation");
        table.setHeader({"geometry", "supply V", "supply A",
                         "PDN loss W", "Z_R(DC)", "Z_G peak"});
        for (int g = 0; g < kNumGeometries; ++g) {
            const Geometry &geo = kGeometries[g];
            const Outcome o = outcome(a, g);
            table.beginRow()
                .cell(std::to_string(geo.layers) + " layers x " +
                      std::to_string(geo.columns))
                .cell(static_cast<double>(geo.layers) * 1.025, 2)
                .cell(o.supplyAmps, 1)
                .cell(o.pdnLossW, 2)
                .cell(o.zResidualDc.raw(), 4)
                .cell(o.zGlobalPeak.raw(), 4)
                .endRow();
        }
        table.print(ctx.out);
        ctx.out << "\n";
    }

    const Outcome shallow = outcome(0, 0); // 2x8, no CR-IVR
    const Outcome deep = outcome(0, 2);    // 8x2, no CR-IVR
    const double currentRatio = shallow.supplyAmps / deep.supplyAmps;
    const double residualRatio =
        deep.zResidualDc / shallow.zResidualDc;
    claim(ctx.out, "supply current ratio 2-layer / 8-layer", 4.0,
          currentRatio, "x");
    claim(ctx.out, "residual impedance grows with depth (ratio)", 2.0,
          residualRatio, "x+");
    ctx.out << "\nReading: deeper stacks buy PDN efficiency with "
               "harder worst-case reliability —\nthe paper's 4x4 "
               "choice balances the two for a 16-SM device.\n";

    Summary summary;
    summary.add("supply_current_ratio_2v8", currentRatio);
    summary.add("pdn_loss_ratio_2v8", shallow.pdnLossW / deep.pdnLossW);
    summary.add("residual_impedance_ratio_8v2", residualRatio);
    return summary;
}

} // namespace vsgpu::scen
