/**
 * @file
 * Paper Fig. 3: effective impedance of the voltage-stacked GPU
 * (a) without and (b) with the on-chip CR-IVR.
 *
 * Expected shape (paper): without regulation, Z_R(same layer) shows a
 * high plateau (~0.2 ohm class) at low frequency and Z_G a resonance
 * peak near 70 MHz; the CR-IVR suppresses both peaks, more strongly
 * with more area.
 */

#include "bench/scenarios/scenario_util.hh"
#include "obs/trace.hh"
#include "pdn/impedance.hh"
#include "sim/pds_setup.hh"

namespace vsgpu::scen
{

namespace
{

struct Panel
{
    const char *title;
    double area; // CR-IVR area, x GPU die (0 = no CR-IVR)
};

const Panel kPanels[] = {
    {"Fig. 3(a): no CR-IVR", 0.0},
    {"Fig. 3(b): with CR-IVR (0.2x GPU area)", 0.2},
    {"Fig. 3(b'): with CR-IVR (1.72x GPU area)",
     config::circuitOnlyIvrArea / config::gpuDieArea},
};
constexpr int kNumPanels = 3;

/** The stacked PDN of one panel (circuit-only: no controller). */
CosimConfig
panelConfig(const Panel &panel)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCircuitOnly);
    cfg.pds.ivrAreaFraction = panel.area;
    return cfg;
}

} // namespace

Summary
runFig03Impedance(ScenarioContext &ctx)
{
    const std::vector<Hertz> grid =
        logFrequencyGrid(1.0_MHz, 500.0_MHz, 28);
    const auto sweeps = exec::runIndexSweep(
        ctx.pool, kNumPanels, /*sweepSeed=*/303,
        [&ctx, &grid](int i, exec::TaskContext &) {
            const auto setup =
                ctx.cache.setupFor(panelConfig(kPanels[i]));
            VSGPU_TRACE_SCOPE(obs::CatPhase, "setup.ac_scan");
            return ImpedanceAnalyzer(*setup->vs).sweep(grid);
        });

    for (int i = 0; i < kNumPanels; ++i) {
        Table table(kPanels[i].title);
        table.setHeader({"freq_MHz", "Z_G", "Z_ST", "Z_R_same",
                         "Z_R_diff"});
        for (const ImpedancePoint &p : sweeps[i]) {
            table.beginRow()
                .cell(p.freq / 1.0_MHz, 2)
                .cell(p.zGlobal.raw(), 4)
                .cell(p.zStack.raw(), 4)
                .cell(p.zResidualSameLayer.raw(), 4)
                .cell(p.zResidualDiffLayer.raw(), 4)
                .endRow();
        }
        table.print(ctx.out);
        ctx.out << "\n";
    }

    // Headline shape checks against the paper.
    const ImpedanceAnalyzer bare(
        *ctx.cache.setupFor(panelConfig(kPanels[0]))->vs);
    const ImpedanceAnalyzer large(
        *ctx.cache.setupFor(panelConfig(kPanels[2]))->vs);
    Hertz peakF{};
    Ohms peakZ{};
    for (Hertz f : logFrequencyGrid(5.0_MHz, 500.0_MHz, 96)) {
        const Ohms z = bare.globalImpedance(f);
        if (z > peakZ) {
            peakZ = z;
            peakF = f;
        }
    }
    Ohms largePeak{};
    for (Hertz f : logFrequencyGrid(1.0_MHz, 500.0_MHz, 48))
        largePeak = std::max(largePeak, large.peakImpedance(f));
    const Ohms plateau = bare.residualImpedance(1.0_MHz, true);

    claim(ctx.out, "Z_G resonance frequency", 70.0, peakF / 1.0_MHz,
          " MHz");
    claim(ctx.out, "Z_R(same) low-frequency plateau", 0.25,
          plateau.raw(), " ohm");
    claim(ctx.out, "1.72x CR-IVR bounds all peaks below", 0.1,
          largePeak.raw(), " ohm");

    // Low-frequency ordering of the bare stack (first grid point).
    const ImpedancePoint &low = sweeps[0].front();
    const bool ordered =
        low.zResidualSameLayer > low.zResidualDiffLayer &&
        low.zResidualDiffLayer > low.zStack &&
        low.zResidualDiffLayer > low.zGlobal;

    Summary summary;
    summary.add("zg_resonance_mhz", peakF / 1.0_MHz);
    summary.add("zr_same_plateau_ohm", plateau.raw());
    summary.add("low_freq_ordering_holds", ordered ? 1.0 : 0.0);
    summary.add("peak_ohm_area172", largePeak.raw());
    summary.add("zr_same_1mhz_ohm_area02",
                sweeps[1].front().zResidualSameLayer.raw());
    summary.add("zr_same_1mhz_ohm_area172",
                sweeps[2].front().zResidualSameLayer.raw());
    return summary;
}

} // namespace vsgpu::scen
