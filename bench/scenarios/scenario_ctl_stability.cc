/**
 * @file
 * Control-theoretic analysis (paper Section IV-A/B): stability and
 * disturbance-gain landscape of the discretized delayed
 * voltage-smoothing loop, plus the stability boundary as a function
 * of loop latency and boundary capacitance.  This is the ablation
 * study behind DESIGN.md decision 4.
 *
 * Pure linear analysis: no co-simulation runs, nothing scales with
 * ctx.scale, and no PDS configuration is built.
 */

#include "bench/scenarios/scenario_util.hh"
#include "control/designer.hh"

namespace vsgpu::scen
{

Summary
runCtlStability(ScenarioContext &ctx)
{
    const Farads cap{4.0 * 100e-9}; // per-boundary capacitance

    Table bound("stability boundary: max stable gain (W/V/layer)");
    bound.setHeader({"loop latency (cycles)", "max stable gain",
                     "gain x latency (W*cy/V)"});
    for (Cycle latency : {20ull, 30ull, 60ull, 90ull, 120ull,
                          180ull}) {
        const WattsPerVolt k = maxStableGain(cap, latency);
        bound.beginRow()
            .cell(static_cast<long long>(latency))
            .cell(k.raw(), 4)
            .cell(k.raw() * static_cast<double>(latency), 3)
            .endRow();
    }
    bound.print(ctx.out);
    ctx.out << "(the product is ~constant: the classic delayed-"
               "integrator bound k < C/(3.41 T))\n\n";

    Table sweep("gain sweep at the paper's 60-cycle loop");
    sweep.setHeader({"gain (W/V)", "spectral radius", "stable",
                     "peak gain", "droop/0.1A (V)"});
    const WattsPerVolt kMax = maxStableGain(cap, 60);
    double worstStablePeak = 0.0;
    for (double frac : {0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 2.0}) {
        ControlDesignSpec spec;
        spec.boundaryCapF = cap;
        spec.loopLatencyCycles = 60;
        spec.gainWattsPerVolt = frac * kMax;
        const ControlDesign d = designController(spec);
        sweep.beginRow()
            .cell(spec.gainWattsPerVolt.raw(), 4)
            .cell(d.spectralRadius, 4)
            .cell(d.stable ? "yes" : "NO")
            .cell(d.peakDisturbanceGain, 2)
            .cell(d.stable ? d.worstDroopVolts(Amps{0.1}).raw()
                           : 0.0, 3)
            .endRow();
        if (d.stable)
            worstStablePeak =
                std::max(worstStablePeak, d.peakDisturbanceGain);
    }
    sweep.print(ctx.out);

    ctx.out << "\nCapacitance scaling (CR-IVR flying caps raise "
               "the boundary capacitance and the usable gain):\n";
    Table caps("max stable gain vs boundary capacitance @60cy");
    caps.setHeader({"capacitance (nF)", "max stable gain (W/V)"});
    for (double c : {100e-9, 400e-9, 1e-6, 4e-6}) {
        caps.beginRow()
            .cell(c * 1e9, 0)
            .cell(maxStableGain(Farads{c}, 60).raw(), 3)
            .endRow();
    }
    caps.print(ctx.out);

    const double product =
        cap.raw() /
        (kMax.raw() * 60.0 * config::clockPeriod.raw());
    claim(ctx.out, "stability product C/(k*T) (theory: ~3.41)", 3.41,
          product, "");

    Summary summary;
    summary.add("stability_product", product);
    // Max stable gain per farad at 4 uF over that at 100 nF: 1 when
    // the usable gain grows linearly with boundary capacitance.
    summary.add("gain_cap_linearity",
                (maxStableGain(Farads{4e-6}, 60) /
                 maxStableGain(Farads{100e-9}, 60)) /
                    40.0);
    summary.add("worst_stable_peak_gain", worstStablePeak);
    return summary;
}

} // namespace vsgpu::scen
