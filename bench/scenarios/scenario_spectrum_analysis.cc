/**
 * @file
 * Spectral analysis of the simulated layer-imbalance currents —
 * the quantitative basis for the paper's frequency split (Section
 * IV): architecture-level smoothing owns the band below the control
 * Nyquist (1/(2T) ≈ 5.8 MHz at the 60-cycle loop), the CR-IVR and
 * decap own everything above.
 *
 * For each benchmark we run the GPU model alone (no PDS
 * configuration), record the per-cycle residual (vertical
 * imbalance) current of one column, estimate its power spectral
 * density, and report how much of the disturbance energy falls
 * inside the architecture loop's band.  Traces shorter than the
 * 4096-point FFT are skipped.
 */

#include "bench/scenarios/scenario_util.hh"
#include "gpu/gpu.hh"
#include "numeric/fft.hh"
#include "power/power_model.hh"
#include "workloads/generator.hh"

namespace vsgpu::scen
{

namespace
{

constexpr std::size_t kFftPoints = 4096;

/**
 * Record the residual imbalance power of column 0 (layer 0's SM
 * against the column mean) for one benchmark.
 */
std::vector<double>
residualTrace(const WorkloadSpec &spec, Cycle cycles)
{
    GpuConfig cfg;
    cfg.memory.l1HitRate = spec.l1HitRate;
    Gpu gpu(cfg);
    SmPowerModel pm;
    WorkloadFactory factory(spec);
    gpu.launch(factory);

    std::vector<double> trace;
    trace.reserve(cycles);
    while (!gpu.done() && gpu.cycle() < cycles) {
        gpu.step();
        double column = 0.0;
        double top = 0.0;
        for (int layer = 0; layer < config::numLayers; ++layer) {
            const int sm = layer * config::smsPerLayer; // column 0
            const double w =
                pm.cyclePower(gpu.smEvents(sm), gpu.sm(sm),
                              gpu.cycle())
                    .raw();
            column += w;
            if (layer == 0)
                top = w;
        }
        // Residual watts at ~1 V ≈ residual amps.
        trace.push_back(top -
                        column / static_cast<double>(
                                     config::numLayers));
    }
    return trace;
}

/** Spectral split of one benchmark's trace (!counted if too short). */
struct Split
{
    bool counted = false;
    double rms = 0.0;
    double below1M = 0.0, belowNyquist = 0.0, below50M = 0.0;
};

Split
analyze(const std::vector<double> &trace, double nyquistHz)
{
    Split out;
    if (trace.size() < kFftPoints)
        return out;
    out.counted = true;
    double mean = 0.0;
    for (double x : trace)
        mean += x;
    mean /= static_cast<double>(trace.size());
    for (double x : trace)
        out.rms += (x - mean) * (x - mean);
    out.rms = std::sqrt(out.rms / static_cast<double>(trace.size()));

    const auto psd =
        powerSpectrum(trace, config::smClockHz.raw(), kFftPoints);
    out.below1M = spectralFractionBelow(psd, 1e6);
    out.belowNyquist = spectralFractionBelow(psd, nyquistHz);
    out.below50M = spectralFractionBelow(psd, 50e6);
    return out;
}

} // namespace

Summary
runSpectrumAnalysis(ScenarioContext &ctx)
{
    const double nyquistHz =
        0.5 /
        (config::defaultControlLatency * config::clockPeriod).raw();
    ctx.out << "architecture-loop Nyquist at the 60-cycle latency: "
            << formatFixed(nyquistHz / 1e6, 2) << " MHz\n\n";

    const auto &benches = allBenchmarks();
    const auto splits = exec::runSweep(
        ctx.pool, benches, /*sweepSeed=*/31,
        [&ctx, nyquistHz](Benchmark b, exec::TaskContext &) {
            return analyze(
                residualTrace(benchWorkload(ctx, b, defaultBenchInstrs),
                              ctx.cycles(60000)),
                nyquistHz);
        });

    Table table("residual-current spectral distribution");
    table.setHeader({"benchmark", "rms (A)", "< 1 MHz",
                     "< loop Nyquist", "< 50 MHz (filter)",
                     "> 50 MHz"});
    double meanBelowNyquist = 0.0;
    double maxBelowNyquist = 0.0;
    std::string maxName;
    int counted = 0;
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const Split &s = splits[i];
        if (!s.counted)
            continue;
        table.beginRow()
            .cell(benchmarkName(benches[i]))
            .cell(s.rms, 3)
            .cell(formatPercent(s.below1M))
            .cell(formatPercent(s.belowNyquist))
            .cell(formatPercent(s.below50M))
            .cell(formatPercent(1.0 - s.below50M))
            .endRow();
        meanBelowNyquist += s.belowNyquist;
        if (s.belowNyquist > maxBelowNyquist) {
            maxBelowNyquist = s.belowNyquist;
            maxName = benchmarkName(benches[i]);
        }
        ++counted;
    }
    table.print(ctx.out);
    if (counted > 0)
        meanBelowNyquist /= counted;

    ctx.out << "\n";
    claim(ctx.out, "mean sub-Nyquist share of imbalance energy", 15.0,
          meanBelowNyquist * 100.0, "%");
    ctx.out << "  max sub-Nyquist share: " << maxName << " at "
            << formatPercent(maxBelowNyquist) << "\n";
    ctx.out
        << "Reading: the residual current has real low-frequency "
           "content (the paper's\n\"hundreds to tens of thousands of "
           "clock cycles\") — largest exactly for the\nbarrier-heavy "
           "workloads that trigger the smoothing controller most — "
           "while the\nbulk of the high-frequency jitter is absorbed "
           "by decap and CR-IVR before it\never reaches the rails.\n";

    Summary summary;
    summary.add("benchmarks_counted", counted);
    summary.add("mean_below_nyquist_pct", meanBelowNyquist * 100.0);
    summary.add("max_below_nyquist_pct", maxBelowNyquist * 100.0);
    return summary;
}

} // namespace vsgpu::scen
