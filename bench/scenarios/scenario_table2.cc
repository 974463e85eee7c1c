/**
 * @file
 * Paper Table II: voltage detector options, plus a behavioural
 * demonstration of each detector tracking a droop event through the
 * 50 MHz front-end filter.
 */

#include <cmath>

#include "bench/scenarios/scenario_util.hh"
#include "control/detector.hh"

namespace vsgpu::scen
{

namespace
{

struct DetectorRow
{
    DetectorKind kind;
    const char *name;
    const char *id; // metric-name stem
    const char *output;
};

constexpr DetectorRow kRows[] = {
    {DetectorKind::Oddd, "ODDD", "oddd", "detect indicator"},
    {DetectorKind::Cpm, "CPM", "cpm", "timing variation"},
    {DetectorKind::Adc, "ADC", "adc", "N-bit digital"},
};
constexpr int kNumRows = 3;

struct StepResponse
{
    int cycles = 0;
    double resolvedVolts = 1.0;
};

} // namespace

Summary
runTable2Detectors(ScenarioContext &ctx)
{
    Table table("detector implementations");
    table.setHeader({"sensor", "latency_cycles", "power_mW",
                     "resolution_mV", "output"});
    Summary summary;
    for (const DetectorRow &row : kRows) {
        const DetectorSpec spec = detectorSpec(row.kind);
        table.beginRow()
            .cell(row.name)
            .cell(static_cast<long long>(spec.latency))
            .cell(spec.powerWatts.raw() * 1e3, 1)
            .cell(spec.resolutionVolts.raw() * 1e3, 1)
            .cell(row.output)
            .endRow();
        const std::string stem = row.id;
        summary.add(stem + "_latency_cycles",
                    static_cast<double>(spec.latency));
        summary.add(stem + "_power_mW", spec.powerWatts.raw() * 1e3);
        summary.add(stem + "_resolution_mV", spec.resolutionVolts.raw() * 1e3);
    }
    table.print(ctx.out);

    // Behavioural check: a 100 mV droop step seen through each
    // detector (settling time and resolved value).  The three
    // detectors are independent, so they run as a (tiny) sweep.
    const auto responses = exec::runIndexSweep(
        ctx.pool, kNumRows, /*sweepSeed=*/2,
        [](int i, exec::TaskContext &) {
            const DetectorSpec spec = detectorSpec(kRows[i].kind);
            VoltageDetector det(spec);
            for (int k = 0; k < 200; ++k)
                det.sample(1.0_V);
            StepResponse r;
            Volts out = 1.0_V;
            for (; r.cycles < 500; ++r.cycles) {
                out = det.sample(0.90_V);
                if (vsgpu::abs(out - 0.90_V) <= spec.resolutionVolts)
                    break;
            }
            r.resolvedVolts = out.raw();
            return r;
        });

    ctx.out << "\nDroop-step response (1.00 V -> 0.90 V):\n";
    Table resp("step response");
    resp.setHeader({"sensor", "cycles_to_resolve", "resolved_V"});
    for (int i = 0; i < kNumRows; ++i) {
        const StepResponse &r =
            responses[static_cast<std::size_t>(i)];
        resp.beginRow()
            .cell(kRows[i].name)
            .cell(static_cast<long long>(r.cycles))
            .cell(r.resolvedVolts, 4)
            .endRow();
        const std::string stem = kRows[i].id;
        summary.add(stem + "_cycles_to_resolve",
                    static_cast<double>(r.cycles));
        summary.add(stem + "_resolved_V", r.resolvedVolts);
    }
    resp.print(ctx.out);
    return summary;
}

} // namespace vsgpu::scen
