/**
 * @file
 * Paper Fig. 11: supply-noise distribution (box summary over all 16
 * SM rails) for every benchmark plus the synthetic worst case,
 * comparing the circuit-only and cross-layer solutions at the same
 * 0.2x CR-IVR area.
 *
 * Expected shape (paper): most benchmarks see a modest noise
 * reduction from smoothing; a few outliers widen slightly but stay
 * bounded; only the cross-layer solution keeps the worst case above
 * the 0.8 V margin (the worst-case box collapses for circuit-only).
 *
 * The benchmark runs scale with ctx.scale; the worst case is a
 * fixed-length event (6000 cycles, one layer halted at 2 us) that
 * does not.
 */

#include "bench/scenarios/scenario_util.hh"

namespace vsgpu::scen
{

namespace
{

struct KindRow
{
    PdsKind kind;
    const char *id; // metric-name stem
};

constexpr KindRow kKinds[] = {
    {PdsKind::VsCircuitOnly, "circuit_only"},
    {PdsKind::VsCrossLayer, "cross_layer"},
};
constexpr int kNumKinds = 2;

/** One table row: all 16 SM box stats pooled (approximately). */
struct Row
{
    double min = 1e9, q1 = 0.0, median = 0.0, q3 = 0.0, max = -1e9;
};

Row
pooledRow(const CosimResult &r)
{
    Row row;
    for (const auto &b : r.smNoise) {
        row.min = std::min(row.min, b.min);
        row.max = std::max(row.max, b.max);
        row.q1 += b.q1;
        row.median += b.median;
        row.q3 += b.q3;
    }
    row.q1 /= config::numSMs;
    row.median /= config::numSMs;
    row.q3 /= config::numSMs;
    return row;
}

} // namespace

Summary
runFig11NoiseDistribution(ScenarioContext &ctx)
{
    const auto &benches = allBenchmarks();
    const std::size_t perKind = benches.size() + 1;

    std::vector<RunPoint> runs;
    for (const KindRow &pds : kKinds) {
        CosimConfig cfg;
        cfg.pds = defaultPds(pds.kind);
        cfg.pds.ivrAreaFraction = 0.2; // both at the SAME area
        const std::string stem = std::string(pds.id) + "/";
        cfg.maxCycles = ctx.cycles(60000);
        for (Benchmark b : benches)
            runs.push_back(
                {stem + benchmarkName(b), cfg, benchWorkload(ctx, b)});
        cfg.maxCycles = 6000;
        cfg.gateLayerAtSec = 2.0_us;
        cfg.traceStride = 50;
        runs.push_back(
            {stem + "worst-case", cfg, uniformWorkload(9000)});
    }
    const auto results = runAll(ctx, runs);

    Summary summary;
    for (int k = 0; k < kNumKinds; ++k) {
        Table table(std::string("voltage boxes: ") +
                    pdsName(kKinds[k].kind));
        table.setHeader({"benchmark", "min", "q1", "median", "q3",
                         "max"});
        double lowestMin = 1e9, highestMin = -1e9, meanMedian = 0.0;
        for (std::size_t j = 0; j < perKind; ++j) {
            const Row row = pooledRow(
                results[static_cast<std::size_t>(k) * perKind + j]);
            const bool worst = j == benches.size();
            table.beginRow()
                .cell(worst ? "worst-case" : benchmarkName(benches[j]))
                .cell(row.min, 3)
                .cell(row.q1, 3)
                .cell(row.median, 3)
                .cell(row.q3, 3)
                .cell(row.max, 3)
                .endRow();
            if (worst)
                continue;
            lowestMin = std::min(lowestMin, row.min);
            highestMin = std::max(highestMin, row.min);
            meanMedian += row.median;
        }
        table.print(ctx.out);
        ctx.out << "\n";

        const std::string stem = kKinds[k].id;
        summary.add("lowest_min_v_" + stem, lowestMin);
        summary.add("highest_min_v_" + stem, highestMin);
        summary.add("mean_median_v_" + stem,
                    meanMedian / static_cast<double>(benches.size()));
    }

    const double floorBare = settledFloor(results[perKind - 1]);
    const double floorSmooth = settledFloor(results[2 * perKind - 1]);
    claim(ctx.out,
          "worst-case settled floor, circuit-only 0.2x "
          "(fails)",
          0.35, floorBare, " V");
    claim(ctx.out,
          "worst-case settled floor, cross-layer 0.2x "
          "(holds)",
          0.8, floorSmooth, " V");
    summary.add("settled_floor_v_circuit_only", floorBare);
    summary.add("settled_floor_v_cross_layer", floorSmooth);
    return summary;
}

} // namespace vsgpu::scen
