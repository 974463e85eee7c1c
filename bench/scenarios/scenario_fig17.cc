/**
 * @file
 * Paper Fig. 17: the distribution of current imbalance between
 * vertically stacked SMs (normalized by peak SM current, binned
 * 0-10% / 10-20% / 20-40% / >40%) under no power management, DFS at
 * several performance targets, and power gating.
 *
 * Expected shape (paper): without PM, ~50% of windows fall in the
 * 0-10% bin and >90% under 40%; backprop is the most imbalanced,
 * heartwall the most uniform; DFS and PG do not fundamentally
 * disturb the balance.
 */

#include <array>

#include "bench/scenarios/scenario_util.hh"

namespace vsgpu::scen
{

namespace
{

constexpr double kDfsTargets[] = {0.7, 0.5, 0.2};
constexpr int kNumDfsTargets = 3;

using Bins = std::array<double, 4>;

} // namespace

Summary
runFig17Imbalance(ScenarioContext &ctx)
{
    const auto &benches = allBenchmarks();
    const int nb = static_cast<int>(benches.size());

    // Groups of nb runs each: no-PM, DFS per target, PG.  Both
    // managers run under the VS-aware hypervisor.
    std::vector<RunPoint> runs;
    const auto addGroup = [&](const char *pm, double target,
                              std::optional<DfsConfig> dfs, bool pg) {
        CosimConfig cfg;
        cfg.pds = defaultPds(PdsKind::VsCrossLayer);
        cfg.maxCycles = ctx.cycles(200000);
        for (Benchmark b : benches)
            runs.push_back({std::string(pm) + "/target=" +
                                formatFixed(target, 1) + "/" +
                                benchmarkName(b),
                            cfg, benchWorkload(ctx, b), dfs, pg});
    };
    addGroup("none", 1.0, std::nullopt, false);
    for (double target : kDfsTargets)
        addGroup("dfs", target, DfsConfig{.perfTarget = target}, false);
    addGroup("pg", 1.0, std::nullopt, true);
    const auto results = runAll(ctx, runs);

    const auto averageOf = [&](int group) {
        Bins acc{};
        for (int j = 0; j < nb; ++j) {
            const Bins &bins = results[static_cast<std::size_t>(
                group * nb + j)].imbalanceBins;
            for (std::size_t i = 0; i < 4; ++i)
                acc[i] += bins[i];
        }
        for (auto &v : acc)
            v /= static_cast<double>(nb);
        return acc;
    };
    const auto binsOf = [&](int group, Benchmark b) {
        int idx = -1;
        for (int j = 0; j < nb; ++j)
            if (benches[static_cast<std::size_t>(j)] == b)
                idx = j;
        panicIfNot(idx >= 0, "benchmark not in suite");
        return results[static_cast<std::size_t>(group * nb + idx)]
            .imbalanceBins;
    };

    Table table("imbalance bins (fraction of windows)");
    table.setHeader({"scenario", "0-10%", "10-20%", "20-40%",
                     ">40%"});
    const auto addRow = [&table](const std::string &name,
                                 const Bins &bins) {
        table.beginRow()
            .cell(name)
            .cell(formatPercent(bins[0]))
            .cell(formatPercent(bins[1]))
            .cell(formatPercent(bins[2]))
            .cell(formatPercent(bins[3]))
            .endRow();
    };

    // No PM: worst / average / best benchmark plus suite average.
    addRow("no PM: backprop (worst)", binsOf(0, Benchmark::Backprop));
    const Bins noPmAvg = averageOf(0);
    addRow("no PM: average", noPmAvg);
    addRow("no PM: heartwall (best)",
           binsOf(0, Benchmark::Heartwall));

    Summary summary;
    for (int t = 0; t < kNumDfsTargets; ++t) {
        const Bins avg = averageOf(1 + t);
        addRow("DFS " + formatPercent(kDfsTargets[t], 0) +
                   ": average",
               avg);
        summary.add("dfs_" + formatFixed(kDfsTargets[t], 1) +
                        "_avg_bin0",
                    avg[0]);
    }
    const Bins pgAvg = averageOf(1 + kNumDfsTargets);
    addRow("PG: average", pgAvg);
    table.print(ctx.out);

    ctx.out << "\n";
    claim(ctx.out, "no-PM windows under 10% imbalance (paper: ~50%)",
          50.0, noPmAvg[0] * 100.0, "%");
    claim(ctx.out, "no-PM windows under 40% imbalance (paper: ~93%)",
          93.0, (noPmAvg[0] + noPmAvg[1] + noPmAvg[2]) * 100.0, "%");

    for (std::size_t i = 0; i < 4; ++i)
        summary.add("nopm_avg_bin" + std::to_string(i), noPmAvg[i]);
    summary.add("nopm_under40_frac", noPmAvg[0] + noPmAvg[1] + noPmAvg[2]);
    summary.add("pg_avg_bin0", pgAvg[0]);
    return summary;
}

} // namespace vsgpu::scen
