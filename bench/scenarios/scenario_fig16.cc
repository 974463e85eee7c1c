/**
 * @file
 * Paper Fig. 16: Warped-Gates-style power gating on the conventional
 * GPU versus the cross-layer voltage-stacked GPU.
 *
 * Expected shape (paper): the hypervisor's current-imbalance budget
 * slightly disturbs the optimal gating pattern, but the VS system's
 * higher PDE more than compensates — lower total energy overall.
 */

#include "bench/scenarios/scenario_util.hh"

namespace vsgpu::scen
{

namespace
{

// Gating pays off on memory/latency-bound workloads with idle
// blocks.
constexpr Benchmark kSet[] = {Benchmark::Bfs, Benchmark::Pathfinder,
                              Benchmark::Simpleatomic,
                              Benchmark::Scalarprod};
constexpr int kSetSize = 4;

struct Config
{
    const char *label;
    const char *id; // metric-name stem
    PdsKind kind;
    bool gating;
};

constexpr Config kConfigs[] = {
    {"conventional, no PG", "conv_nopg", PdsKind::ConventionalVrm,
     false},
    {"conventional + Warped Gates", "conv_pg",
     PdsKind::ConventionalVrm, true},
    {"VS cross-layer, no PG", "vs_nopg", PdsKind::VsCrossLayer, false},
    {"VS cross-layer + PG (hypervisor)", "vs_pg",
     PdsKind::VsCrossLayer, true},
};
constexpr int kNumConfigs = 4;

struct PgGroup
{
    double wallJ = 0.0;
    Cycle cycles = 0;
};

} // namespace

Summary
runFig16Pg(ScenarioContext &ctx)
{
    std::vector<RunPoint> runs;
    for (const Config &c : kConfigs) {
        CosimConfig cfg;
        cfg.pds = defaultPds(c.kind);
        cfg.maxCycles = ctx.cycles(300000);
        for (Benchmark b : kSet)
            runs.push_back({std::string(c.id) + "/" + benchmarkName(b),
                            cfg, benchWorkload(ctx, b), std::nullopt,
                            c.gating});
    }
    const auto results = runAll(ctx, runs);

    const auto groupOf = [&results](int c) {
        PgGroup out;
        for (int j = 0; j < kSetSize; ++j) {
            const CosimResult &r = results[static_cast<std::size_t>(
                c * kSetSize + j)];
            out.wallJ += r.energy.wall;
            out.cycles += r.cycles;
        }
        return out;
    };

    const PgGroup convPeak = groupOf(0);
    const PgGroup convPg = groupOf(1);
    const PgGroup vsPg = groupOf(3);

    Table table("total energy, normalized to conventional (no PG)");
    table.setHeader({"configuration", "energy", "cycles"});
    Summary summary;
    for (int c = 0; c < kNumConfigs; ++c) {
        const PgGroup g = groupOf(c);
        table.beginRow()
            .cell(kConfigs[c].label)
            .cell(g.wallJ / convPeak.wallJ, 3)
            .cell(static_cast<long long>(g.cycles))
            .endRow();
        summary.add(std::string("energy_norm_") + kConfigs[c].id,
                    g.wallJ / convPeak.wallJ);
    }
    table.print(ctx.out);

    ctx.out << "\n";
    claim(ctx.out, "PG saves energy on conventional (sign)", 1.0,
          convPg.wallJ < convPeak.wallJ * 1.001 ? 1.0 : 0.0, "");
    claim(ctx.out,
          "VS+PG beats conventional+PG (paper: PDE compensates)", 1.0,
          vsPg.wallJ < convPg.wallJ ? 1.0 : 0.0, "");
    const double vsPgSaving =
        (1.0 - vsPg.wallJ / convPg.wallJ) * 100.0;
    claim(ctx.out, "VS+PG total saving vs conventional+PG", 10.0,
          vsPgSaving, "%");
    summary.add("vs_pg_saving_pct", vsPgSaving);
    return summary;
}

} // namespace vsgpu::scen
