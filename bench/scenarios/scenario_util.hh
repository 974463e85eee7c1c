/**
 * @file
 * Shared helpers for scenario implementations: workloads scale with
 * ctx.scale, every co-simulation is a RunPoint that runAll() runs on
 * ctx.pool against the shared electrical setup of ctx.cache, and
 * claim lines print to ctx.out.
 *
 * A scenario lists its runs, calls runAll() once per list and folds
 * the results, which come back in point order, into its tables and
 * Summary.  Sweeps that run no co-simulation shard their points with
 * exec::runSweep directly; their task functions must not write to
 * ctx.out (printing happens in the ordered reduction).
 */

#ifndef VSGPU_BENCH_SCENARIOS_SCENARIO_UTIL_HH
#define VSGPU_BENCH_SCENARIOS_SCENARIO_UTIL_HH

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "bench/scenarios/scenarios.hh"
#include "common/table.hh"
#include "sim/cosim.hh"
#include "workloads/suite.hh"

namespace vsgpu::scen
{

/** Instructions per warp used for full benchmark runs. */
inline constexpr int defaultBenchInstrs = 1500;

/** Instructions per warp for sweeps with many configurations. */
inline constexpr int sweepBenchInstrs = 700;

/** Cycle cap for a single benchmark run. */
inline constexpr Cycle defaultMaxCycles = 120000;

/** The four PDS configurations of Table III / Fig. 8, in paper
 *  order, with the stem their metric names use. */
struct PdsKindRow
{
    PdsKind kind;
    const char *id;
};
inline constexpr PdsKindRow kPdsKinds[] = {
    {PdsKind::ConventionalVrm, "conventional_vrm"},
    {PdsKind::SingleLayerIvr, "single_layer_ivr"},
    {PdsKind::VsCircuitOnly, "vs_circuit_only"},
    {PdsKind::VsCrossLayer, "vs_cross_layer"},
};
inline constexpr int kNumPdsKinds = 4;

/** Build a benchmark workload at ctx-scaled sweep size. */
inline WorkloadSpec
benchWorkload(const ScenarioContext &ctx, Benchmark b,
              int baseInstrs = sweepBenchInstrs)
{
    return scaledToInstrs(workloadFor(b), ctx.instrs(baseInstrs));
}

/**
 * One co-simulation of a scenario.  @p label names the run in the
 * time-series dump and must be unique per scenario.  The workload is
 * run as given: fixed-length worst-case runs pass an unscaled spec.
 */
struct RunPoint
{
    std::string label;
    CosimConfig cfg;
    WorkloadSpec workload;

    /** Attach a DFS governor with this configuration. */
    std::optional<DfsConfig> dfs{};

    /** Attach a PG governor; the run uses the GATES scheduler. */
    bool pg = false;
};

/**
 * Run every point, one pool task each, on the setup that ctx.cache
 * shares between points of one PDS configuration, and return the
 * results in point order.  Injects the context's sampling window,
 * attaches the point's governors and records each run's counters,
 * time series, profile and control audit into ctx.  A point with
 * a governor also gets the VS-aware hypervisor, which the
 * co-simulator applies on voltage-stacked PDSs only.  A label already
 * used in this scenario panics before anything runs.
 */
std::vector<CosimResult> runAll(ScenarioContext &ctx,
                                const std::vector<RunPoint> &points);

/**
 * The Table III / Fig. 8 grid: every benchmark under each of the
 * four default PDS configurations, kind-major in kPdsKinds order.
 */
inline std::vector<RunPoint>
pdsComparisonRuns(const ScenarioContext &ctx)
{
    std::vector<RunPoint> points;
    for (const PdsKindRow &row : kPdsKinds) {
        CosimConfig cfg;
        cfg.pds = defaultPds(row.kind);
        cfg.maxCycles = ctx.cycles(defaultMaxCycles);
        for (Benchmark b : allBenchmarks())
            points.push_back(
                {std::string(row.id) + "/" + benchmarkName(b), cfg,
                 benchWorkload(ctx, b)});
    }
    return points;
}

/**
 * Settled floor of a traced halted-layer run: the lowest min-SM
 * voltage over the last 20 trace samples.  The controller needs one
 * loop latency to engage, so a brief dip precedes the settled value.
 */
inline double
settledFloor(const CosimResult &r)
{
    double floor = 1e9;
    const std::size_t n = r.trace.size();
    for (std::size_t i = n > 20 ? n - 20 : 0; i < n; ++i)
        floor = std::min(floor, r.trace[i].minSmVolts.raw());
    return floor;
}

/** Print a paper-vs-measured claim line. */
inline void
claim(std::ostream &os, const std::string &what, double paper,
      double measured, const std::string &unit = "")
{
    os << "  [claim] " << what << ": paper " << paper << unit
       << ", measured " << measured << unit << "\n";
}

} // namespace vsgpu::scen

#endif // VSGPU_BENCH_SCENARIOS_SCENARIO_UTIL_HH
