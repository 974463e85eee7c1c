/**
 * @file
 * Shared helpers for scenario implementations: workloads scale with
 * ctx.scale, co-simulator configurations pick up the shared
 * electrical setup from ctx.cache, and claim lines print to ctx.out.
 *
 * Task functions passed to exec::runSweep may call benchWorkload(),
 * runSpec() and runPoint() concurrently (all are thread-safe); they
 * must not write to ctx.out — printing happens in the ordered
 * reduction.
 */

#ifndef VSGPU_BENCH_SCENARIOS_SCENARIO_UTIL_HH
#define VSGPU_BENCH_SCENARIOS_SCENARIO_UTIL_HH

#include <ostream>
#include <string>

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
 * Run one workload against one configuration, sharing the electrical
 * setup through the scenario's cache.  Bitwise-identical to building
 * the setup privately.  @p label names the run in the time-series
 * dump (unique per scenario); the context's telemetry cadence is
 * injected here, so scenario code never has to know whether sampling
 * is on.  The workload is used as given: fixed-length worst-case
 * runs pass an unscaled spec.
 */
inline CosimResult
runSpec(ScenarioContext &ctx, const CosimConfig &cfg,
        const WorkloadSpec &workload, const std::string &label)
{
    CosimConfig pointCfg = cfg;
    pointCfg.sampleEvery = Seconds{ctx.sampleEverySec};
    CoSimulator sim(ctx.cache.withSetup(pointCfg));
    CosimResult result = sim.run(workload);
    ctx.recordObs(label, result);
    return result;
}

/** runSpec() on benchmark @p b at the ctx-scaled sweep size. */
inline CosimResult
runPoint(ScenarioContext &ctx, const CosimConfig &cfg, Benchmark b,
         const std::string &label,
         int baseInstrs = sweepBenchInstrs)
{
    return runSpec(ctx, cfg, benchWorkload(ctx, b, baseInstrs),
                   label);
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
