/**
 * @file
 * The co-simulation cycle re-composed from the layers' public calls,
 * with a steady_clock read at every stage boundary.
 *
 * runComposed() makes the same calls as CoSimulator::run, in the same
 * order, so its result is bit-identical to the library's; the
 * benchmark checks that on every traced co-simulation.  It covers
 * only what the benchmark's workloads use: one kernel, optional power
 * gating with the VS-aware hypervisor, and no DFS governor, fixed
 * layer gating or observability outputs (wave, trace samples, time
 * series).  Configurations using those are refused.
 */

#ifndef VSGPU_BENCH_PERF_COMPOSED_LOOP_HH
#define VSGPU_BENCH_PERF_COMPOSED_LOOP_HH

#include <array>
#include <cstdint>

#include "hypervisor/pg.hh"
#include "hypervisor/vs_hypervisor.hh"
#include "sim/cosim.hh"

namespace vsgpu::perf
{

/** Stages of one co-simulation cycle, in loop order. */
enum Stage : int
{
    StageGpu,         ///< Gpu::step
    StagePower,       ///< SmPowerModel::cyclePower per SM
    StageCoupling,    ///< rail read + TransientSim::setCurrent per SM
    StageCircuit,     ///< TransientSim::step + VRM remote sense
    StageObserve,     ///< rail scan, noise and imbalance statistics
    StageControl,     ///< SmoothingController::step + actuators
    StageHypervisor,  ///< PgGovernor + VsAwareHypervisor
    StageBookkeeping, ///< energy accounting
    numStages,
};

/** @return the stage's metric-name stem, e.g. "coupling". */
const char *stageName(int stage);

/** Host time of one traced co-simulation, split by stage. */
struct StageTimes
{
    std::array<std::int64_t, numStages> ns{};
    std::int64_t loopNs = 0; ///< first cycle start to last cycle end
    std::int64_t initNs = 0; ///< device, solver and controller set-up
};

/**
 * Run one workload like CoSimulator(cfg) with @p pg and @p hv
 * attached (either may be null) and charge the host time of each
 * stage to @p times.  cfg.setup must hold the shared PDS setup.
 */
CosimResult runComposed(const CosimConfig &cfg,
                        const WorkloadSpec &workload, PgGovernor *pg,
                        VsAwareHypervisor *hv, StageTimes &times);

} // namespace vsgpu::perf

#endif // VSGPU_BENCH_PERF_COMPOSED_LOOP_HH
