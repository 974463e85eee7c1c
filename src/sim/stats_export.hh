/**
 * @file
 * Bridges simulation results into the obs::StatsRegistry: one place
 * defines the canonical stat names, units, and descriptions for the
 * gpu / sim / control / hypervisor / exec hierarchies, so every tool
 * (vsgpu_cli, the scenario benches) dumps the same schema.
 */

#ifndef VSGPU_SIM_STATS_EXPORT_HH
#define VSGPU_SIM_STATS_EXPORT_HH

#include <cstdint>

#include "obs/stats_registry.hh"
#include "sim/metrics.hh"

namespace vsgpu
{

class Gpu;
class SmoothingController;
class TransientSim;

/**
 * Read a finished run's GPU, memory, circuit and controller
 * counters (the controller may be null) into @p counters; the
 * kernel-launch and governor counts are the caller's.
 */
void collectCounters(const Gpu &gpu, const TransientSim &sim,
                     const SmoothingController *controller,
                     CosimCounters &counters);

/**
 * Register the schedule-independent event counters of one run (or
 * the exact integer sum over a sweep's runs) under the gpu / sim /
 * control / hypervisor prefixes.
 */
void registerCounters(obs::StatsRegistry &registry,
                      const CosimCounters &counters);

/**
 * Register counters plus the derived scalar metrics (voltages,
 * rates, energy breakdown) of one complete run.
 */
void registerRunStats(obs::StatsRegistry &registry,
                      const CosimResult &result);

/**
 * Register the exec-layer stats (pool + setup cache).  Steal counts
 * are schedule-dependent by nature and are registered as such, so
 * they stay out of default dumps (jobs-1-vs-N bitwise contract).
 */
void registerExecStats(obs::StatsRegistry &registry,
                       std::uint64_t poolTasksRun,
                       std::uint64_t poolSteals,
                       std::uint64_t setupsBuilt,
                       std::uint64_t setupHits);

/**
 * Register the trace-ring occupancy stats (retained and evicted
 * event counts).  Both depend on wall-clock rate limiting and worker
 * interleaving, so they are schedule-dependent like pool.steals.
 */
void registerTraceStats(obs::StatsRegistry &registry,
                        std::uint64_t traceEvents,
                        std::uint64_t traceDropped);

} // namespace vsgpu

#endif // VSGPU_SIM_STATS_EXPORT_HH
