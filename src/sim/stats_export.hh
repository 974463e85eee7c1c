/**
 * @file
 * Bridges simulation results into the obs::StatsSnapshot: one place
 * defines the canonical stat names, units, and descriptions for the
 * gpu / sim / control / hypervisor / exec hierarchies, so every tool
 * (vsgpu_cli, the scenario benches) dumps the same schema.
 */

#ifndef VSGPU_SIM_STATS_EXPORT_HH
#define VSGPU_SIM_STATS_EXPORT_HH

#include <cstdint>

#include "obs/stats_snapshot.hh"
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
 * Append the event counters of one run (or the exact integer sum
 * over a sweep's runs) under the gpu / sim / circuit / control /
 * hypervisor prefixes.
 */
void appendCounters(obs::StatsSnapshot &stats,
                    const CosimCounters &counters);

/**
 * Append counters plus the derived scalar metrics (voltages, rates,
 * energy breakdown) of one complete run.
 */
void appendRunStats(obs::StatsSnapshot &stats,
                    const CosimResult &result);

/** Append the exec-layer stats (pool + setup cache). */
void appendExecStats(obs::StatsSnapshot &stats,
                     std::uint64_t poolTasksRun,
                     std::uint64_t setupsBuilt,
                     std::uint64_t setupHits);

} // namespace vsgpu

#endif // VSGPU_SIM_STATS_EXPORT_HH
