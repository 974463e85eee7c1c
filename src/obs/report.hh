/**
 * @file
 * Text rendering of observability dumps (`vsgpu report`).
 *
 * Takes the machine-readable artifacts a run leaves behind — a stats
 * JSON (optionally carrying a `profile` section) and optionally a
 * time-series JSON — and renders one human-readable report: manifest
 * identity, headline statistics, the stage-cost profile with its
 * serial-chain critical path, and per-run channel summaries.
 */

#ifndef VSGPU_OBS_REPORT_HH
#define VSGPU_OBS_REPORT_HH

#include <iosfwd>

#include "obs/stats_snapshot.hh"
#include "obs/timeseries.hh"

namespace vsgpu::obs
{

/**
 * Render the full report.  @p series may be null when no time-series
 * dump is available; the profile section renders when the snapshot
 * carries one.
 */
void writeRunReport(std::ostream &os, const StatsSnapshot &stats,
                    const TimeSeriesDoc *series);

} // namespace vsgpu::obs

#endif // VSGPU_OBS_REPORT_HH
