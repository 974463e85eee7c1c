/**
 * @file
 * Machine-readable summary of a bench scenario run.
 *
 * Every scenario distills its tables into a flat list of named
 * headline metrics.  The golden-trace harness records these
 * summaries as JSON (tests/golden/<scenario>.json) and later replays
 * the scenario, failing unless writeSummaryJson() gives the recorded
 * bytes; summaryDiff() names the metrics that moved.
 */

#ifndef VSGPU_BENCH_SCENARIOS_SUMMARY_HH
#define VSGPU_BENCH_SCENARIOS_SUMMARY_HH

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/manifest.hh"

namespace vsgpu::scen
{

/** One headline metric of a scenario. */
struct SummaryMetric
{
    std::string name;
    double value = 0.0;
};

/** All headline metrics of one scenario run. */
struct Summary
{
    std::string scenario;

    /** Workload scale the metrics were measured at (see
     *  ScenarioOptions::scale); goldens are all at goldenScale. */
    double scale = 1.0;

    /** Run provenance (obs/manifest.hh), stamped by runScenario.
     *  Omitted from JSON while !manifest.valid, so recorded goldens
     *  (which carry no manifest) stay byte-stable. */
    obs::Manifest manifest;

    std::vector<SummaryMetric> metrics;

    /** Append one metric. */
    void
    add(std::string name, double value)
    {
        metrics.push_back({std::move(name), value});
    }

    /** @return the named metric, or nullptr. */
    const SummaryMetric *find(const std::string &name) const;
};

/** Serialize a summary as pretty-printed JSON. */
void writeSummaryJson(const Summary &summary, std::ostream &os);

/**
 * Parse a summary previously written by writeSummaryJson().  Panics
 * on malformed input (goldens are repo-controlled files).
 */
Summary readSummaryJson(std::istream &is);

/**
 * Describe how the metrics of @p measured differ from those of
 * @p recorded, one line per difference: each metric whose value
 * changed (recorded, measured, relative change), and each metric
 * added or removed.  Empty when every value is identical.
 */
std::string summaryDiff(const Summary &recorded,
                        const Summary &measured);

/**
 * Read the reviewed audit findings (tests/golden/audit_findings.txt),
 * keyed by scenario: one ScenarioTelemetry::auditFindings line per
 * line; blank and '#' lines are comments.  Panics on a line without
 * five '|'-separated fields.
 */
std::map<std::string, std::vector<std::string>>
readAuditFindings(std::istream &is);

/** "unexpected: FP" for each of @p measured not in @p reviewed, then
 *  "missing: FP" for each the other way; empty when they match. */
std::string auditFindingsDiff(const std::vector<std::string> &reviewed,
                              const std::vector<std::string> &measured);

} // namespace vsgpu::scen

#endif // VSGPU_BENCH_SCENARIOS_SUMMARY_HH
