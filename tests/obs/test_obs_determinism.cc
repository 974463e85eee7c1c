/**
 * @file
 * Cross-layer observability integration tests: for every registered
 * scenario, the summary JSON, the stats dump, the manifest
 * fingerprint, and the time-series dump must be bitwise identical for
 * --jobs 1 and --jobs 8; enabling tracing, sampling, or profiling must not
 * perturb simulation results.  The scenario runner, runAll(), must
 * return what direct co-simulations of its points return.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bench/scenarios/scenario_util.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "sim/stats_export.hh"

namespace vsgpu::scen
{
namespace
{

/** Smallest useful scale: keeps each co-simulation short. */
constexpr double kScale = 0.05;

struct ScenarioDump
{
    std::string statsJson;
    std::string summaryJson;
    std::string seriesJson;
    obs::Manifest manifest;
    ScenarioTelemetry telemetry;
};

ScenarioDump
runWithJobs(const std::string &scenario, int jobs,
            double sampleEverySec = 0.0, bool profile = false)
{
    const ScenarioInfo *info = findScenario(scenario);
    EXPECT_NE(info, nullptr);
    ScenarioOptions opts;
    opts.jobs = jobs;
    opts.scale = kScale;
    opts.sampleEverySec = sampleEverySec;
    opts.profile = profile;

    std::ostringstream tables;
    obs::StatsSnapshot stats;
    ScenarioDump dump;
    const Summary summary =
        runScenario(*info, opts, tables, &stats, &dump.manifest,
                    &dump.telemetry);
    std::ostringstream seriesJson;
    obs::writeTimeSeriesJson(dump.telemetry.series, seriesJson);
    dump.seriesJson = seriesJson.str();

    stats.manifest = dump.manifest;
    std::ostringstream statsJson;
    obs::writeStatsJson(stats, statsJson);
    dump.statsJson = statsJson.str();
    std::ostringstream summaryJson;
    writeSummaryJson(summary, summaryJson);
    dump.summaryJson = summaryJson.str();
    return dump;
}

/** Parameter: a registered scenario's name. */
class ObsDeterminism : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ObsDeterminism, StatsDumpsIdenticalAcrossJobCounts)
{
    // The sampling cadence derives from simulated time only, so the
    // windowed series dump is gated alongside the stats dumps.
    constexpr double kSampleEvery = 2e-7;
    const ScenarioDump one = runWithJobs(GetParam(), 1, kSampleEvery);
    const ScenarioDump eight =
        runWithJobs(GetParam(), 8, kSampleEvery);
    EXPECT_FALSE(one.summaryJson.empty());
    EXPECT_EQ(one.summaryJson, eight.summaryJson);
    EXPECT_EQ(one.statsJson, eight.statsJson);
    EXPECT_EQ(one.manifest.configFingerprint,
              eight.manifest.configFingerprint);
    EXPECT_EQ(one.seriesJson, eight.seriesJson);
}

std::vector<std::string>
scenarioNames()
{
    std::vector<std::string> names;
    for (const ScenarioInfo &info : allScenarios())
        names.emplace_back(info.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    EveryScenario, ObsDeterminism,
    ::testing::ValuesIn(scenarioNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(ObsDeterminism, StatsDumpCoversEveryLayer)
{
    const ScenarioDump dump = runWithJobs("fig12_threshold_sweep", 4);
    for (const char *needle :
         {"\"gpu.", "\"sim.", "\"control.", "\"hypervisor.",
          "\"exec."}) {
        EXPECT_NE(dump.statsJson.find(needle), std::string::npos)
            << needle;
    }
    EXPECT_NE(dump.statsJson.find("\"manifest\""),
              std::string::npos);
    EXPECT_NE(dump.summaryJson.find("\"manifest\""),
              std::string::npos);
}

TEST(ObsDeterminism, TracingDoesNotPerturbResults)
{
    const ScenarioDump quiet = runWithJobs("fig12_threshold_sweep", 2);

    obs::Tracer::instance().enable(obs::CatAll);
    const ScenarioDump traced =
        runWithJobs("fig12_threshold_sweep", 2);
    obs::Tracer::instance().disable();
    EXPECT_GT(obs::Tracer::instance().numEvents(), 0U);
    obs::Tracer::instance().clear();

    EXPECT_EQ(quiet.summaryJson, traced.summaryJson);
    EXPECT_EQ(quiet.statsJson, traced.statsJson);
}

TEST(ObsDeterminism, SeriesChannelsCoverEveryLayer)
{
    const ScenarioDump dump =
        runWithJobs("fig14_penalty_saving", 4, 2e-7);
    // fig14 runs both PDS kinds with no DFS/PG attached, so the
    // electrical, power, circuit, and control channels must appear
    // (the hv.* channels only exist when a governor is attached).
    for (const char *needle :
         {"rail.min", "rail.max", "rail.sm0", "power.load",
          "circuit.lu_builds", "ctl.margin", "ctl.triggered"}) {
        EXPECT_NE(dump.seriesJson.find(needle), std::string::npos)
            << needle;
    }
}

TEST(ObsDeterminism, SamplingAndProfilingDoNotPerturbResults)
{
    const ScenarioDump quiet =
        runWithJobs("fig14_penalty_saving", 2);
    const ScenarioDump observed = runWithJobs(
        "fig14_penalty_saving", 2, 2e-7, /*profile=*/true);
    EXPECT_EQ(quiet.summaryJson, observed.summaryJson);
    EXPECT_EQ(quiet.statsJson, observed.statsJson);
    EXPECT_GT(observed.telemetry.profile.runs, 0u);
    EXPECT_GT(observed.telemetry.profile.sampledCycles, 0u);
}

TEST(ObsDeterminism, StatsJsonRoundTripsThroughParser)
{
    const ScenarioDump dump = runWithJobs("fig12_threshold_sweep", 2);
    std::istringstream in(dump.statsJson);
    const obs::StatsSnapshot parsed = obs::readStatsJson(in);
    std::ostringstream out;
    obs::writeStatsJson(parsed, out);
    EXPECT_EQ(out.str(), dump.statsJson);
}

TEST(ObsDeterminism, SummaryJsonRoundTripsThroughParser)
{
    const ScenarioDump dump = runWithJobs("fig03_impedance", 2);
    std::istringstream in(dump.summaryJson);
    const Summary parsed = readSummaryJson(in);
    EXPECT_TRUE(parsed.manifest.valid);
    std::ostringstream once;
    writeSummaryJson(parsed, once);
    EXPECT_EQ(once.str(), dump.summaryJson);
}

/** The run's scalars and counters, as `vsgpu run --stats-out`
 *  dumps them. */
std::string
runStatsJson(const CosimResult &r)
{
    obs::StatsSnapshot stats;
    appendRunStats(stats, r);
    std::ostringstream json;
    obs::writeStatsJson(stats, json);
    return json.str();
}

/** A plain run and a VS cross-layer run with PG and the hypervisor:
 *  runAll() returns them in point order, equipped with their
 *  governors, bit for bit as direct co-simulations. */
TEST(RunAll, MatchesDirectRunsInPointOrder)
{
    exec::Pool pool(2);
    exec::SetupCache cache;
    std::ostringstream out;
    ScenarioContext ctx{pool, cache, kScale, out};

    CosimConfig plain;
    plain.pds = defaultPds(PdsKind::ConventionalVrm);
    plain.maxCycles = 20000;
    CosimConfig cross;
    cross.pds = defaultPds(PdsKind::VsCrossLayer);
    cross.maxCycles = 20000;
    const WorkloadSpec bfs = benchWorkload(ctx, Benchmark::Bfs);
    const std::vector<RunPoint> points = {
        {"vrm/plain", plain, bfs},
        {"vs/pg", cross, bfs, std::nullopt, true}};
    const std::vector<CosimResult> results = runAll(ctx, points);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].counters.pgGateRequests, 0u);
    EXPECT_GT(results[1].counters.pgGateRequests, 0u);

    const CosimResult direct0 =
        CoSimulator(plain).run(points[0].workload);
    CosimConfig gates = cross;
    gates.gpu.sm.scheduler = SchedulerKind::Gates;
    PgGovernor pg;
    VsAwareHypervisor hv;
    CoSimulator sim(gates);
    sim.attachPg(&pg);
    sim.attachHypervisor(&hv);
    const CosimResult direct1 = sim.run(points[1].workload);

    EXPECT_EQ(runStatsJson(results[0]), runStatsJson(direct0));
    EXPECT_EQ(runStatsJson(results[1]), runStatsJson(direct1));
    EXPECT_EQ(results[0].imbalanceBins, direct0.imbalanceBins);
    EXPECT_EQ(results[1].imbalanceBins, direct1.imbalanceBins);
}

/** A label names one run in the series dump, so a repeated label
 *  panics whether or not sampling is on, before anything runs. */
TEST(RunAllDeathTest, DuplicateLabelPanicsWithSamplingOff)
{
    exec::Pool pool(1);
    exec::SetupCache cache;
    std::ostringstream out;
    ScenarioContext ctx{pool, cache, kScale, out};
    ASSERT_LE(ctx.sampleEverySec, 0.0);
    CosimConfig cfg;
    cfg.maxCycles = 100;
    const RunPoint p{"twice", cfg, benchWorkload(ctx, Benchmark::Bfs)};
    EXPECT_DEATH(runAll(ctx, {p, p}), "duplicate run label 'twice'");
}

} // namespace
} // namespace vsgpu::scen
