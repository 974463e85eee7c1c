/**
 * @file
 * Unit tests for the crash flight recorder: ring bounds and
 * oldest-eviction, chronological snapshots, the text/JSON dump
 * shapes, and the crash-hook death fixtures — a NaN-guard trip in
 * the co-simulation loop and a control-model verify-gate failure
 * must both dump the recorder to stderr before dying, and a fatal()
 * after the run has returned must not.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "obs/flight_recorder.hh"
#include "sim/cosim.hh"
#include "workloads/suite.hh"

namespace vsgpu::obs
{
namespace
{

/** Fresh run context so tests do not see prior tests' records. */
FlightRecorder &
freshRecorder(const char *subject)
{
    FlightRecorder &fr = FlightRecorder::instance();
    fr.beginRun(subject, "deadbeefdeadbeef");
    return fr;
}

TEST(FlightRecorder, RecordsInChronologicalOrder)
{
    FlightRecorder &fr = freshRecorder("unit");
    for (int i = 0; i < 10; ++i)
        fr.record("rail", 1e-9 * i, static_cast<std::uint64_t>(i),
                  1.0, 2.0);
    EXPECT_EQ(fr.size(), 10u);
    EXPECT_EQ(fr.recorded(), 10u);
    const auto records = fr.records();
    ASSERT_EQ(records.size(), 10u);
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(records[i].cycle, i);
}

TEST(FlightRecorder, RingEvictsOldestPastCapacity)
{
    FlightRecorder &fr = freshRecorder("unit");
    const std::size_t n = FlightRecorder::capacity() + 100;
    for (std::size_t i = 0; i < n; ++i)
        fr.record("rail", 0.0, i, 0.0, 0.0);
    EXPECT_EQ(fr.size(), FlightRecorder::capacity());
    EXPECT_EQ(fr.recorded(), n);
    const auto records = fr.records();
    ASSERT_EQ(records.size(), FlightRecorder::capacity());
    // Oldest surviving record is the (n - capacity)-th; newest is
    // the last written.
    EXPECT_EQ(records.front().cycle, n - FlightRecorder::capacity());
    EXPECT_EQ(records.back().cycle, n - 1);
}

TEST(FlightRecorder, BeginRunResetsTheRing)
{
    FlightRecorder &fr = freshRecorder("first");
    fr.record("rail", 0.0, 7, 0.0, 0.0);
    fr.beginRun("second", "0123456789abcdef");
    EXPECT_EQ(fr.size(), 0u);
    EXPECT_EQ(fr.recorded(), 0u);
    EXPECT_EQ(fr.subject(), "second");
    EXPECT_EQ(fr.fingerprint(), "0123456789abcdef");
}

TEST(FlightRecorder, TextDumpHasBannerAndRows)
{
    FlightRecorder &fr = freshRecorder("text-run");
    fr.record("rail", 1.5e-9, 1, 0.95, 1.05);
    fr.record("kernel.launch", 0.0, 0, 0.0, 0.0);
    std::ostringstream os;
    fr.writeText(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("==== vsgpu flight recorder ===="),
              std::string::npos);
    EXPECT_NE(text.find("==== end flight recorder ===="),
              std::string::npos);
    EXPECT_NE(text.find("text-run"), std::string::npos);
    EXPECT_NE(text.find("deadbeefdeadbeef"), std::string::npos);
    EXPECT_NE(text.find("kernel.launch"), std::string::npos);
}

TEST(FlightRecorder, JsonDumpHasSchemaAndRecords)
{
    FlightRecorder &fr = freshRecorder("json-run");
    fr.record("rail", 1.5e-9, 1, 0.95, 1.05);
    std::ostringstream os;
    fr.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"schema\": \"vsgpu-flight-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"subject\": \"json-run\""),
              std::string::npos);
    EXPECT_NE(json.find("\"tag\": \"rail\""), std::string::npos);
    EXPECT_NE(json.find("\"recorded\": 1"), std::string::npos);
}

// ---------------- crash-dump death fixtures ----------------

WorkloadSpec
smallBench()
{
    return scaledToInstrs(workloadFor(Benchmark::Hotspot), 300);
}

/** A gated layer whose SMs "draw" NaN watts poisons the rail solve;
 *  the always-on NaN guard must panic and dump the flight recorder's
 *  recent rail history. */
TEST(FlightRecorderDeath, NanGuardTripDumpsRecorder)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCrossLayer);
    cfg.maxCycles = 20000;
    cfg.gateLayerAtSec = Seconds{1e-6};
    cfg.gatedLayerWatts =
        Watts{std::numeric_limits<double>::quiet_NaN()};
    EXPECT_DEATH(
        {
            CoSimulator sim(cfg);
            sim.run(smallBench());
        },
        "vsgpu flight recorder");
}

/** A config the static control audit rejects (zero decision period)
 *  dies through fatal(); the crash hook still dumps the recorder's
 *  run banner so sweep logs identify the failing configuration. */
TEST(FlightRecorderDeath, VerifyGateFailureDumpsRecorder)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCrossLayer);
    cfg.pds.controller.period = 0;
    cfg.maxCycles = 8000;
    EXPECT_DEATH(
        {
            CoSimulator sim(cfg);
            sim.run(smallBench());
        },
        "vsgpu flight recorder");
}

/** Once the run has returned, a fatal() (say, a stats file that
 *  cannot be written) is no crash of the run: the records stay
 *  readable, but the hook prints nothing past the fatal message. */
TEST(FlightRecorderDeath, FatalAfterTheRunDumpsNothing)
{
    CosimConfig cfg;
    cfg.maxCycles = 2000;
    CoSimulator(cfg).run(smallBench());
    const FlightRecorder &fr = FlightRecorder::instance();
    EXPECT_FALSE(fr.inRun());
    EXPECT_GT(fr.size(), 0u);
    EXPECT_EXIT(fatal("cannot write 'stats.json'"),
                ::testing::ExitedWithCode(1),
                "^fatal: cannot write 'stats.json'\n$");
}

} // namespace
} // namespace vsgpu::obs
