/**
 * @file
 * Unit tests for the deterministic windowed time-series recorder:
 * cadence arithmetic, window aggregation (min/max/mean/p99), the
 * partial-final-window flush, bounded p99 buffers, JSON/CSV dumps,
 * the schedule-dependent exclusion rule, and the strict parser
 * round trip.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/timeseries.hh"

namespace vsgpu::obs
{
namespace
{

TEST(TimeSeries, WindowCyclesRoundsAndClamps)
{
    // 2e-7 s window at a ~1.43e-9 s timestep: round(140.0) = 140.
    EXPECT_EQ(timeSeriesWindowCycles(2e-7 / 140.0, 2e-7), 140u);
    // A window shorter than one timestep clamps to one cycle.
    EXPECT_EQ(timeSeriesWindowCycles(1e-9, 1e-12), 1u);
    // Rounding, not truncation.
    EXPECT_EQ(timeSeriesWindowCycles(1.0, 2.6), 3u);
}

TEST(TimeSeries, AggregatesOneFullWindow)
{
    TimeSeriesRecorder rec(1.0, 4.0); // 4 cycles per window
    ASSERT_EQ(rec.windowCycles(), 4u);
    const int ch = rec.addChannel("v", "V", "test channel");
    const double values[] = {1.0, 3.0, 2.0, 4.0};
    for (double v : values) {
        rec.record(ch, v);
        rec.endCycle();
    }
    const auto run = rec.finish();
    ASSERT_NE(run, nullptr);
    ASSERT_EQ(run->windows(), 1u);
    ASSERT_EQ(run->channels.size(), 1u);
    const TimeSeriesChannel &c = run->channels[0];
    EXPECT_DOUBLE_EQ(c.min[0], 1.0);
    EXPECT_DOUBLE_EQ(c.max[0], 4.0);
    EXPECT_DOUBLE_EQ(c.mean[0], 2.5);
    EXPECT_DOUBLE_EQ(c.p99[0], 4.0);
    EXPECT_DOUBLE_EQ(run->timeSec[0], 4.0);
    EXPECT_EQ(run->cycles[0], 4u);
}

TEST(TimeSeries, PartialFinalWindowIsFlushed)
{
    TimeSeriesRecorder rec(1.0, 4.0);
    const int ch = rec.addChannel("v", "V", "test channel");
    for (int i = 0; i < 6; ++i) { // one full window + 2 cycles
        rec.record(ch, static_cast<double>(i));
        rec.endCycle();
    }
    const auto run = rec.finish();
    ASSERT_EQ(run->windows(), 2u);
    EXPECT_DOUBLE_EQ(run->channels[0].min[1], 4.0);
    EXPECT_DOUBLE_EQ(run->channels[0].max[1], 5.0);
    EXPECT_EQ(run->cycles[1], 6u);
}

TEST(TimeSeries, EmptyRecorderFinishesEmpty)
{
    TimeSeriesRecorder rec(1.0, 4.0);
    rec.addChannel("v", "V", "test channel");
    const auto run = rec.finish();
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->windows(), 0u);
}

TEST(TimeSeries, WindowsWithoutRecordsAggregateToZero)
{
    // A window a sparse channel never recorded into emits 0.0 for
    // every aggregate (JSON has no NaN literal to round-trip).
    TimeSeriesRecorder rec(1.0, 2.0);
    const int ch = rec.addChannel("v", "V", "test channel");
    rec.record(ch, 7.0);
    rec.endCycle();
    rec.endCycle(); // closes window 0
    rec.endCycle();
    rec.endCycle(); // closes window 1 with no records
    const auto run = rec.finish();
    ASSERT_EQ(run->windows(), 2u);
    EXPECT_DOUBLE_EQ(run->channels[0].mean[0], 7.0);
    EXPECT_DOUBLE_EQ(run->channels[0].mean[1], 0.0);
    EXPECT_DOUBLE_EQ(run->channels[0].min[1], 0.0);
}

TEST(TimeSeries, P99BufferStaysBoundedOnHugeWindows)
{
    // One window of 10x the cap: exact min/max/mean must survive
    // the decimation, and p99 must stay within the value range.
    const double n = 10.0 * TimeSeriesRecorder::p99SampleCap;
    TimeSeriesRecorder rec(1.0, n);
    const int ch = rec.addChannel("v", "V", "test channel");
    for (double i = 0.0; i < n; i += 1.0) {
        rec.record(ch, i);
        rec.endCycle();
    }
    const auto run = rec.finish();
    ASSERT_EQ(run->windows(), 1u);
    const TimeSeriesChannel &c = run->channels[0];
    EXPECT_DOUBLE_EQ(c.min[0], 0.0);
    EXPECT_DOUBLE_EQ(c.max[0], n - 1.0);
    EXPECT_NEAR(c.mean[0], (n - 1.0) / 2.0, 1e-6);
    EXPECT_GE(c.p99[0], 0.9 * n);
    EXPECT_LE(c.p99[0], n - 1.0);
}

TEST(TimeSeries, DenseRecordKeepsExactAggregatesWithStridedP99)
{
    // recordDense() is called every cycle: min/max/mean must be
    // exact over all 100 values while the p99 buffer only holds the
    // on-stride subsample (cycles 0, 32, 64, 96 with stride 32).
    TimeSeriesRecorder rec(1.0, 100.0);
    ASSERT_EQ(rec.sampleStride(), 32u);
    const int ch = rec.addChannel("v", "V", "dense channel");
    for (int i = 0; i < 100; ++i) {
        rec.recordDense(ch, static_cast<double>(i));
        rec.endCycle();
    }
    const auto run = rec.finish();
    ASSERT_EQ(run->windows(), 1u);
    const TimeSeriesChannel &c = run->channels[0];
    EXPECT_DOUBLE_EQ(c.min[0], 0.0);
    EXPECT_DOUBLE_EQ(c.max[0], 99.0);
    EXPECT_DOUBLE_EQ(c.mean[0], 49.5);
    // Nearest-rank p99 of the subsample {0, 32, 64, 96}.
    EXPECT_DOUBLE_EQ(c.p99[0], 96.0);
}

TEST(TimeSeries, SampleStrideCoversWindow)
{
    // Strided recording (sampleThisCycle) still lands at least one
    // record per window for any cadence, and the per-window record
    // count stays bounded (the overhead budget).
    TimeSeriesRecorder rec(1.0, 5000.0);
    EXPECT_GE(rec.sampleStride(), 32u);
    EXPECT_LE(rec.windowCycles() / rec.sampleStride(),
              TimeSeriesRecorder::p99SampleCap);
    const int ch = rec.addChannel("v", "V", "test channel");
    int recorded = 0;
    for (int i = 0; i < 5000; ++i) {
        if (rec.sampleThisCycle()) {
            rec.record(ch, 1.0);
            ++recorded;
        }
        rec.endCycle();
    }
    EXPECT_GT(recorded, 0);
    EXPECT_LE(static_cast<std::size_t>(recorded),
              2 * TimeSeriesRecorder::p99SampleCap);

    // Even a window shorter than the stride floor samples its first
    // cycle.
    TimeSeriesRecorder tiny(1.0, 2.0);
    EXPECT_TRUE(tiny.sampleThisCycle());
    tiny.endCycle();
    tiny.endCycle(); // window closes; next window's first cycle...
    EXPECT_TRUE(tiny.sampleThisCycle());
}

TimeSeriesDoc
sampleDoc()
{
    TimeSeriesDoc doc;
    doc.sampleEverySec = 4.0;
    doc.dtSec = 1.0;
    doc.windowCycles = 4;
    for (const char *label : {"b/run", "a/run"}) {
        TimeSeriesRecorder rec(1.0, 4.0);
        const int v = rec.addChannel("rail.min", "V", "window min");
        for (int i = 0; i < 8; ++i) {
            rec.record(v, 1.0 + 0.1 * i);
            rec.endCycle();
        }
        auto run = rec.finish();
        run->label = label;
        doc.runs.push_back(*run);
    }
    return doc;
}

TEST(TimeSeries, JsonDumpSortsRuns)
{
    const TimeSeriesDoc doc = sampleDoc();
    std::ostringstream os;
    writeTimeSeriesJson(doc, os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"schema\": \"vsgpu-timeseries-v1\""),
              std::string::npos);
    // Runs sorted by label regardless of insertion order.
    EXPECT_LT(json.find("\"a/run\""), json.find("\"b/run\""));
}

TEST(TimeSeries, JsonRoundTripsThroughParser)
{
    const TimeSeriesDoc doc = sampleDoc();
    std::ostringstream os;
    writeTimeSeriesJson(doc, os);
    std::istringstream is(os.str());
    const TimeSeriesDoc parsed = readTimeSeriesJson(is);
    std::ostringstream again;
    writeTimeSeriesJson(parsed, again);
    EXPECT_EQ(again.str(), os.str());
    ASSERT_EQ(parsed.runs.size(), 2u);
    EXPECT_EQ(parsed.windowCycles, 4u);
}

} // namespace
} // namespace vsgpu::obs
