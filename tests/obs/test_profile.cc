/**
 * @file
 * Unit tests for the stage-cost self-profiler: the global gate and
 * its disabled fast path, ProfileScope / StageTimer accounting,
 * order-independent merging, the JSON round trip, and the rendered
 * report's coverage lines.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/profile.hh"

namespace vsgpu::obs
{
namespace
{

/** RAII: each test starts and ends with profiling off, default stride. */
class ProfileFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setProfiling(false);
        setProfilingStride(32);
    }

    void
    TearDown() override
    {
        setProfiling(false);
        setProfilingStride(32);
    }
};

using ProfileTest = ProfileFixture;

TEST_F(ProfileTest, StageNamesAreDotted)
{
    EXPECT_STREQ(profileStageName(StageGpu), "gpu");
    EXPECT_STREQ(profileStageName(StageFinalize), "finalize");
    EXPECT_STREQ(profileStageName(StageCircuit), "circuit");
    EXPECT_STREQ(profileStageName(StageCircuitSolve),
                 "circuit.solve");
}

TEST_F(ProfileTest, DisabledScopeRecordsNothing)
{
    Profile profile;
    {
        ProfileScope scope(&profile, StageGpu);
    }
    EXPECT_EQ(profile.stages[StageGpu].samples, 0u);
    EXPECT_EQ(profile.stages[StageGpu].ns, 0u);
}

TEST_F(ProfileTest, EnabledScopeRecordsOneSample)
{
    setProfiling(true);
    Profile profile;
    {
        ProfileScope scope(&profile, StageGpu);
    }
    EXPECT_EQ(profile.stages[StageGpu].samples, 1u);
}

TEST_F(ProfileTest, NullProfileScopeIsSafe)
{
    setProfiling(true);
    ProfileScope scope(nullptr, StageGpu);
}

TEST_F(ProfileTest, StageTimerSamplesOnStride)
{
    Profile profile;
    StageTimer timer(&profile, /*strideCycles=*/3);
    for (int i = 0; i < 9; ++i) {
        timer.beginCycle();
        EXPECT_EQ(timer.sampling() != nullptr, i % 3 == 0);
        timer.mark(StageGpu);
        timer.mark(StagePower);
        timer.endCycle();
    }
    EXPECT_EQ(profile.cycles, 9u);
    EXPECT_EQ(profile.sampledCycles, 3u);
    EXPECT_EQ(profile.stages[StageGpu].samples, 3u);
    EXPECT_EQ(profile.stages[StagePower].samples, 3u);
    // Fence-post marks cover the sampled loop gap-free.
    EXPECT_EQ(profile.loopNs, profile.stages[StageGpu].ns +
                                  profile.stages[StagePower].ns);
}

TEST_F(ProfileTest, NullStageTimerNoops)
{
    StageTimer timer(nullptr, 4);
    timer.beginCycle();
    EXPECT_EQ(timer.sampling(), nullptr);
    timer.mark(StageGpu);
    timer.endCycle();
}

TEST_F(ProfileTest, HistogramPercentileBracketsSamples)
{
    StageTotals totals;
    totals.add(100); // bucket 6: [64, 128)
    totals.add(100);
    totals.add(100);
    totals.add(5000); // bucket 12: [4096, 8192)
    const double p50 = totals.percentileNs(0.50);
    EXPECT_GE(p50, 64.0);
    EXPECT_LT(p50, 128.0);
    const double p99 = totals.percentileNs(0.99);
    EXPECT_GE(p99, 4096.0);
    EXPECT_LT(p99, 8192.0);
}

Profile
syntheticProfile()
{
    Profile p;
    p.cycles = 100;
    p.sampledCycles = 25;
    p.loopNs = 5000;
    p.wallNs = 6000;
    p.runs = 1;
    p.strideCycles = 4;
    for (int i = 0; i < 25; ++i) {
        p.stages[StageGpu].add(120);
        p.stages[StagePower].add(30);
        p.stages[StageCircuit].add(40);
        p.stages[StageControl].add(7);
        p.stages[StageHypervisor].add(1);
        p.stages[StageObserve].add(1);
        p.stages[StageBookkeeping].add(1);
        p.stages[StageCircuitSolve].add(25);
        p.stages[StageCircuitAssemble].add(10);
        p.stages[StageCircuitUpdate].add(5);
    }
    p.stages[StageSetup].add(500);
    p.stages[StageFinalize].add(200);
    return p;
}

TEST_F(ProfileTest, MergeSumsAndIsOrderIndependent)
{
    const Profile a = syntheticProfile();
    Profile b = syntheticProfile();
    b.stages[StageGpu].add(999);
    ++b.runs;

    Profile ab = a;
    ab.merge(b);
    Profile ba = b;
    ba.merge(a);
    EXPECT_EQ(ab.cycles, 200u);
    EXPECT_EQ(ab.runs, 3u);
    EXPECT_EQ(ab.stages[StageGpu].ns, ba.stages[StageGpu].ns);
    EXPECT_EQ(ab.stages[StageGpu].samples,
              a.stages[StageGpu].samples +
                  b.stages[StageGpu].samples);
    EXPECT_EQ(writeProfileJson(ab, ""), writeProfileJson(ba, ""));
}

TEST_F(ProfileTest, JsonRoundTripsThroughParser)
{
    const Profile p = syntheticProfile();
    const std::string json = writeProfileJson(p, "  ");
    EXPECT_NE(json.find("\"schema\": \"vsgpu-profile-v2\""),
              std::string::npos);
    const Profile parsed = parseProfileJson(json);
    EXPECT_EQ(writeProfileJson(parsed, "  "), json);
    EXPECT_EQ(parsed.cycles, p.cycles);
    EXPECT_EQ(parsed.stages[StageGpu].ns, p.stages[StageGpu].ns);
}

TEST_F(ProfileTest, ReportCoversLoopAndNamesStages)
{
    const std::string report =
        renderProfileReport(syntheticProfile());
    for (const char *needle :
         {"gpu", "circuit.solve", "serial critical path",
          "loop coverage", "wall attribution"}) {
        EXPECT_NE(report.find(needle), std::string::npos) << needle;
    }
    // The fence-post timer attributes all sampled loop time, so the
    // synthetic profile (stages sum exactly to loopNs) reports 100%.
    EXPECT_NE(report.find("100.0% of sampled loop time"),
              std::string::npos);
}

TEST_F(ProfileTest, WallAttributionNamesSetupAndFinalize)
{
    Profile p = syntheticProfile();
    // Loop estimate: 5000 ns x (100 / 25 cycles) = 20000 ns, plus
    // 500 setup and 200 finalize = 20700 of 23000 ns of wall time.
    p.wallNs = 23000;
    const std::string report = renderProfileReport(p);
    EXPECT_NE(report.find("loop + setup + finalize cover  90.0% of "
                          "run wall time (0.023 ms total, setup "
                          "0.001 ms, finalize 0.000 ms)"),
              std::string::npos)
        << report;
}

TEST_F(ProfileTest, OldSchemaIsRejected)
{
    std::string json = writeProfileJson(syntheticProfile(), "");
    json.replace(json.find("vsgpu-profile-v2"), 16, "vsgpu-profile-v1");
    EXPECT_DEATH(parseProfileJson(json), "unknown schema");
}

} // namespace
} // namespace vsgpu::obs
