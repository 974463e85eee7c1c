/**
 * @file
 * Tests for the textual warp-trace format: parsing, serialization,
 * round-tripping of generated workloads, and replay on the GPU.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hh"
#include "gpu/gpu.hh"
#include "workloads/generator.hh"
#include "workloads/suite.hh"
#include "workloads/trace_file.hh"

namespace vsgpu
{
namespace
{

constexpr const char *tinyTrace = R"(# a tiny kernel
warp 0 0
int 8 - - 32 1 1 0
fp 9 8 - 32 1 1 0
load 10 9 - 16 0 0 1
sync - - - 32 1 1 0
store - 10 - 32 1 1 0
warp 0 1
int 8 - - 32 1 1 0
sync - - - 32 1 1 0
store - 8 - 32 1 1 0
)";

TEST(TraceFileTest, ParsesTinyTrace)
{
    std::istringstream is(tinyTrace);
    const TraceFile trace = TraceFile::parse(is);
    EXPECT_EQ(trace.numStreams(), 2u);
    EXPECT_EQ(trace.totalInstrs(), 8u);
    EXPECT_EQ(trace.warpsPerSm(), 2);

    const auto &w0 = trace.stream(0, 0);
    ASSERT_EQ(w0.size(), 5u);
    EXPECT_EQ(w0[0].op, OpClass::IntAlu);
    EXPECT_EQ(w0[0].dest, 8);
    EXPECT_EQ(w0[1].op, OpClass::FpAlu);
    EXPECT_EQ(w0[1].src0, 8);
    EXPECT_EQ(w0[2].op, OpClass::Load);
    EXPECT_EQ(w0[2].activeLanes, 16);
    EXPECT_FALSE(w0[2].rowHit);
    EXPECT_FALSE(w0[2].l1Hit);
    EXPECT_TRUE(w0[2].l2Hit);
    EXPECT_EQ(w0[3].op, OpClass::Sync);
    EXPECT_EQ(w0[4].op, OpClass::Store);
    EXPECT_EQ(w0[4].dest, noReg);
}

TEST(TraceFileTest, ModuloFallbackReplaysStreams)
{
    std::istringstream is(tinyTrace);
    const TraceFile trace = TraceFile::parse(is);
    // SM 7 was not recorded: falls back to SM 0's streams.
    EXPECT_EQ(trace.stream(7, 0).size(), trace.stream(0, 0).size());
    EXPECT_EQ(trace.stream(7, 5).size(), trace.stream(0, 1).size());
}

TEST(TraceFileTest, WriteParseRoundTrip)
{
    std::istringstream is(tinyTrace);
    const TraceFile original = TraceFile::parse(is);
    std::ostringstream os;
    original.write(os);
    std::istringstream is2(os.str());
    const TraceFile reparsed = TraceFile::parse(is2);
    ASSERT_EQ(reparsed.numStreams(), original.numStreams());
    for (int warp = 0; warp < 2; ++warp) {
        const auto &a = original.stream(0, warp);
        const auto &b = reparsed.stream(0, warp);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].op, b[i].op);
            EXPECT_EQ(a[i].dest, b[i].dest);
            EXPECT_EQ(a[i].src0, b[i].src0);
            EXPECT_EQ(a[i].activeLanes, b[i].activeLanes);
            EXPECT_EQ(a[i].l1Hit, b[i].l1Hit);
        }
    }
}

TEST(TraceFileTest, RecordsGeneratedWorkload)
{
    const WorkloadSpec spec =
        scaledToInstrs(workloadFor(Benchmark::Srad), 100);
    WorkloadFactory generated(spec);
    const TraceFile trace = recordTrace(generated, 2);
    EXPECT_EQ(trace.warpsPerSm(), spec.warpsPerSm);
    EXPECT_EQ(trace.numStreams(),
              static_cast<std::size_t>(2 * spec.warpsPerSm));

    // Replayed streams match the generator exactly.
    TraceFileFactory replay(trace);
    auto a = generated.makeProgram(1, 3);
    auto b = replay.makeProgram(1, 3);
    while (true) {
        const auto ia = a->next();
        const auto ib = b->next();
        ASSERT_EQ(ia.has_value(), ib.has_value());
        if (!ia.has_value())
            break;
        EXPECT_EQ(ia->op, ib->op);
        EXPECT_EQ(ia->dest, ib->dest);
        EXPECT_EQ(ia->l1Hit, ib->l1Hit);
    }
}

TEST(TraceFileTest, ReplayedTraceRunsOnGpu)
{
    std::istringstream is(tinyTrace);
    TraceFileFactory factory(TraceFile::parse(is));
    Gpu gpu;
    gpu.launch(factory);
    while (!gpu.done() && gpu.cycle() < 10000)
        gpu.step();
    EXPECT_TRUE(gpu.done());
    // 5 + 3 instructions per SM.
    EXPECT_EQ(gpu.sm(0).retired(), 8u);
}

TEST(TraceFileTest, ParseOpClassMnemonics)
{
    EXPECT_EQ(parseOpClass("int"), OpClass::IntAlu);
    EXPECT_EQ(parseOpClass("fp"), OpClass::FpAlu);
    EXPECT_EQ(parseOpClass("sfu"), OpClass::Sfu);
    EXPECT_EQ(parseOpClass("load"), OpClass::Load);
    EXPECT_EQ(parseOpClass("store"), OpClass::Store);
    EXPECT_EQ(parseOpClass("smem"), OpClass::SharedMem);
    EXPECT_EQ(parseOpClass("atomic"), OpClass::Atomic);
    EXPECT_EQ(parseOpClass("sync"), OpClass::Sync);
}

TEST(TraceFileDeath, MalformedInputIsFatal)
{
    setLogQuiet(true);
    const auto parseString = [](const std::string &text) {
        std::istringstream is(text);
        TraceFile::parse(is);
    };
    EXPECT_EXIT(parseString("int 8 - - 32 1 1 0\n"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(parseString("warp 0 0\nbogus 8 - - 32 1 1 0\n"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(parseString("warp 0 0\nint 8 - - 99 1 1 0\n"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(parseString("# only comments\n"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(parseString("warp 0 60\nint 8 - - 32 1 1 0\n"),
                ::testing::ExitedWithCode(1),
                "trace line 1: warp slot 60 out of range");
    EXPECT_EXIT(parseString("warp 16 0\nint 8 - - 32 1 1 0\n"),
                ::testing::ExitedWithCode(1),
                "trace line 1: SM 16 out of range");
}

} // namespace
} // namespace vsgpu
