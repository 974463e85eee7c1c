/**
 * @file
 * Unit tests for the 16-SM GPU wrapper and DFS clock masking.
 */

#include <gtest/gtest.h>


#include "common/logging.hh"
#include "gpu/gpu.hh"

namespace vsgpu
{
namespace
{

class CountFactory : public ProgramFactory
{
  public:
    CountFactory(int instrs, int warps) : instrs_(instrs), warps_(warps)
    {
    }

    int warpsPerSm() const override { return warps_; }

    std::unique_ptr<WarpProgram>
    makeProgram(int, int) const override
    {
        std::vector<WarpInstr> v(static_cast<std::size_t>(instrs_));
        return std::make_unique<TraceProgram>(std::move(v));
    }

  private:
    int instrs_;
    int warps_;
};

TEST(GpuTest, HasSixteenSMs)
{
    Gpu gpu;
    EXPECT_EQ(gpu.numSMs(), 16);
    EXPECT_TRUE(gpu.done());
}

TEST(GpuTest, AllSMsDrain)
{
    Gpu gpu;
    CountFactory factory(30, 4);
    gpu.launch(factory);
    EXPECT_FALSE(gpu.done());
    while (!gpu.done() && gpu.cycle() < 10000)
        gpu.step();
    EXPECT_TRUE(gpu.done());
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(gpu.sm(i).retired(), 120u);
}

TEST(GpuTest, CycleCounterAdvances)
{
    Gpu gpu;
    gpu.step();
    gpu.step();
    EXPECT_EQ(gpu.cycle(), 2u);
}

TEST(GpuTest, ClockMaskSlowsAnSm)
{
    Gpu full, masked;
    CountFactory factory(200, 4);
    full.launch(factory);
    masked.launch(factory);
    masked.setSmFrequencyFraction(0, 0.5);
    while (!full.done() && full.cycle() < 20000)
        full.step();
    while (!masked.done() && masked.cycle() < 40000)
        masked.step();
    EXPECT_TRUE(full.done());
    EXPECT_TRUE(masked.done());
    EXPECT_GT(masked.cycle(), full.cycle() * 3 / 2);
}

TEST(GpuTest, MaskedCyclesReportUnclocked)
{
    Gpu gpu;
    CountFactory factory(1000, 4);
    gpu.launch(factory);
    gpu.setSmFrequencyFraction(3, 0.25);
    int clocked = 0;
    const int steps = 400;
    for (int i = 0; i < steps; ++i) {
        gpu.step();
        if (gpu.smEvents(3).clocked)
            ++clocked;
    }
    EXPECT_NEAR(static_cast<double>(clocked) / steps, 0.25, 0.05);
}

TEST(GpuTest, ZeroFrequencyHaltsSm)
{
    Gpu gpu;
    CountFactory factory(10, 1);
    gpu.launch(factory);
    gpu.setSmFrequencyFraction(5, 0.0);
    for (int i = 0; i < 2000; ++i)
        gpu.step();
    EXPECT_FALSE(gpu.sm(5).done());
    EXPECT_EQ(gpu.sm(5).retired(), 0u);
    // Other SMs completed.
    EXPECT_TRUE(gpu.sm(0).done());
}

TEST(GpuTest, FrequencyFractionClamped)
{
    Gpu gpu;
    gpu.setSmFrequencyFraction(0, 2.0);
    EXPECT_DOUBLE_EQ(gpu.smFrequencyFraction(0), 1.0);
    gpu.setSmFrequencyFraction(0, -1.0);
    EXPECT_DOUBLE_EQ(gpu.smFrequencyFraction(0), 0.0);
}

TEST(GpuTest, SharedMemorySystemIsCommon)
{
    Gpu gpu;
    CountFactory factory(5, 1);
    gpu.launch(factory);
    EXPECT_EQ(&gpu.memory(), &gpu.memory());
}

TEST(GpuDeath, BadSmIndexPanics)
{
    setLogQuiet(true);
    Gpu gpu;
    EXPECT_DEATH(gpu.sm(16), "");
    EXPECT_DEATH(gpu.sm(-1), "");
    EXPECT_DEATH(gpu.setSmFrequencyFraction(99, 1.0), "");
    EXPECT_DEATH(gpu.smEvents(16), "");
}

TEST(GpuStats, SmSnapshotMatchesCounters)
{
    Gpu gpu;
    CountFactory factory(30, 3);
    gpu.launch(factory);
    while (!gpu.done() && gpu.cycle() < 5000)
        gpu.step();
    const SmStats s = gpu.sm(0).stats();
    EXPECT_EQ(s.retired, gpu.sm(0).retired());
    EXPECT_EQ(s.retired, 90u);
    EXPECT_DOUBLE_EQ(s.avgIssueRate, gpu.sm(0).avgIssueRate());
    std::uint64_t byClass = 0;
    for (std::uint64_t n : s.issuedByClass)
        byClass += n;
    EXPECT_EQ(byClass, s.retired);
    // All trace instructions are IntAlu: SP blocks carried them.
    EXPECT_GT(s.unitBusyCycles[static_cast<std::size_t>(
                  ExecUnitKind::Sp0)],
              0u);
}

} // namespace
} // namespace vsgpu
