/**
 * @file
 * Unit and property tests for the procedural workload generator.
 */

#include <gtest/gtest.h>

#include <vector>

#include "workloads/generator.hh"
#include "workloads/suite.hh"

namespace vsgpu
{
namespace
{

std::vector<WarpInstr>
drainProgram(WarpProgram &p)
{
    std::vector<WarpInstr> out;
    while (auto instr = p.next())
        out.push_back(*instr);
    return out;
}

TEST(Generator, EmitsExactInstructionCount)
{
    WorkloadSpec spec = uniformWorkload(500);
    WorkloadFactory factory(spec);
    auto prog = factory.makeProgram(0, 0);
    EXPECT_EQ(drainProgram(*prog).size(), 500u);
}

TEST(Generator, DeterministicPerSmWarp)
{
    WorkloadSpec spec = workloadFor(Benchmark::Srad);
    WorkloadFactory factory(spec);
    auto a = drainProgram(*factory.makeProgram(2, 7));
    auto b = drainProgram(*factory.makeProgram(2, 7));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].op, b[i].op);
        EXPECT_EQ(a[i].dest, b[i].dest);
        EXPECT_EQ(a[i].src0, b[i].src0);
        EXPECT_EQ(a[i].activeLanes, b[i].activeLanes);
    }
}

TEST(Generator, DifferentWarpsDiffer)
{
    WorkloadSpec spec = workloadFor(Benchmark::Srad);
    WorkloadFactory factory(spec);
    auto a = drainProgram(*factory.makeProgram(0, 0));
    auto b = drainProgram(*factory.makeProgram(0, 1));
    int differences = 0;
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
        if (a[i].op != b[i].op)
            ++differences;
    EXPECT_GT(differences, 10);
}

TEST(Generator, MixMatchesPhaseWeights)
{
    WorkloadSpec spec;
    spec.name = "mixcheck";
    PhaseSpec phase;
    phase.mix[static_cast<std::size_t>(OpClass::IntAlu)] = 0.5;
    phase.mix[static_cast<std::size_t>(OpClass::Load)] = 0.5;
    phase.lengthInstrs = 4000;
    spec.phases = {phase};
    spec.repeats = 1;
    WorkloadFactory factory(spec);
    auto instrs = drainProgram(*factory.makeProgram(0, 0));
    int loads = 0;
    for (const auto &i : instrs)
        if (i.op == OpClass::Load)
            ++loads;
    EXPECT_NEAR(static_cast<double>(loads) / instrs.size(), 0.5,
                0.05);
}

TEST(Generator, BarrierEmittedAtPhaseEnd)
{
    WorkloadSpec spec;
    spec.name = "barriers";
    PhaseSpec phase;
    phase.mix[static_cast<std::size_t>(OpClass::IntAlu)] = 1.0;
    phase.lengthInstrs = 9;
    phase.barrierAtEnd = true;
    spec.phases = {phase};
    spec.repeats = 3;
    spec.smJitter = 0.0;
    spec.warpJitter = 0.0;
    WorkloadFactory factory(spec);
    auto instrs = drainProgram(*factory.makeProgram(0, 0));
    ASSERT_EQ(instrs.size(), 30u);
    EXPECT_EQ(instrs[9].op, OpClass::Sync);
    EXPECT_EQ(instrs[19].op, OpClass::Sync);
    EXPECT_EQ(instrs[29].op, OpClass::Sync);
}

TEST(Generator, JitterOffsetsSmStartPoints)
{
    WorkloadSpec spec;
    spec.name = "jitter";
    PhaseSpec a;
    a.mix[static_cast<std::size_t>(OpClass::IntAlu)] = 1.0;
    a.lengthInstrs = 100;
    PhaseSpec b;
    b.mix[static_cast<std::size_t>(OpClass::Load)] = 1.0;
    b.lengthInstrs = 100;
    spec.phases = {a, b};
    spec.repeats = 2;
    spec.smJitter = 0.9;
    spec.warpJitter = 0.0;
    WorkloadFactory factory(spec);
    // First instruction op differs between some SMs when offsets
    // land in different phases.
    int inLoadPhase = 0;
    for (int sm = 0; sm < 16; ++sm) {
        auto prog = factory.makeProgram(sm, 0);
        const auto first = prog->next();
        ASSERT_TRUE(first.has_value());
        if (first->op == OpClass::Load)
            ++inLoadPhase;
    }
    EXPECT_GT(inLoadPhase, 0);
    EXPECT_LT(inLoadPhase, 16);
}

TEST(Generator, ZeroJitterAlignsAllSms)
{
    WorkloadSpec spec = uniformWorkload(100);
    WorkloadFactory factory(spec);
    for (int sm = 0; sm < 4; ++sm) {
        auto prog = factory.makeProgram(sm, 0);
        const auto first = prog->next();
        ASSERT_TRUE(first.has_value());
        EXPECT_TRUE(first->op == OpClass::FpAlu ||
                    first->op == OpClass::IntAlu);
    }
}

TEST(Generator, LanesRespectDivergenceBounds)
{
    WorkloadSpec spec = workloadFor(Benchmark::Bfs);
    WorkloadFactory factory(spec);
    auto instrs = drainProgram(*factory.makeProgram(0, 0));
    double sum = 0.0;
    for (const auto &i : instrs) {
        ASSERT_GE(i.activeLanes, 1);
        ASSERT_LE(i.activeLanes, 32);
        sum += i.activeLanes;
    }
    // bfs divergence 0.45 -> mean lanes near 14-15.
    EXPECT_NEAR(sum / instrs.size() / 32.0, 0.45, 0.1);
}

TEST(Generator, SourceRegistersNeverExceedWrittenRange)
{
    WorkloadSpec spec = workloadFor(Benchmark::Hotspot);
    WorkloadFactory factory(spec);
    auto instrs = drainProgram(*factory.makeProgram(1, 2));
    for (const auto &i : instrs) {
        if (i.dest != noReg) {
            EXPECT_LT(i.dest, 48);
        }
        if (i.src0 != noReg) {
            EXPECT_LT(i.src0, 48);
        }
        if (i.src1 != noReg) {
            EXPECT_LT(i.src1, 48);
        }
    }
}

TEST(Generator, StoresHaveNoDestination)
{
    WorkloadSpec spec;
    spec.name = "stores";
    PhaseSpec phase;
    phase.mix[static_cast<std::size_t>(OpClass::Store)] = 1.0;
    phase.lengthInstrs = 50;
    spec.phases = {phase};
    spec.repeats = 1;
    WorkloadFactory factory(spec);
    auto instrs = drainProgram(*factory.makeProgram(0, 0));
    for (const auto &i : instrs)
        EXPECT_EQ(i.dest, noReg);
}

TEST(Generator, CacheOutcomesMatchConfiguredRates)
{
    WorkloadSpec spec;
    spec.name = "hits";
    PhaseSpec phase;
    phase.mix[static_cast<std::size_t>(OpClass::Load)] = 1.0;
    phase.lengthInstrs = 5000;
    spec.phases = {phase};
    spec.repeats = 1;
    spec.l1HitRate = 0.7;
    spec.l2HitRate = 0.4;
    WorkloadFactory factory(spec);
    auto instrs = drainProgram(*factory.makeProgram(0, 0));
    int l1 = 0, l2 = 0;
    for (const auto &i : instrs) {
        l1 += i.l1Hit ? 1 : 0;
        l2 += i.l2Hit ? 1 : 0;
    }
    const double n = static_cast<double>(instrs.size());
    EXPECT_NEAR(l1 / n, 0.7, 0.03);
    EXPECT_NEAR(l2 / n, 0.4, 0.03);
}

TEST(Generator, CacheOutcomesAreOrderIndependent)
{
    // The same (sm, warp, position) always gets the same outcome —
    // the property that makes cross-configuration timing comparisons
    // deterministic.
    WorkloadSpec spec = workloadFor(Benchmark::Scalarprod);
    WorkloadFactory factory(spec);
    auto a = drainProgram(*factory.makeProgram(3, 4));
    auto b = drainProgram(*factory.makeProgram(3, 4));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].l1Hit, b[i].l1Hit);
        EXPECT_EQ(a[i].l2Hit, b[i].l2Hit);
    }
}

} // namespace
} // namespace vsgpu
