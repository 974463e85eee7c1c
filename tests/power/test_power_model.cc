/**
 * @file
 * Unit tests for the GPUWattch-style SM power model.
 */

#include <gtest/gtest.h>

#include "gpu/memory.hh"
#include "power/power_model.hh"

namespace vsgpu
{
namespace
{

SmCycleEvents
eventsWith(OpClass op, int count, int lanesEach = 32)
{
    SmCycleEvents ev;
    ev.issued[static_cast<std::size_t>(op)] = count;
    ev.lanesActive = count * lanesEach;
    ev.active = true;
    ev.clocked = true;
    return ev;
}

class PowerModelTest : public ::testing::Test
{
  protected:
    MemorySystem mem_;
    SmPowerModel model_;
};

TEST_F(PowerModelTest, IdleCycleHasNoDynamicEnergy)
{
    SmCycleEvents idle;
    EXPECT_DOUBLE_EQ(model_.dynamicEnergy(idle).raw(), 0.0);
}

TEST_F(PowerModelTest, EnergyScalesWithIssueCount)
{
    const Joules one =
        model_.dynamicEnergy(eventsWith(OpClass::FpAlu, 1));
    const Joules two =
        model_.dynamicEnergy(eventsWith(OpClass::FpAlu, 2));
    EXPECT_NEAR(two.raw(), 2.0 * one.raw(), 1e-15);
}

TEST_F(PowerModelTest, SfuCostsMoreThanIntAlu)
{
    EXPECT_GT(model_.dynamicEnergy(eventsWith(OpClass::Sfu, 1)),
              model_.dynamicEnergy(eventsWith(OpClass::IntAlu, 1)));
}

TEST_F(PowerModelTest, DivergenceReducesEnergy)
{
    const Joules full =
        model_.dynamicEnergy(eventsWith(OpClass::FpAlu, 1, 32));
    const Joules quarter =
        model_.dynamicEnergy(eventsWith(OpClass::FpAlu, 1, 8));
    EXPECT_LT(quarter, full);
    // Only the lane-dependent fraction scales.
    EXPECT_GT(quarter, full * (1.0 - model_.params().laneFraction));
}

TEST_F(PowerModelTest, FakeInstructionsCostEnergy)
{
    SmCycleEvents ev;
    ev.fakeIssued = 3;
    EXPECT_NEAR(model_.dynamicEnergy(ev).raw(),
                3.0 * model_.params().fakeEnergy.raw(), 1e-15);
}

TEST_F(PowerModelTest, LeakageDropsWhenUnitsGate)
{
    Sm sm(0, SmConfig{}, mem_);
    const Watts before = model_.leakagePower(sm, 100);
    sm.requestGate(ExecUnitKind::Sfu, 100);
    const Watts after = model_.leakagePower(sm, 101);
    EXPECT_NEAR((before - after).raw(),
                model_.params()
                    .unitLeakage[static_cast<std::size_t>(
                        ExecUnitKind::Sfu)]
                    .raw(),
                1e-12);
}

TEST_F(PowerModelTest, BaseLeakageNeverGates)
{
    Sm sm(0, SmConfig{}, mem_);
    for (int u = 0; u < numExecUnits; ++u)
        sm.requestGate(static_cast<ExecUnitKind>(u), 10);
    EXPECT_NEAR(model_.leakagePower(sm, 11).raw(),
                model_.params().baseLeakage.raw(), 1e-12);
}

TEST_F(PowerModelTest, ClockPowerOnlyWhenActiveAndClocked)
{
    Sm sm(0, SmConfig{}, mem_);
    SmCycleEvents idleUnclocked;
    idleUnclocked.active = true;
    idleUnclocked.clocked = false;
    SmCycleEvents idleClocked;
    idleClocked.active = true;
    idleClocked.clocked = true;
    const double unclocked =
        model_.cyclePower(idleUnclocked, sm, 0).raw();
    const double clocked =
        model_.cyclePower(idleClocked, sm, 0).raw();
    EXPECT_NEAR(clocked - unclocked, model_.params().clockPower.raw(),
                1e-12);
}

TEST_F(PowerModelTest, IdlePowerMatchesTheFullSumBitForBit)
{
    // For every gated-block set, the idle-power table must equal the
    // full sum an idle cycle used to take: 0 J over the period, plus
    // the clock tree if it runs, plus the ungated blocks' leakage
    // added in block order.
    const EnergyParams &p = model_.params();
    for (unsigned mask = 0; mask < (1u << numExecUnits); ++mask) {
        Sm sm(0, SmConfig{}, mem_);
        for (int u = 0; u < numExecUnits; ++u) {
            if (((mask >> u) & 1u) != 0)
                sm.requestGate(static_cast<ExecUnitKind>(u), 5);
        }
        ASSERT_EQ(sm.gatedMask(6), mask);
        Watts leak = p.baseLeakage;
        for (int u = 0; u < numExecUnits; ++u) {
            if (((mask >> u) & 1u) == 0)
                leak += p.unitLeakage[static_cast<std::size_t>(u)];
        }
        for (const bool clocked : {false, true}) {
            Watts full = Joules{} / config::clockPeriod;
            if (clocked)
                full += p.clockPower;
            full += leak;
            SmCycleEvents idle;
            idle.active = clocked;
            EXPECT_EQ(model_.idlePower(clocked, mask).raw(), full.raw());
            EXPECT_EQ(model_.cyclePower(idle, sm, 6).raw(), full.raw());
        }
        EXPECT_EQ(model_.leakagePower(sm, 6).raw(), leak.raw());
    }
}

TEST_F(PowerModelTest, CyclePowerInPlausibleRange)
{
    Sm sm(0, SmConfig{}, mem_);
    // Peak-ish cycle: two FP issues.
    const Watts peak =
        model_.cyclePower(eventsWith(OpClass::FpAlu, 2), sm, 0);
    EXPECT_GT(peak, 5.0_W);
    EXPECT_LT(peak, 20.0_W);
    EXPECT_LE(peak, model_.peakPower() + Watts{1e-9});
}

TEST_F(PowerModelTest, PeakPowerNearFermiClass)
{
    // An SM should peak in the high single digits to low teens of
    // watts (paper Table I class machine).
    EXPECT_GT(model_.peakPower(), 6.0_W);
    EXPECT_LT(model_.peakPower(), 16.0_W);
}

TEST_F(PowerModelTest, TotalIssuedHelper)
{
    SmCycleEvents ev = eventsWith(OpClass::IntAlu, 1);
    ev.issued[static_cast<std::size_t>(OpClass::Load)] = 1;
    EXPECT_EQ(ev.totalIssued(), 2);
}

} // namespace
} // namespace vsgpu
