/**
 * @file
 * Unit tests for the integrated co-simulator: energy-accounting
 * consistency, configuration behaviour, and scenario hooks.
 */

#include <gtest/gtest.h>

#include "sim/cosim.hh"
#include "workloads/suite.hh"

namespace vsgpu
{
namespace
{

WorkloadSpec
smallBench()
{
    return scaledToInstrs(workloadFor(Benchmark::Heartwall), 500);
}

TEST(Cosim, VsRunProducesConsistentEnergy)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCrossLayer);
    cfg.maxCycles = 8000;
    CoSimulator sim(cfg);
    const CosimResult r = sim.run(smallBench());
    EXPECT_GT(r.cycles, 1000u);
    EXPECT_GT(r.instructions, 1000u);
    EXPECT_GT(r.energy.load, 0.0);
    EXPECT_GT(r.energy.wall, r.energy.load);
    const double pde = r.energy.pde();
    EXPECT_GT(pde, 0.7);
    EXPECT_LT(pde, 1.0);
    EXPECT_NEAR(r.energy.pdsLoss(), r.energy.wall - r.energy.load,
                1e-12);
}

TEST(Cosim, ConventionalAccountingAddsUp)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::ConventionalVrm);
    cfg.maxCycles = 8000;
    CoSimulator sim(cfg);
    const CosimResult r = sim.run(smallBench());
    // wall = load + pdn + conversion (+ small cap-charging residue).
    const double booked =
        r.energy.load + r.energy.pdn + r.energy.conversion;
    EXPECT_NEAR(booked / r.energy.wall, 1.0, 0.05);
    EXPECT_EQ(r.energy.crIvr, 0.0);
}

TEST(Cosim, VsBeatsConventionalPde)
{
    CosimConfig conv, vs;
    conv.pds = defaultPds(PdsKind::ConventionalVrm);
    vs.pds = defaultPds(PdsKind::VsCircuitOnly);
    conv.maxCycles = vs.maxCycles = 8000;
    const CosimResult rc = CoSimulator(conv).run(smallBench());
    const CosimResult rv = CoSimulator(vs).run(smallBench());
    EXPECT_GT(rv.energy.pde(), rc.energy.pde() + 0.05);
}

TEST(Cosim, NoiseStatsPopulated)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCircuitOnly);
    cfg.maxCycles = 5000;
    CoSimulator sim(cfg);
    const CosimResult r = sim.run(smallBench());
    for (const auto &box : r.smNoise) {
        EXPECT_GT(box.count, 0u);
        EXPECT_GT(box.median, 0.8);
        EXPECT_LT(box.median, 1.2);
    }
    EXPECT_GT(r.minVoltage, 0.0);
    EXPECT_LE(r.minVoltage, r.meanVoltage);
}

TEST(Cosim, TraceCollectsWhenEnabled)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCircuitOnly);
    cfg.maxCycles = 2000;
    cfg.traceStride = 100;
    CoSimulator sim(cfg);
    const CosimResult r = sim.run(smallBench());
    EXPECT_GE(r.trace.size(), 15u);
    for (std::size_t i = 1; i < r.trace.size(); ++i)
        EXPECT_GT(r.trace[i].timeSec, r.trace[i - 1].timeSec);
}

TEST(Cosim, TraceDisabledByDefault)
{
    CosimConfig cfg;
    cfg.maxCycles = 1000;
    CoSimulator sim(cfg);
    const CosimResult r = sim.run(smallBench());
    EXPECT_TRUE(r.trace.empty());
}

TEST(Cosim, LayerGatingScenarioDroopsOtherLayers)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCircuitOnly);
    cfg.pds.ivrAreaFraction = 0.2;
    cfg.maxCycles = 4000;
    cfg.gateLayerAtSec = 2.0_us;
    cfg.gatedLayer = 0;
    CoSimulator sim(cfg);
    const CosimResult r =
        sim.run(WorkloadFactory(uniformWorkload(6000)), 0.9);
    // The weak CR-IVR cannot hold the margin under a halted layer.
    EXPECT_LT(r.minVoltage, config::minSafeVoltage.raw());
}

TEST(Cosim, SmoothingImprovesWorstCase)
{
    CosimConfig circuitOnly;
    circuitOnly.pds = defaultPds(PdsKind::VsCircuitOnly);
    circuitOnly.pds.ivrAreaFraction = 0.2;
    circuitOnly.maxCycles = 5000;
    circuitOnly.gateLayerAtSec = 2.0_us;

    CosimConfig crossLayer = circuitOnly;
    crossLayer.pds = defaultPds(PdsKind::VsCrossLayer);
    crossLayer.gateLayerAtSec = 2.0_us;

    const CosimResult bare = CoSimulator(circuitOnly)
                                 .run(WorkloadFactory(
                                          uniformWorkload(8000)),
                                      0.9);
    const CosimResult smooth = CoSimulator(crossLayer)
                                   .run(WorkloadFactory(
                                            uniformWorkload(8000)),
                                        0.9);
    EXPECT_GT(smooth.minVoltage, bare.minVoltage + 0.03);
}

TEST(Cosim, ThrottleRateZeroWithoutSmoothing)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCircuitOnly);
    cfg.maxCycles = 3000;
    const CosimResult r = CoSimulator(cfg).run(smallBench());
    EXPECT_EQ(r.throttleRate, 0.0);
    EXPECT_EQ(r.triggerRate, 0.0);
}

TEST(Cosim, ImbalanceBinsSumToOne)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCircuitOnly);
    cfg.maxCycles = 5000;
    const CosimResult r = CoSimulator(cfg).run(smallBench());
    double sum = 0.0;
    for (double f : r.imbalanceBins)
        sum += f;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Cosim, UniformWorkloadIsMostlyBalanced)
{
    // Paper Fig. 17 takeaway: SPMD execution keeps most windows in
    // the lowest imbalance bucket.
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCircuitOnly);
    cfg.maxCycles = 8000;
    const CosimResult r =
        CoSimulator(cfg).run(WorkloadFactory(uniformWorkload(4000)),
                             0.9);
    EXPECT_GT(r.imbalanceBins[0] + r.imbalanceBins[1], 0.6);
}

TEST(Cosim, MaxCyclesCapRespected)
{
    CosimConfig cfg;
    cfg.maxCycles = 500;
    const CosimResult r =
        CoSimulator(cfg).run(workloadFor(Benchmark::Heartwall));
    EXPECT_LE(r.cycles, 500u);
    EXPECT_FALSE(r.finished);
}

TEST(Cosim, FinishedFlagSetOnDrain)
{
    CosimConfig cfg;
    cfg.maxCycles = 200000;
    const CosimResult r = CoSimulator(cfg).run(smallBench());
    EXPECT_TRUE(r.finished);
}

/** Halting a layer that does not exist would silently halt nothing. */
TEST(CosimDeath, GatedLayerOutsideTheStackPanics)
{
    CosimConfig cfg;
    cfg.maxCycles = 100;
    cfg.gateLayerAtSec = 1.0_us;
    cfg.gatedLayer = config::numLayers;
    EXPECT_DEATH(CoSimulator(cfg).run(smallBench()), "gated layer 4");
    cfg.gatedLayer = -1;
    EXPECT_DEATH(CoSimulator(cfg).run(smallBench()), "gated layer -1");
    // Without a halt time the layer index is unused.
    cfg.gateLayerAtSec = Seconds{-1.0};
    EXPECT_EQ(CoSimulator(cfg).run(smallBench()).cycles, 100u);
}

} // namespace
} // namespace vsgpu
