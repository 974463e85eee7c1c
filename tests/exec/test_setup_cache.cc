/**
 * @file
 * Tests of the shared-setup cache: key discrimination, build
 * sharing, transparency (cached and uncached co-simulations are
 * bitwise identical), and concurrent access from pool workers.
 */

#include <gtest/gtest.h>

#include "exec/pool.hh"
#include "exec/setup_cache.hh"
#include "exec/sweep.hh"
#include "sim/cosim.hh"
#include "sim/pds_setup.hh"
#include "workloads/suite.hh"

namespace vsgpu::exec
{
namespace
{

CosimConfig
smallConfig(PdsKind kind)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(kind);
    cfg.maxCycles = 20000;
    return cfg;
}

WorkloadSpec
smallWorkload()
{
    return scaledToInstrs(workloadFor(Benchmark::Srad), 120);
}

TEST(PdsSetupKey, DiscriminatesElectricalFields)
{
    const CosimConfig a = smallConfig(PdsKind::VsCrossLayer);
    EXPECT_EQ(pdsSetupKey(a), pdsSetupKey(a));
    EXPECT_NE(pdsSetupKey(a),
              pdsSetupKey(smallConfig(PdsKind::ConventionalVrm)));

    CosimConfig moreIvr = a;
    moreIvr.pds.ivrAreaFraction += 0.05;
    EXPECT_NE(pdsSetupKey(a), pdsSetupKey(moreIvr));

    CosimConfig fatterGrid = a;
    fatterGrid.pdn.gridR = fatterGrid.pdn.gridR * 0.5;
    EXPECT_NE(pdsSetupKey(a), pdsSetupKey(fatterGrid));
}

TEST(PdsSetupKey, IgnoresControllerAndWorkloadFields)
{
    const CosimConfig a = smallConfig(PdsKind::VsCrossLayer);
    CosimConfig b = a;
    b.pds.controller.vThreshold = Volts{0.7};
    b.maxCycles = 99999;
    b.traceStride = 8;
    EXPECT_EQ(pdsSetupKey(a), pdsSetupKey(b));
}

TEST(SetupCache, SharesOneBuildPerKey)
{
    SetupCache cache;
    const CosimConfig cross = smallConfig(PdsKind::VsCrossLayer);
    const CosimConfig conv = smallConfig(PdsKind::ConventionalVrm);

    const auto s1 = cache.setupFor(cross);
    const auto s2 = cache.setupFor(cross);
    const auto s3 = cache.setupFor(conv);
    EXPECT_EQ(s1.get(), s2.get());
    EXPECT_NE(s1.get(), s3.get());
    EXPECT_EQ(cache.setupsBuilt(), 2);
    EXPECT_EQ(cache.setupHits(), 1);

    EXPECT_TRUE(s1->stacked);
    EXPECT_FALSE(s3->stacked);
}

TEST(SetupCache, CachedRunIsBitwiseIdenticalToUncached)
{
    const CosimConfig cfg = smallConfig(PdsKind::VsCrossLayer);
    const WorkloadSpec w = smallWorkload();

    CoSimulator plain(cfg);
    const CosimResult a = plain.run(w);

    SetupCache cache;
    CoSimulator shared(cache.withSetup(cfg));
    const CosimResult b = shared.run(w);

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    // Doubles must match to the last bit, not approximately.
    EXPECT_EQ(a.minVoltage, b.minVoltage);
    EXPECT_EQ(a.meanVoltage, b.meanVoltage);
    EXPECT_EQ(a.energy.wall, b.energy.wall);
    EXPECT_EQ(a.energy.load, b.energy.load);
    EXPECT_EQ(a.throttleRate, b.throttleRate);
}

TEST(SetupCache, MismatchedSharedSetupPanics)
{
    SetupCache cache;
    CosimConfig cross = smallConfig(PdsKind::VsCrossLayer);
    CosimConfig mismatched = cross;
    mismatched.setup =
        cache.setupFor(smallConfig(PdsKind::ConventionalVrm));
    CoSimulator sim(mismatched);
    EXPECT_DEATH(sim.run(smallWorkload()), "different electrical");
}

TEST(SetupCache, ConcurrentLookupsShareOneBuild)
{
    SetupCache cache;
    Pool pool(8);
    const CosimConfig cfg = smallConfig(PdsKind::VsCrossLayer);

    const auto setups = runIndexSweep(
        pool, 64, 0,
        [&](int, TaskContext &) { return cache.setupFor(cfg); });
    for (const auto &s : setups)
        EXPECT_EQ(s.get(), setups.front().get());
    EXPECT_EQ(cache.setupsBuilt(), 1);
    EXPECT_EQ(cache.setupHits(), 63);
}

} // namespace
} // namespace vsgpu::exec
