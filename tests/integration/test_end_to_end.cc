/**
 * @file
 * Cross-module integration tests reproducing the paper's headline
 * qualitative results end to end (small scales for test runtime).
 *
 * Independent co-simulation points run through exec::runSweep on a
 * shared pool with a shared setup cache — the same machinery the
 * scenarios use — so this suite also exercises the parallel
 * engine against real workloads.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/transient.hh"
#include "control/designer.hh"
#include "exec/pool.hh"
#include "exec/setup_cache.hh"
#include "exec/sweep.hh"
#include "hypervisor/dfs.hh"
#include "hypervisor/pg.hh"
#include "hypervisor/vs_hypervisor.hh"
#include "ivr/cr_ivr.hh"
#include "pdn/impedance.hh"
#include "sim/cosim.hh"
#include "workloads/suite.hh"

namespace vsgpu
{
namespace
{

WorkloadSpec
shortBench(Benchmark b, int instrs = 600)
{
    return scaledToInstrs(workloadFor(b), instrs);
}

/** Pool and setup cache shared by every test in the suite. */
class EndToEnd : public ::testing::Test
{
  protected:
    static exec::Pool &
    pool()
    {
        static exec::Pool p; // hardware concurrency
        return p;
    }
    static exec::SetupCache &
    cache()
    {
        static exec::SetupCache c;
        return c;
    }
};

TEST_F(EndToEnd, PdeOrderingMatchesTableIII)
{
    // VRM < IVR < VS — the central efficiency claim.
    const std::vector<PdsKind> kinds = {
        PdsKind::ConventionalVrm,
        PdsKind::SingleLayerIvr,
        PdsKind::VsCrossLayer,
    };
    const auto pde = exec::runSweep(
        pool(), kinds, 1, [](PdsKind kind, exec::TaskContext &) {
            CosimConfig cfg;
            cfg.pds = defaultPds(kind);
            cfg.maxCycles = 12000;
            return CoSimulator(cache().withSetup(cfg))
                .run(shortBench(Benchmark::Heartwall, 800))
                .energy.pde();
        });
    EXPECT_LT(pde[0], pde[1]);
    EXPECT_LT(pde[1], pde[2]);
    EXPECT_NEAR(pde[0], 0.80, 0.06);
    EXPECT_NEAR(pde[2], 0.923, 0.05);
}

TEST_F(EndToEnd, ImpedanceGuaranteeMatchesTransientOutcome)
{
    // If the impedance analysis says the 1.72x CR-IVR bounds every
    // peak under 0.1 ohm, the worst-case transient must hold the
    // 0.8 V margin; the 0.2x design violates the bound and fails.
    const std::vector<double> areaFractions = {1.72, 0.2};
    const auto worstMin = exec::runSweep(
        pool(), areaFractions, 2,
        [](double areaFraction, exec::TaskContext &) {
            CosimConfig cfg;
            cfg.pds = defaultPds(PdsKind::VsCircuitOnly);
            cfg.pds.ivrAreaFraction = areaFraction;
            cfg.maxCycles = 4500;
            cfg.gateLayerAtSec = 2.0_us;
            return CoSimulator(cache().withSetup(cfg))
                .run(WorkloadFactory(uniformWorkload(8000)), 0.9)
                .minVoltage;
        });
    EXPECT_GT(worstMin[0], config::minSafeVoltage.raw());
    EXPECT_LT(worstMin[1], config::minSafeVoltage.raw());
}

TEST_F(EndToEnd, CrossLayerRecoversWorstCaseWithSmallIvr)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCrossLayer);
    cfg.maxCycles = 6000;
    cfg.gateLayerAtSec = 2.0_us;
    cfg.traceStride = 50;
    const CosimResult r = CoSimulator(cache().withSetup(cfg))
                              .run(WorkloadFactory(
                                       uniformWorkload(12000)),
                                   0.9);
    // Steady recovery: the tail of the trace is back near the margin.
    ASSERT_GT(r.trace.size(), 20u);
    double tailMin = 1e9;
    for (std::size_t i = r.trace.size() - 10; i < r.trace.size(); ++i)
        tailMin = std::min(tailMin, r.trace[i].minSmVolts.raw());
    EXPECT_GT(tailMin, 0.78);
}

TEST_F(EndToEnd, SmoothingCostsPerformanceButSavesEnergyPath)
{
    // Paper Fig. 14: a few percent performance penalty.
    CosimConfig smooth, bare;
    smooth.pds = defaultPds(PdsKind::VsCrossLayer);
    bare.pds = defaultPds(PdsKind::VsCircuitOnly);
    bare.pds.ivrAreaFraction = 0.2;
    smooth.maxCycles = bare.maxCycles = 60000;
    const std::vector<CosimConfig> configs = {smooth, bare};
    const auto results = exec::runSweep(
        pool(), configs, 14,
        [](const CosimConfig &cfg, exec::TaskContext &) {
            return CoSimulator(cache().withSetup(cfg))
                .run(shortBench(Benchmark::Hotspot, 1200));
        });
    const CosimResult &rs = results[0];
    const CosimResult &rb = results[1];
    ASSERT_TRUE(rs.finished);
    ASSERT_TRUE(rb.finished);
    const double penalty =
        static_cast<double>(rs.cycles) /
            static_cast<double>(rb.cycles) -
        1.0;
    EXPECT_GE(penalty, -0.01);
    EXPECT_LT(penalty, 0.25);
}

TEST_F(EndToEnd, DesignerPredictsCosimStability)
{
    // A gain far beyond the designer's stability bound must produce
    // visibly worse voltage excursions than a conservative gain.
    const Farads cap{4.0 * 100e-9};
    const WattsPerVolt kMax = maxStableGain(cap, 60);
    const auto runMin = [](WattsPerVolt gain) {
        CosimConfig cfg;
        cfg.pds = defaultPds(PdsKind::VsCrossLayer);
        cfg.pds.controller.gainWattsPerVolt = gain;
        cfg.maxCycles = 15000;
        // The gain is a controller field: the shared electrical
        // setup still applies.
        return CoSimulator(cache().withSetup(cfg))
            .run(scaledToInstrs(workloadFor(Benchmark::Hotspot), 700))
            .minVoltage;
    };
    // Conservative gain behaves sanely.
    EXPECT_GT(runMin(0.4 * kMax), 0.4);
}

TEST_F(EndToEnd, HypervisorKeepsDfsImbalanceBudgeted)
{
    DfsConfig dfsCfg;
    dfsCfg.perfTarget = 0.5;
    dfsCfg.epoch = 1024;
    DfsGovernor dfs(dfsCfg);
    VsAwareHypervisor hv;

    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCrossLayer);
    cfg.maxCycles = 30000;
    CoSimulator sim(cache().withSetup(cfg));
    sim.attachDfs(&dfs);
    sim.attachHypervisor(&hv);
    const CosimResult r =
        sim.run(shortBench(Benchmark::Srad, 900));
    // The run completes and the supply stays out of collapse.
    EXPECT_GT(r.minVoltage, 0.5);
    EXPECT_GT(r.energy.pde(), 0.8);
}

TEST_F(EndToEnd, PgUnderVsCompletesAndSavesLeakage)
{
    PgConfig pgCfg;
    pgCfg.idleDetect = 12;
    PgGovernor pg(pgCfg);
    VsAwareHypervisor hv;

    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCrossLayer);
    cfg.gpu.sm.scheduler = SchedulerKind::Gates;
    cfg.maxCycles = 60000;
    CoSimulator sim(cfg);
    sim.attachPg(&pg);
    sim.attachHypervisor(&hv);
    const CosimResult gated =
        sim.run(shortBench(Benchmark::Bfs, 500));
    ASSERT_TRUE(gated.finished);

    CosimConfig noPgCfg = cfg;
    const CosimResult plain =
        CoSimulator(noPgCfg).run(shortBench(Benchmark::Bfs, 500));
    ASSERT_TRUE(plain.finished);

    // Gating a memory-bound workload reduces average load power.
    EXPECT_LT(gated.avgLoadPower(), plain.avgLoadPower() * 1.02);
}

TEST_F(EndToEnd, BackpropMoreImbalancedThanHeartwall)
{
    // Paper Fig. 17 ordering.  Both points share one electrical
    // setup, so this sweep hits the cache on the second task.
    const std::vector<Benchmark> benches = {Benchmark::Heartwall,
                                            Benchmark::Backprop};
    const auto lowBin = exec::runSweep(
        pool(), benches, 17, [](Benchmark b, exec::TaskContext &) {
            CosimConfig cfg;
            cfg.pds = defaultPds(PdsKind::VsCircuitOnly);
            cfg.maxCycles = 20000;
            const CosimResult r = CoSimulator(cache().withSetup(cfg))
                                      .run(shortBench(b, 1000));
            return r.imbalanceBins[0];
        });
    EXPECT_GT(lowBin[0], lowBin[1]);
}

TEST_F(EndToEnd, TransientMatchesAcImpedance)
{
    // Engine cross-validation: drive the voltage-stacked PDN with a
    // sinusoidal global load current and compare the settled
    // layer-voltage amplitude against the AC analyzer's |Z_G(f)| —
    // two independent code paths over the same MNA stamps.
    VsPdn pdn;
    ImpedanceAnalyzer analyzer(pdn);

    for (double freq : {10e6, 71e6}) {
        TransientSim sim(pdn.netlist(), config::clockPeriod.raw());
        const double bias = 5.0, amp = 1.0;
        for (int sm = 0; sm < pdn.numSms(); ++sm)
            sim.setCurrent(pdn.smCurrentSource(sm), bias);
        sim.initToDc();

        const int settleSteps = 6000;
        double vMin = 1e9, vMax = -1e9;
        const int totalSteps = 12000;
        for (int i = 0; i < totalSteps; ++i) {
            const double t = sim.time();
            const double load =
                bias + amp * std::sin(2.0 * M_PI * freq * t);
            for (int sm = 0; sm < pdn.numSms(); ++sm)
                sim.setCurrent(pdn.smCurrentSource(sm), load);
            sim.step();
            if (i >= settleSteps) {
                const double v = pdn.smVoltage(sim, 0).raw();
                vMin = std::min(vMin, v);
                vMax = std::max(vMax, v);
            }
        }
        const double transientAmp = (vMax - vMin) / 2.0;
        const double acAmp =
            amp * analyzer.globalImpedance(Hertz{freq}).raw();
        EXPECT_NEAR(transientAmp / acAmp, 1.0, 0.25)
            << "freq " << freq;
    }
}

TEST_F(EndToEnd, ResonantWorkloadAlternatesPowerLevels)
{
    // The resonant microbenchmark must actually produce two distinct
    // power levels (its reason to exist: exciting chosen frequencies).
    GpuConfig cfg;
    Gpu gpu(cfg);
    SmPowerModel pm;
    WorkloadFactory factory(resonantWorkload(400, 6));
    gpu.launch(factory);
    RunningStats power;
    std::vector<double> trace;
    while (!gpu.done() && gpu.cycle() < 120000) {
        gpu.step();
        const double w =
            pm.cyclePower(gpu.smEvents(0), gpu.sm(0), gpu.cycle())
                .raw();
        power.add(w);
        trace.push_back(w);
    }
    EXPECT_TRUE(gpu.done());
    // Strongly bimodal: the 90th percentile clearly above the 10th.
    const double hi = quantile(trace, 0.9);
    const double lo = quantile(trace, 0.1);
    EXPECT_GT(hi, lo + 2.0);
}

} // namespace
} // namespace vsgpu
