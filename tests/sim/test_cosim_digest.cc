/**
 * @file
 * Bit-identity guard for the co-simulation loop outside the GPU model.
 *
 * Each case runs one small co-simulation and folds every CosimResult
 * scalar, the per-SM noise box statistics, the energy breakdown, the
 * event counters, the trace samples and the deterministic time-series
 * channels into one FNV-1a digest.  The configurations are the ones
 * the golden scenarios and the benchmark digests leave unpinned:
 * a conventional VRM without remote sense, the single-layer IVR,
 * cross-layer smoothing with FII/DCC weights and a PI integral gain,
 * a two-kernel sequence, layer gating, dense tracing with telemetry,
 * and the ODDD and stuck-at detectors.  The expected digests were
 * recorded before the loop read each rail once per cycle and before
 * the box statistics moved to a radix sort, so any change to rail
 * sampling order, P->I coupling, controller arithmetic, energy
 * bookkeeping or quantile selection shows up as a mismatch.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "control/detector.hh"
#include "obs/timeseries.hh"
#include "sim/cosim.hh"
#include "workloads/suite.hh"

namespace vsgpu
{
namespace
{

/** FNV-1a over a stream of 64-bit words. */
class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h_ ^= (v >> (8 * b)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }

    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

    void
    add(const std::vector<double> &values)
    {
        add(static_cast<std::uint64_t>(values.size()));
        for (double v : values)
            add(v);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void
hashCounters(Fnv &h, const CosimCounters &c)
{
    for (std::uint64_t v :
         {c.cycles, c.instructions, c.fakeInstructions,
          c.throttledCycles, c.kernelLaunches, c.memAccesses,
          c.l1Hits, c.l2Hits, c.dramAccesses, c.timesteps,
          c.luFactorizations, c.sparseNnz, c.sparseSymbolicReuses,
          c.sparseRefactorizations, c.ctlDecisions, c.ctlTriggered,
          c.detectorTrips, c.diwsEngagements, c.fiiEngagements,
          c.dccEngagements, c.dfsTransitions, c.pgGateRequests,
          c.pgVetoSkips, c.gateEvents, c.hvFreqRemaps,
          c.hvGatingDenials})
        h.add(v);
}

std::uint64_t
digest(const CosimResult &r)
{
    Fnv h;
    h.add(static_cast<std::uint64_t>(r.cycles));
    h.add(r.instructions);
    h.add(static_cast<std::uint64_t>(r.finished));
    const EnergyBreakdown &e = r.energy;
    for (double v : {e.load, e.fake, e.pdn, e.conversion, e.crIvr,
                     e.overhead, e.wall})
        h.add(v);
    for (const BoxStats &b : r.smNoise) {
        for (double v : {b.min, b.q1, b.median, b.q3, b.max, b.mean})
            h.add(v);
        h.add(static_cast<std::uint64_t>(b.count));
    }
    h.add(r.minVoltage);
    h.add(r.meanVoltage);
    h.add(r.throttleRate);
    h.add(r.triggerRate);
    for (double v : r.imbalanceBins)
        h.add(v);
    h.add(static_cast<std::uint64_t>(r.trace.size()));
    for (const TraceSample &s : r.trace) {
        h.add(s.timeSec.raw());
        h.add(s.minSmVolts.raw());
        h.add(s.maxSmVolts.raw());
        for (double v : s.layerVolts)
            h.add(v);
    }
    hashCounters(h, r.counters);
    if (r.timeSeries) {
        const obs::TimeSeriesRun &ts = *r.timeSeries;
        h.add(ts.timeSec);
        for (std::uint64_t c : ts.cycles)
            h.add(c);
        for (const obs::TimeSeriesChannel &ch : ts.channels) {
            // Wall-clock channels are excluded from every
            // determinism contract.
            if (ch.scheduleDependent)
                continue;
            h.add(ch.min);
            h.add(ch.max);
            h.add(ch.mean);
            h.add(ch.p99);
        }
    }
    return h.value();
}

WorkloadSpec
small(Benchmark bench, int instrsPerWarp = 120)
{
    return scaledToInstrs(workloadFor(bench), instrsPerWarp);
}

CosimConfig
crossLayer()
{
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCrossLayer);
    cfg.maxCycles = 30000;
    return cfg;
}

TEST(CosimDigest, ConventionalVrmWithoutRemoteSense)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::ConventionalVrm);
    cfg.vrmRemoteSense = false;
    cfg.maxCycles = 30000;
    const CosimResult r =
        CoSimulator(cfg).run(small(Benchmark::Heartwall));
    EXPECT_EQ(digest(r), 0x9da4fdd09fa57616ull);
}

TEST(CosimDigest, SingleLayerIvr)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::SingleLayerIvr);
    cfg.maxCycles = 30000;
    const CosimResult r =
        CoSimulator(cfg).run(small(Benchmark::Backprop));
    EXPECT_EQ(digest(r), 0x370703284a8921c3ull);
}

TEST(CosimDigest, CrossLayerFiiDccAndIntegralGain)
{
    CosimConfig cfg = crossLayer();
    ControllerConfig &ctl = cfg.pds.controller;
    ctl.w2 = 0.4;
    ctl.w3 = 0.4;
    ctl.integralGainWattsPerVolt = WattsPerVolt{3.0};
    ctl.vThreshold = Volts{0.98};
    const CosimResult r =
        CoSimulator(cfg).run(small(Benchmark::Hotspot));
    // The case only guards what it exercises.
    EXPECT_GT(r.counters.fiiEngagements, 0u);
    EXPECT_GT(r.counters.dccEngagements, 0u);
    EXPECT_EQ(digest(r), 0xd2bb416870dc0d59ull);
}

TEST(CosimDigest, TwoKernelSequence)
{
    CosimConfig cfg = crossLayer();
    cfg.maxCycles = 80000;
    const CosimResult r = CoSimulator(cfg).runSequence(
        {small(Benchmark::Srad), small(Benchmark::Bfs)});
    EXPECT_TRUE(r.finished);
    EXPECT_EQ(r.counters.kernelLaunches, 2u);
    EXPECT_EQ(digest(r), 0x21bfe10f3587ed4dull);
}

TEST(CosimDigest, GatedLayer)
{
    CosimConfig cfg = crossLayer();
    cfg.gateLayerAtSec = 2.0_us;
    const CosimResult r =
        CoSimulator(cfg).run(small(Benchmark::Heartwall));
    EXPECT_EQ(digest(r), 0x3c63b4f44f675444ull);
}

TEST(CosimDigest, TraceAndTimeSeries)
{
    CosimConfig cfg = crossLayer();
    cfg.traceStride = 7;
    cfg.sampleEvery = Seconds{0.5e-6};
    const CosimResult r =
        CoSimulator(cfg).run(small(Benchmark::Pathfinder));
    ASSERT_FALSE(r.trace.empty());
    ASSERT_TRUE(r.timeSeries);
    EXPECT_EQ(digest(r), 0x62cf985a1d3ed6c5ull);
}

TEST(CosimDigest, OdddDetector)
{
    CosimConfig cfg = crossLayer();
    cfg.pds.controller.detector = detectorSpec(DetectorKind::Oddd);
    cfg.gateLayerAtSec = 2.0_us;
    const CosimResult r =
        CoSimulator(cfg).run(small(Benchmark::Hotspot));
    EXPECT_EQ(digest(r), 0x1516859557f7535cull);
}

TEST(CosimDigest, StuckAtDetector)
{
    CosimConfig cfg = crossLayer();
    cfg.pds.controller.detector.stuckAtVolts = Volts{0.8};
    const CosimResult r =
        CoSimulator(cfg).run(small(Benchmark::Heartwall));
    EXPECT_GT(r.throttleRate, 0.0);
    EXPECT_EQ(digest(r), 0xeb1bd65186752e76ull);
}

} // namespace
} // namespace vsgpu
