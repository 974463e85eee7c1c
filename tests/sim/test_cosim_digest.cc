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
 * GatedUnitsOnStallBoundKernel was recorded before stalled SMs skipped
 * the power model, next to gated and waking blocks.
 * GatesPgOnComputeKernel and StaggeredDrainWithFii were recorded
 * while anyGated() scanned every block and a drained SM still took
 * the full step and the power model.
 *
 * AllObserversArmed turns every observation path on at once.  It
 * checks that the core digest does not move, and pins what those
 * paths write (wave CSV, time-series JSON, flight-recorder dump,
 * tracer event counts per name); its constants were recorded before
 * the loop's observers moved behind one CycleObserver list.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/wave_writer.hh"
#include "control/detector.hh"
#include "obs/flight_recorder.hh"
#include "obs/profile.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
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

    void
    add(const std::string &bytes)
    {
        for (unsigned char c : bytes) {
            h_ ^= c;
            h_ *= 0x100000001b3ull;
        }
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

/** @return FNV-1a of a byte string. */
std::uint64_t
fnvBytes(const std::string &bytes)
{
    Fnv h;
    h.add(bytes);
    return h.value();
}

/** What one observed run leaves behind, hashed. */
struct ObservedRun
{
    std::uint64_t core = 0;       ///< digest without trace/series
    std::uint64_t full = 0;       ///< digest() incl. trace/series
    std::uint64_t waveCsv = 0;
    std::uint64_t seriesJson = 0;
    std::uint64_t flightJson = 0;
    std::map<std::string, std::size_t> traceEvents;
};

std::uint64_t
coreDigest(CosimResult r)
{
    r.trace.clear();
    r.timeSeries.reset();
    return digest(r);
}

/**
 * Run @p cfg once with every observer off (flight recorder
 * included) and once with every observer on at the same time:
 * TraceSample, wave capture, time series, flight recorder, every
 * tracer category, and the stage profiler.  @p run wires fresh
 * governors (so both runs start alike) and runs the workload.
 */
template <typename Run>
ObservedRun
observeAll(CosimConfig cfg, Run run)
{
    ObservedRun out;
    obs::setFlightRecorderEnabled(false);
    const std::uint64_t bare = [&] {
        CoSimulator sim(cfg);
        return coreDigest(run(sim));
    }();
    obs::setFlightRecorderEnabled(true);

    cfg.traceStride = 5;
    cfg.waveStride = 3;
    cfg.sampleEvery = Seconds{0.5e-6};
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.clear();
    tracer.enable(obs::CatAll);
    obs::setProfiling(true);
    CoSimulator sim(cfg);
    const CosimResult r = run(sim);
    obs::setProfiling(false);
    tracer.disable();

    out.core = coreDigest(r);
    EXPECT_EQ(out.core, bare) << "observers changed the run";
    out.full = digest(r);
    EXPECT_TRUE(r.profile);
    EXPECT_FALSE(r.trace.empty());
    if (r.wave) {
        std::ostringstream csv;
        r.wave->writeCsv(csv);
        out.waveCsv = fnvBytes(csv.str());
    }
    if (r.timeSeries) {
        obs::TimeSeriesDoc doc;
        doc.sampleEverySec = cfg.sampleEvery.raw();
        doc.dtSec = config::clockPeriod.raw();
        doc.windowCycles = obs::timeSeriesWindowCycles(
            doc.dtSec, doc.sampleEverySec);
        doc.runs.push_back(*r.timeSeries);
        std::ostringstream json;
        obs::writeTimeSeriesJson(doc, json);
        out.seriesJson = fnvBytes(json.str());
    }
    std::ostringstream flight;
    obs::FlightRecorder::instance().writeJson(flight);
    out.flightJson = fnvBytes(flight.str());
    for (const obs::TraceEvent &e : tracer.events())
        ++out.traceEvents[e.name];
    tracer.clear();
    return out;
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

TEST(CosimDigest, GatedUnitsOnStallBoundKernel)
{
    // Mostly idle SMs next to gated and waking blocks: the idle SM
    // power must follow each block's gating state.
    CosimConfig cfg = crossLayer();
    cfg.gpu.sm.scheduler = SchedulerKind::Gates;
    cfg.maxCycles = 60000;
    PgGovernor pg;
    VsAwareHypervisor hv;
    CoSimulator sim(cfg);
    sim.attachPg(&pg);
    sim.attachHypervisor(&hv);
    const CosimResult r = sim.run(small(Benchmark::Simpleatomic, 400));
    EXPECT_TRUE(r.finished);
    EXPECT_GT(r.counters.pgGateRequests, 0u);
    EXPECT_GT(r.counters.gateEvents, 0u);
    EXPECT_EQ(digest(r), 0xafa4c1118bce7ac3ull);
}

TEST(CosimDigest, GatesPgOnComputeKernel)
{
    // GATES issue on a compute kernel with the PG governor and the
    // VS-aware hypervisor: blocks gate, wake on demand, and the
    // hypervisor's vetoes wake some from outside the SM.
    CosimConfig cfg = crossLayer();
    cfg.gpu.sm.scheduler = SchedulerKind::Gates;
    cfg.maxCycles = 60000;
    PgGovernor pg;
    VsAwareHypervisor hv;
    CoSimulator sim(cfg);
    sim.attachPg(&pg);
    sim.attachHypervisor(&hv);
    const CosimResult r = sim.run(small(Benchmark::Srad, 400));
    EXPECT_TRUE(r.finished);
    EXPECT_GT(r.counters.gateEvents, 0u);
    EXPECT_GT(r.counters.hvGatingDenials, 0u);
    EXPECT_EQ(digest(r), 0x74b87c54febf835dull);
}

TEST(CosimDigest, StaggeredDrainWithFii)
{
    // An irregular kernel whose SMs drain at different cycles, with
    // the controller injecting fake instructions and the PG governor
    // leaving blocks gated on SMs as they drain.
    CosimConfig cfg = crossLayer();
    ControllerConfig &ctl = cfg.pds.controller;
    ctl.w2 = 0.5;
    ctl.vThreshold = Volts{0.99};
    cfg.maxCycles = 60000;
    PgGovernor pg;
    CoSimulator sim(cfg);
    sim.attachPg(&pg);
    const CosimResult r = sim.run(small(Benchmark::Bfs, 300));
    EXPECT_TRUE(r.finished);
    EXPECT_GT(r.counters.fiiEngagements, 0u);
    EXPECT_GT(r.counters.gateEvents, 0u);
    EXPECT_EQ(digest(r), 0x1b987389a850aeebull);
}

/** Every observation path armed at once must leave the run's
 *  results untouched, and its own outputs must not move either. */
TEST(CosimDigest, AllObserversArmed)
{
    const auto governed = [](Benchmark bench, int instrs) {
        return [=](CoSimulator &sim) {
            DfsConfig dfsCfg;
            dfsCfg.perfTarget = 0.5;
            dfsCfg.epoch = 1024;
            DfsGovernor dfs(dfsCfg);
            PgGovernor pg;
            VsAwareHypervisor hv;
            sim.attachDfs(&dfs);
            sim.attachPg(&pg);
            sim.attachHypervisor(&hv);
            return sim.run(small(bench, instrs));
        };
    };

    CosimConfig cross = crossLayer();
    cross.gpu.sm.scheduler = SchedulerKind::Gates;
    cross.pds.controller.vThreshold = Volts{0.98};
    const ObservedRun vs =
        observeAll(cross, governed(Benchmark::Srad, 400));
    EXPECT_EQ(vs.full, 0x4227e352504d8c92ull);
    EXPECT_EQ(vs.waveCsv, 0xa83c253be93bccedull);
    EXPECT_EQ(vs.seriesJson, 0x5fb5cdef0b793543ull);
    EXPECT_EQ(vs.flightJson, 0x0910bd7e0660f1edull);
    const std::map<std::string, std::size_t> vsEvents{
        {"cosim.kernel", 1},         {"cosim.run", 1},
        {"cosim.setup", 1},          {"cosim.transient_chunk", 2},
        {"ctl.trigger", 12},         {"dfs.transition", 3},
        {"hv.gating_denial", 56},    {"pds.dc_solve", 1},
        {"pds.symbolic", 1}};
    EXPECT_EQ(vs.traceEvents, vsEvents);

    CosimConfig vrm;
    vrm.pds = defaultPds(PdsKind::ConventionalVrm);
    vrm.vrmRemoteSense = true;
    vrm.maxCycles = 30000;
    const ObservedRun single =
        observeAll(vrm, governed(Benchmark::Hotspot, 300));
    EXPECT_EQ(single.full, 0xa0ae82714abce097ull);
    EXPECT_EQ(single.waveCsv, 0x0fdbd31f39fb134full);
    EXPECT_EQ(single.seriesJson, 0x349705bb8f933680ull);
    EXPECT_EQ(single.flightJson, 0xb8a94e7e6b25e37full);
    const std::map<std::string, std::size_t> singleEvents{
        {"cosim.kernel", 1},      {"cosim.run", 1},
        {"cosim.setup", 1},       {"cosim.transient_chunk", 2},
        {"dfs.transition", 8},    {"pds.dc_solve", 1},
        {"pds.symbolic", 1}};
    EXPECT_EQ(single.traceEvents, singleEvents);

    // Kernel boundaries: per-kernel spans, chunks and launch records.
    CosimConfig seq = crossLayer();
    seq.maxCycles = 80000;
    const ObservedRun twoKernels =
        observeAll(seq, [](CoSimulator &sim) {
            return sim.runSequence(
                {small(Benchmark::Srad), small(Benchmark::Bfs)});
        });
    EXPECT_EQ(twoKernels.full, 0xebdb073e1bbca41aull);
    EXPECT_EQ(twoKernels.waveCsv, 0x33b022a6f99ecb1dull);
    EXPECT_EQ(twoKernels.seriesJson, 0x62c290e9d468f2c5ull);
    EXPECT_EQ(twoKernels.flightJson, 0x089e9787d2d0e884ull);
    const std::map<std::string, std::size_t> twoKernelEvents{
        {"cosim.kernel", 2},      {"cosim.run", 1},
        {"cosim.setup", 1},       {"cosim.transient_chunk", 3},
        {"ctl.trigger", 46},      {"pds.dc_solve", 1},
        {"pds.symbolic", 1}};
    EXPECT_EQ(twoKernels.traceEvents, twoKernelEvents);
}

} // namespace
} // namespace vsgpu
