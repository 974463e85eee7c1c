/**
 * @file
 * Bit-identity guard for the SM issue path.
 *
 * Each case runs the 16-SM GPU on a suite workload to completion and
 * folds every per-cycle SmCycleEvents of every SM, then the final
 * SmStats, execution-block wake counts and memory-system counters,
 * into one FNV-1a digest.  The expected digests were recorded from the
 * straightforward full-scan scheduler, so any change to issue order,
 * scoreboard timing, barrier release, DIWS/FII accounting, demand
 * wake-ups or DFS clock masking shows up as a digest mismatch.
 * ActuatorsToggledMidStall was recorded before stalled SMs skipped
 * their step, so it pins that shortcut against the full step.
 * PgGovernorGatesAndWakes and StaggeredDrainWithFii also fold each
 * SM's anyGated() after every step; they were recorded while
 * anyGated() scanned every block, GATES classified each ready warp
 * by scanning it, and a drained SM still took the full step.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "gpu/gpu.hh"
#include "hypervisor/pg.hh"
#include "workloads/generator.hh"
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

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void
hashEvents(Fnv &h, const SmCycleEvents &ev)
{
    for (int v : ev.issued)
        h.add(static_cast<std::uint64_t>(v));
    h.add(static_cast<std::uint64_t>(ev.fakeIssued));
    h.add(static_cast<std::uint64_t>(ev.lanesActive));
    h.add(static_cast<std::uint64_t>(ev.wakeEvents));
    h.add(static_cast<std::uint64_t>(ev.active));
    h.add(static_cast<std::uint64_t>(ev.clocked));
}

void
hashFinal(Fnv &h, const Gpu &gpu)
{
    h.add(static_cast<std::uint64_t>(gpu.cycle()));
    for (int i = 0; i < gpu.numSMs(); ++i) {
        const Sm &sm = gpu.sm(i);
        const SmStats s = sm.stats();
        h.add(s.cycles);
        h.add(s.retired);
        h.add(s.fakeIssued);
        h.add(s.throttledCycles);
        for (auto v : s.issuedByClass)
            h.add(v);
        for (auto v : s.unitBusyCycles)
            h.add(static_cast<std::uint64_t>(v));
        for (auto v : s.gateEvents)
            h.add(v);
        h.add(s.avgIssueRate);
        for (int u = 0; u < numExecUnits; ++u)
            h.add(sm.unit(static_cast<ExecUnitKind>(u)).wakeEvents());
    }
    const MemorySystem &mem = gpu.memory();
    h.add(mem.accesses());
    h.add(mem.l1Hits());
    h.add(mem.l2Hits());
    h.add(mem.dramAccesses());
    h.add(mem.avgDramQueueing());
}

/** Per-cycle hook run before each Gpu::step (actuation schedule). */
using Actuate = std::function<void(Gpu &, Cycle)>;

/** Digest of one run plus counters showing what the run exercised. */
struct DigestRun
{
    std::uint64_t digest = 0;
    std::uint64_t wakeEvents = 0;
    std::uint64_t throttledCycles = 0;
    std::uint64_t fakeIssued = 0;
};

/** Run @p spec to completion; with @p hashGating, each SM's
 *  anyGated() at the stepped cycle joins the digest. */
DigestRun
runDigest(const WorkloadSpec &spec, const GpuConfig &cfg,
          const Actuate &actuate = {}, bool hashGating = false)
{
    Gpu gpu(cfg);
    gpu.memory().setL1HitRate(spec.l1HitRate);
    WorkloadFactory factory(spec);
    gpu.launch(factory);
    Fnv h;
    while (!gpu.done() && gpu.cycle() < 400000) {
        if (actuate)
            actuate(gpu, gpu.cycle());
        const Cycle now = gpu.cycle();
        gpu.step();
        for (int i = 0; i < gpu.numSMs(); ++i) {
            hashEvents(h, gpu.smEvents(i));
            if (hashGating)
                h.add(static_cast<std::uint64_t>(
                    gpu.sm(i).anyGated(now)));
        }
    }
    EXPECT_TRUE(gpu.done());
    hashFinal(h, gpu);
    DigestRun run;
    run.digest = h.value();
    for (int i = 0; i < gpu.numSMs(); ++i) {
        const Sm &sm = gpu.sm(i);
        for (int u = 0; u < numExecUnits; ++u)
            run.wakeEvents +=
                sm.unit(static_cast<ExecUnitKind>(u)).wakeEvents();
        run.throttledCycles += sm.throttledCycles();
        run.fakeIssued += sm.fakeIssuedTotal();
    }
    return run;
}

WorkloadSpec
small(Benchmark bench, int instrsPerWarp)
{
    return scaledToInstrs(workloadFor(bench), instrsPerWarp);
}

TEST(SmEventDigest, HotspotGto)
{
    const DigestRun run =
        runDigest(small(Benchmark::Hotspot, 1200), GpuConfig{});
    EXPECT_EQ(run.digest, 0x74c99129563fbdccull);
}

TEST(SmEventDigest, PathfinderBarriers)
{
    const DigestRun run =
        runDigest(small(Benchmark::Pathfinder, 1100), GpuConfig{});
    EXPECT_EQ(run.digest, 0x3a01bd36190e9041ull);
}

TEST(SmEventDigest, SimpleatomicFullOccupancy)
{
    WorkloadSpec spec = small(Benchmark::Simpleatomic, 400);
    spec.warpsPerSm = config::warpsPerSM;
    const DigestRun run = runDigest(spec, GpuConfig{});
    EXPECT_EQ(run.digest, 0xe1500a42320ec521ull);
}

TEST(SmEventDigest, GatesWithDemandWakeups)
{
    // Gate a rotating pair of blocks on every SM every 40 cycles, so
    // warps keep finding their block gated and wake it on demand.
    GpuConfig cfg;
    cfg.sm.scheduler = SchedulerKind::Gates;
    const Actuate gateSchedule = [](Gpu &gpu, Cycle now) {
        if (now % 40 != 0)
            return;
        for (int i = 0; i < gpu.numSMs(); ++i) {
            const auto k = static_cast<int>(
                (now / 40 + static_cast<Cycle>(i)) % numExecUnits);
            gpu.sm(i).requestGate(static_cast<ExecUnitKind>(k), now);
            gpu.sm(i).requestGate(
                static_cast<ExecUnitKind>((k + 2) % numExecUnits), now);
        }
    };
    const DigestRun run =
        runDigest(small(Benchmark::Srad, 900), cfg, gateSchedule);
    EXPECT_GT(run.wakeEvents, 0u);
    EXPECT_EQ(run.digest, 0xc44da7a93ff1f4d3ull);
}

TEST(SmEventDigest, FractionalDiwsWithFii)
{
    const Actuate throttle = [](Gpu &gpu, Cycle now) {
        if (now != 0)
            return;
        for (int i = 0; i < gpu.numSMs(); ++i) {
            gpu.sm(i).setIssueWidthLimit(0.7);
            gpu.sm(i).setFakeInjectRate(0.5);
        }
    };
    const DigestRun run =
        runDigest(small(Benchmark::Hotspot, 600), GpuConfig{}, throttle);
    EXPECT_GT(run.throttledCycles, 0u);
    EXPECT_GT(run.fakeIssued, 0u);
    EXPECT_EQ(run.digest, 0xa35ad41c138eb2f6ull);
}

TEST(SmEventDigest, ActuatorsToggledMidStall)
{
    // A stall-bound kernel whose SMs get FII and a fractional DIWS
    // limit while every warp waits on memory, then lose them again:
    // fake issue must start inside the stall, and the token bucket
    // must keep filling through it at whatever limit is set.
    const Actuate toggle = [](Gpu &gpu, Cycle now) {
        for (int i = 0; i < gpu.numSMs(); ++i) {
            Sm &sm = gpu.sm(i);
            const SmCycleEvents &last = gpu.smEvents(i);
            const bool stalled = last.active && last.totalIssued() == 0;
            const Cycle phase = (now + 37 * static_cast<Cycle>(i)) % 300;
            if (phase < 40 && stalled && sm.fakeInjectRate() == 0.0) {
                sm.setFakeInjectRate(0.4);
                sm.setIssueWidthLimit(0.3);
            } else if (phase == 60) {
                sm.setFakeInjectRate(0.0);
            } else if (phase == 200) {
                sm.setIssueWidthLimit(config::maxIssueWidth);
            }
        }
    };
    const DigestRun run = runDigest(small(Benchmark::Simpleatomic, 1000),
                                    GpuConfig{}, toggle);
    EXPECT_GT(run.throttledCycles, 0u);
    EXPECT_GT(run.fakeIssued, 0u);
    EXPECT_EQ(run.digest, 0xcd48a8c74eb410e7ull);
}

TEST(SmEventDigest, DfsClockMasking)
{
    const Actuate dfs = [](Gpu &gpu, Cycle now) {
        if (now % 500 != 0)
            return;
        for (int i = 0; i < gpu.numSMs(); ++i) {
            const auto step = (now / 500 + static_cast<Cycle>(i)) % 7;
            gpu.setSmFrequencyFraction(
                i, 0.4 + 0.1 * static_cast<double>(step));
        }
    };
    const DigestRun run =
        runDigest(small(Benchmark::Backprop, 700), GpuConfig{}, dfs);
    EXPECT_EQ(run.digest, 0xe27ed03a8b90646aull);
}

TEST(SmEventDigest, PgGovernorGatesAndWakes)
{
    // GATES issue under the idle-driven PgGovernor: blocks gate when
    // idle and warps wake them on demand.  Every 96 cycles half the
    // SMs also have their gated blocks woken from outside the SM, by
    // ExecUnit::ungate, the way a gating veto does.
    GpuConfig cfg;
    cfg.sm.scheduler = SchedulerKind::Gates;
    PgGovernor pg;
    std::uint64_t vetoWakes = 0;
    const Cycle wake = cfg.sm.pgWakeLatency;
    const Actuate govern = [&](Gpu &gpu, Cycle now) {
        if (now % 96 == 48) {
            for (int i = static_cast<int>((now / 96) % 2);
                 i < gpu.numSMs(); i += 2) {
                for (int u = 0; u < numExecUnits; ++u) {
                    ExecUnit &unit =
                        gpu.sm(i).unit(static_cast<ExecUnitKind>(u));
                    if (unit.gated(now) && unit.gateRequested()) {
                        unit.ungate(now, wake);
                        ++vetoWakes;
                    }
                }
            }
        }
        pg.step(gpu, now);
    };
    const DigestRun run = runDigest(small(Benchmark::Srad, 900), cfg,
                                    govern, true);
    EXPECT_GT(pg.gateRequests(), 0u);
    EXPECT_GT(vetoWakes, 0u);
    EXPECT_GT(run.wakeEvents, vetoWakes);
    EXPECT_EQ(run.digest, 0x18a0257e7d30cc20ull);
}

TEST(SmEventDigest, StaggeredDrainWithFii)
{
    // FII on every SM and a different DIWS limit per SM, so the SMs
    // drain hundreds of cycles apart and the early ones sit drained
    // with injection still armed.  Blocks gated just before an SM
    // drains stay gated on the drained SM.
    PgGovernor pg;
    std::vector<Cycle> drainedAt; // the hook never sees the last SM
    std::vector<bool> seen(static_cast<std::size_t>(config::numSMs));
    const Actuate throttle = [&](Gpu &gpu, Cycle now) {
        for (int i = 0; i < gpu.numSMs(); ++i) {
            if (!seen[static_cast<std::size_t>(i)] && gpu.sm(i).done()) {
                seen[static_cast<std::size_t>(i)] = true;
                drainedAt.push_back(now);
            }
        }
        if (now == 0) {
            for (int i = 0; i < gpu.numSMs(); ++i) {
                gpu.sm(i).setIssueWidthLimit(
                    0.4 + 0.1 * static_cast<double>(i % 8));
                gpu.sm(i).setFakeInjectRate(0.6);
            }
        }
        pg.step(gpu, now);
    };
    const DigestRun run = runDigest(small(Benchmark::Hotspot, 500),
                                    GpuConfig{}, throttle, true);
    ASSERT_GE(drainedAt.size(), 8u);
    EXPECT_GT(drainedAt.back() - drainedAt.front(), 200u);
    EXPECT_GT(run.fakeIssued, 0u);
    EXPECT_GT(pg.gateRequests(), 0u);
    EXPECT_EQ(run.digest, 0x3bf0ae10b7038c0bull);
}

} // namespace
} // namespace vsgpu
