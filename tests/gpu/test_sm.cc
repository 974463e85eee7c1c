/**
 * @file
 * Unit tests for the SM pipeline: issue, scheduling, barriers,
 * DIWS/FII actuation, and power gating interplay.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "gpu/sm.hh"

namespace vsgpu
{
namespace
{

WarpInstr
alu(std::uint8_t dest = noReg, std::uint8_t src = noReg)
{
    WarpInstr i;
    i.op = OpClass::IntAlu;
    i.dest = dest;
    i.src0 = src;
    return i;
}

WarpInstr
sync()
{
    WarpInstr i;
    i.op = OpClass::Sync;
    i.dest = noReg;
    return i;
}

/** Factory producing the same fixed trace for every warp. */
class FixedFactory : public ProgramFactory
{
  public:
    FixedFactory(std::vector<WarpInstr> instrs, int warps)
        : instrs_(std::move(instrs)), warps_(warps)
    {
    }

    int warpsPerSm() const override { return warps_; }

    std::unique_ptr<WarpProgram>
    makeProgram(int, int) const override
    {
        return std::make_unique<TraceProgram>(instrs_);
    }

  private:
    std::vector<WarpInstr> instrs_;
    int warps_;
};

/** Factory giving each warp slot its own trace. */
class PerWarpFactory : public ProgramFactory
{
  public:
    explicit PerWarpFactory(std::vector<std::vector<WarpInstr>> traces)
        : traces_(std::move(traces))
    {
    }

    int
    warpsPerSm() const override
    {
        return static_cast<int>(traces_.size());
    }

    std::unique_ptr<WarpProgram>
    makeProgram(int, int warp) const override
    {
        return std::make_unique<TraceProgram>(
            traces_[static_cast<std::size_t>(warp)]);
    }

  private:
    std::vector<std::vector<WarpInstr>> traces_;
};

/** Run an SM until drained; @return cycles taken. */
Cycle
drain(Sm &sm, Cycle limit = 100000)
{
    Cycle now = 0;
    while (!sm.done() && now < limit) {
        sm.step(now);
        ++now;
    }
    return now;
}

TEST(SmTest, DrainsIndependentWork)
{
    MemorySystem mem;
    Sm sm(0, SmConfig{}, mem);
    FixedFactory factory(std::vector<WarpInstr>(20, alu()), 4);
    sm.launch(factory);
    EXPECT_FALSE(sm.done());
    const Cycle cycles = drain(sm);
    EXPECT_TRUE(sm.done());
    EXPECT_EQ(sm.retired(), 80u);
    // 80 instructions at up to 2/cycle on 2 SP pipes.
    EXPECT_GE(cycles, 40u);
    EXPECT_LE(cycles, 120u);
}

TEST(SmTest, DualIssueSustainsTwoPerCycle)
{
    MemorySystem mem;
    Sm sm(0, SmConfig{}, mem);
    FixedFactory factory(std::vector<WarpInstr>(100, alu()), 8);
    sm.launch(factory);
    drain(sm);
    EXPECT_GT(sm.avgIssueRate(), 1.5);
}

TEST(SmTest, DependenceChainSerializes)
{
    // Every instruction depends on the previous one: issue rate is
    // bounded by the ALU latency.
    std::vector<WarpInstr> chain;
    for (int i = 0; i < 50; ++i)
        chain.push_back(alu(static_cast<std::uint8_t>(10 + (i % 2)),
                            static_cast<std::uint8_t>(
                                i == 0 ? noReg : 10 + ((i - 1) % 2))));
    MemorySystem mem;
    Sm sm(0, SmConfig{}, mem);
    FixedFactory factory(chain, 1);
    sm.launch(factory);
    const Cycle cycles = drain(sm);
    // ~latency per instruction for a single serialized warp.
    EXPECT_GT(cycles, 49u * 10u);
}

TEST(SmTest, BarrierSynchronizesWarps)
{
    // Two warps: one short prefix, one long prefix, then a barrier,
    // then work.  All warps must finish; retired counts the syncs.
    std::vector<WarpInstr> prog;
    for (int i = 0; i < 10; ++i)
        prog.push_back(alu());
    prog.push_back(sync());
    for (int i = 0; i < 5; ++i)
        prog.push_back(alu());
    MemorySystem mem;
    Sm sm(0, SmConfig{}, mem);
    FixedFactory factory(prog, 6);
    sm.launch(factory);
    drain(sm);
    EXPECT_TRUE(sm.done());
    EXPECT_EQ(sm.retired(), 6u * 16u);
}

TEST(SmTest, BarrierOnlyProgramCompletes)
{
    MemorySystem mem;
    Sm sm(0, SmConfig{}, mem);
    FixedFactory factory({sync(), sync()}, 3);
    sm.launch(factory);
    const Cycle cycles = drain(sm, 1000);
    EXPECT_TRUE(sm.done()) << "deadlock after " << cycles;
}

TEST(SmTest, WarpEndingAtBarrierRetiresOnTheNextStep)
{
    // Both warps issue their ALU op on cycle 0; warp 0 reaches the
    // barrier on cycle 0 and warp 1 on cycle 1, which releases it.
    // The released warps fetch (and find their programs ended) at the
    // start of the following step, so the SM drains on cycle 2.
    MemorySystem mem;
    Sm sm(0, SmConfig{}, mem);
    FixedFactory factory({alu(), sync()}, 2);
    sm.launch(factory);

    sm.step(0);
    EXPECT_EQ(sm.retired(), 2u);
    EXPECT_EQ(sm.activeWarps(), 2);
    sm.step(1);
    EXPECT_EQ(sm.retired(), 4u);
    EXPECT_EQ(sm.activeWarps(), 2);
    EXPECT_FALSE(sm.done());
    EXPECT_TRUE(sm.step(2).active);
    EXPECT_EQ(sm.activeWarps(), 0);
    EXPECT_TRUE(sm.done());
    EXPECT_FALSE(sm.step(3).active);
}

TEST(SmTest, DiwsReducesIssueRate)
{
    MemorySystem mem;
    Sm full(0, SmConfig{}, mem), half(1, SmConfig{}, mem);
    FixedFactory factory(std::vector<WarpInstr>(200, alu()), 8);
    full.launch(factory);
    half.launch(factory);
    half.setIssueWidthLimit(0.5);
    const Cycle fullCycles = drain(full);
    const Cycle halfCycles = drain(half);
    EXPECT_GT(halfCycles, 2 * fullCycles);
    EXPECT_GT(half.throttledCycles(), 0u);
    EXPECT_LE(half.avgIssueRate(), 0.55);
}

TEST(SmTest, DiwsZeroStallsCompletely)
{
    MemorySystem mem;
    Sm sm(0, SmConfig{}, mem);
    FixedFactory factory(std::vector<WarpInstr>(10, alu()), 2);
    sm.launch(factory);
    sm.setIssueWidthLimit(0.0);
    for (Cycle now = 0; now < 100; ++now)
        sm.step(now);
    EXPECT_FALSE(sm.done());
    EXPECT_EQ(sm.retired(), 0u);
    // Restore and drain.
    sm.setIssueWidthLimit(2.0);
    Cycle now = 100;
    while (!sm.done() && now < 1000)
        sm.step(now++);
    EXPECT_TRUE(sm.done());
}

TEST(SmTest, FractionalDiwsAveragesOut)
{
    MemorySystem mem;
    Sm sm(0, SmConfig{}, mem);
    FixedFactory factory(std::vector<WarpInstr>(1700, alu()), 8);
    sm.launch(factory);
    sm.setIssueWidthLimit(1.7);
    drain(sm);
    // Token-bucket averaging with warp-drain tail effects.
    EXPECT_GT(sm.avgIssueRate(), 1.45);
    EXPECT_LT(sm.avgIssueRate(), 1.85);
}

TEST(SmTest, FiiFillsIdleSlots)
{
    MemorySystem mem;
    Sm sm(0, SmConfig{}, mem);
    // Single slow serialized warp leaves issue slack for fakes.
    std::vector<WarpInstr> chain;
    for (int i = 0; i < 30; ++i)
        chain.push_back(alu(10, 10));
    FixedFactory factory(chain, 1);
    sm.launch(factory);
    sm.setFakeInjectRate(1.0);
    drain(sm);
    EXPECT_GT(sm.fakeIssuedTotal(), 100u);
}

TEST(SmTest, FiiDisabledInjectsNothing)
{
    MemorySystem mem;
    Sm sm(0, SmConfig{}, mem);
    FixedFactory factory(std::vector<WarpInstr>(50, alu()), 2);
    sm.launch(factory);
    drain(sm);
    EXPECT_EQ(sm.fakeIssuedTotal(), 0u);
}

TEST(SmTest, EventsReportIssuedClasses)
{
    MemorySystem mem;
    Sm sm(0, SmConfig{}, mem);
    WarpInstr sfu;
    sfu.op = OpClass::Sfu;
    FixedFactory factory({alu(), sfu}, 1);
    sm.launch(factory);
    int sfuSeen = 0, aluSeen = 0;
    for (Cycle now = 0; now < 50 && !sm.done(); ++now) {
        const auto &ev = sm.step(now);
        aluSeen += ev.issued[static_cast<int>(OpClass::IntAlu)];
        sfuSeen += ev.issued[static_cast<int>(OpClass::Sfu)];
    }
    EXPECT_EQ(aluSeen, 1);
    EXPECT_EQ(sfuSeen, 1);
}

TEST(SmTest, GatedUnitWakesOnDemand)
{
    MemorySystem mem;
    SmConfig cfg;
    cfg.pgWakeLatency = 10;
    cfg.pgBlackout = 5;
    Sm sm(0, cfg, mem);
    WarpInstr sfu;
    sfu.op = OpClass::Sfu;
    FixedFactory factory({sfu}, 1);
    sm.launch(factory);
    sm.requestGate(ExecUnitKind::Sfu, 0);
    EXPECT_TRUE(sm.unit(ExecUnitKind::Sfu).gated(0));
    Cycle now = 0;
    while (!sm.done() && now < 200)
        sm.step(now++);
    EXPECT_TRUE(sm.done());
    EXPECT_EQ(sm.unit(ExecUnitKind::Sfu).wakeEvents(), 1u);
    // The wake penalty delays completion past the latency alone.
    EXPECT_GE(now, cfg.pgWakeLatency);
}

TEST(SmTest, GatesSchedulerStillDrains)
{
    MemorySystem mem;
    SmConfig cfg;
    cfg.scheduler = SchedulerKind::Gates;
    Sm sm(0, cfg, mem);
    WarpInstr load;
    load.op = OpClass::Load;
    load.dest = 12;
    FixedFactory factory({alu(), load, alu(), sync(), alu()}, 8);
    sm.launch(factory);
    drain(sm);
    EXPECT_TRUE(sm.done());
    EXPECT_EQ(sm.retired(), 8u * 5u);
}

TEST(SmTest, RelaunchResetsState)
{
    MemorySystem mem;
    Sm sm(0, SmConfig{}, mem);
    FixedFactory factory(std::vector<WarpInstr>(10, alu()), 2);
    sm.launch(factory);
    drain(sm);
    const auto firstRetired = sm.retired();
    sm.launch(factory, 0);
    EXPECT_FALSE(sm.done());
    drain(sm);
    EXPECT_EQ(sm.retired(), firstRetired + 20u);
}

TEST(SmTest, DrainedSmSleepsButCountsCycles)
{
    MemorySystem mem;
    Sm sm(0, SmConfig{}, mem);
    sm.setFakeInjectRate(1.0); // a drained SM injects nothing
    FixedFactory factory(std::vector<WarpInstr>(10, alu()), 2);
    sm.launch(factory);
    Cycle now = 0;
    while (!sm.done())
        sm.step(now++);
    const std::uint64_t fakeAtDrain = sm.fakeIssuedTotal();
    for (int i = 0; i < 50; ++i) {
        const SmCycleEvents &ev = sm.step(now++);
        EXPECT_EQ(&ev, &Sm::drainedCycle);
    }
    EXPECT_FALSE(Sm::drainedCycle.active);
    EXPECT_TRUE(Sm::drainedCycle.clocked);
    EXPECT_EQ(Sm::drainedCycle.totalIssued(), 0);
    EXPECT_EQ(sm.stats().cycles, now);
    EXPECT_EQ(sm.fakeIssuedTotal(), fakeAtDrain);
    EXPECT_EQ(sm.retired(), 20u);
}

TEST(SmTest, AnyGatedFollowsGateAndWake)
{
    MemorySystem mem;
    SmConfig cfg;
    cfg.pgBlackout = 5;
    Sm sm(0, cfg, mem);
    FixedFactory factory(std::vector<WarpInstr>(10, alu()), 1);
    sm.launch(factory);
    EXPECT_FALSE(sm.anyGated(0));
    sm.requestGate(ExecUnitKind::Sfu, 2);
    EXPECT_TRUE(sm.anyGated(2));
    EXPECT_TRUE(sm.anyGated(1000));
    // Woken through the SM: gated until the wake-up ends.
    const Cycle usable = sm.wake(ExecUnitKind::Sfu, 3, 4);
    EXPECT_EQ(usable, 7u + 4u); // the blackout ends at 7
    EXPECT_TRUE(sm.anyGated(usable - 1));
    EXPECT_FALSE(sm.anyGated(usable));
    // Woken through the block directly: still exact.
    sm.requestGate(ExecUnitKind::Lsu, 20);
    EXPECT_TRUE(sm.anyGated(30));
    sm.unit(ExecUnitKind::Lsu).ungate(30, 2);
    EXPECT_TRUE(sm.anyGated(31));
    EXPECT_FALSE(sm.anyGated(32));
}

TEST(SmDeath, LaunchRejectsBadWarpCounts)
{
    setLogQuiet(true);
    MemorySystem mem;
    Sm sm(0, SmConfig{}, mem);
    FixedFactory tooMany({alu()}, config::warpsPerSM + 1);
    EXPECT_DEATH(sm.launch(tooMany), "");
}

TEST(SmScheduler, GtoIsGreedyOnTheSameWarp)
{
    // With independent work in every warp, GTO keeps draining the
    // warp it last issued from before rotating: warp 0 finishes
    // markedly earlier than warp N-1.
    MemorySystem mem;
    Sm sm(0, SmConfig{}, mem);
    FixedFactory factory(std::vector<WarpInstr>(60, alu()), 6);
    sm.launch(factory);
    Cycle now = 0;
    int warpsAliveWhenFirstFinished = -1;
    int lastActive = sm.activeWarps();
    while (!sm.done() && now < 10000) {
        sm.step(now++);
        if (sm.activeWarps() < lastActive &&
            warpsAliveWhenFirstFinished < 0) {
            warpsAliveWhenFirstFinished = sm.activeWarps();
        }
        lastActive = sm.activeWarps();
    }
    // The first warp completed while most others still had work —
    // round-robin would drain them all nearly simultaneously.
    EXPECT_GE(warpsAliveWhenFirstFinished, 4);
}

TEST(SmScheduler, GatesPrefersUngatedUnits)
{
    // Two warps: one with SFU work (gated unit), one with ALU work.
    // The GATES scheduler issues the ALU warp while the SFU stays
    // gated, waking the SFU only when nothing else remains.
    MemorySystem mem;
    SmConfig cfg;
    cfg.scheduler = SchedulerKind::Gates;
    cfg.pgWakeLatency = 5;
    cfg.pgBlackout = 5;
    Sm sm(0, cfg, mem);

    WarpInstr sfu;
    sfu.op = OpClass::Sfu;
    struct TwoWarpFactory : ProgramFactory
    {
        WarpInstr sfuInstr;
        int warpsPerSm() const override { return 2; }
        std::unique_ptr<WarpProgram>
        makeProgram(int, int warp) const override
        {
            if (warp == 0)
                return std::make_unique<TraceProgram>(
                    std::vector<WarpInstr>(4, sfuInstr));
            return std::make_unique<TraceProgram>(
                std::vector<WarpInstr>(40, WarpInstr{}));
        }
    } factory;
    factory.sfuInstr = sfu;

    sm.launch(factory);
    sm.requestGate(ExecUnitKind::Sfu, 0);
    Cycle now = 0;
    while (!sm.done() && now < 2000)
        sm.step(now++);
    EXPECT_TRUE(sm.done());
    // The SFU warp eventually ran (demand wake), at most two wakes.
    EXPECT_GE(sm.unit(ExecUnitKind::Sfu).wakeEvents(), 1u);
}

TEST(SmScheduler, ThrottledCyclesOnlyChargedWithReadyWork)
{
    // An SM waiting purely on memory must not count DIWS throttling.
    MemorySystem mem;
    Sm sm(0, SmConfig{}, mem);
    WarpInstr load;
    load.op = OpClass::Load;
    load.dest = 10;
    load.l1Hit = false;
    load.l2Hit = false;
    WarpInstr use = alu(11, 10);
    FixedFactory factory({load, use}, 1);
    sm.launch(factory);
    sm.setIssueWidthLimit(0.9);
    drain(sm);
    // The single warp spends nearly all its time blocked on DRAM;
    // throttle accounting must reflect that (few chargeable cycles).
    EXPECT_LT(sm.throttledCycles(), 10u);
}

TEST(SmScheduler, GreedyWarpIsRecheckedForThrottleCharge)
{
    // At a 1.0 limit each cycle has one token, so after the greedy
    // warp issues, DIWS withholds the second slot.  The cycle is
    // charged only if the warp's freshly fetched instruction could
    // have issued: always for independent ops (except the last one),
    // never for a dependence chain.
    MemorySystem mem;
    Sm independent(0, SmConfig{}, mem), chained(1, SmConfig{}, mem);
    FixedFactory independentOps(std::vector<WarpInstr>(20, alu()), 1);
    FixedFactory chainOps(std::vector<WarpInstr>(20, alu(10, 10)), 1);
    independent.launch(independentOps);
    chained.launch(chainOps);
    independent.setIssueWidthLimit(1.0);
    chained.setIssueWidthLimit(1.0);
    drain(independent);
    drain(chained);
    EXPECT_EQ(independent.throttledCycles(), 19u);
    EXPECT_EQ(chained.throttledCycles(), 0u);
}

TEST(SmScheduler, GatesOrderIsFixedAtCycleStart)
{
    // SFU and LSU are gated with an instant wake.  GATES orders the
    // ALU warp (hot) before the SFU, LSU and SFU warps (cold).  Warp
    // 0's demand wake-up ungates the SFU mid-cycle, but warp 3 keeps
    // its cold slot behind warp 1, so warp 1 still wakes the LSU
    // before warp 3 takes the last issue slot.
    MemorySystem mem;
    SmConfig cfg;
    cfg.scheduler = SchedulerKind::Gates;
    cfg.pgWakeLatency = 0;
    cfg.pgBlackout = 0;
    Sm sm(0, cfg, mem);
    WarpInstr sfu;
    sfu.op = OpClass::Sfu;
    WarpInstr load;
    load.op = OpClass::Load;
    PerWarpFactory factory({{sfu}, {load}, {alu()}, {sfu}});
    sm.launch(factory);
    sm.requestGate(ExecUnitKind::Sfu, 0);
    sm.requestGate(ExecUnitKind::Lsu, 0);

    const SmCycleEvents &ev = sm.step(0);
    EXPECT_EQ(ev.issued[static_cast<int>(OpClass::IntAlu)], 1);
    EXPECT_EQ(ev.issued[static_cast<int>(OpClass::Sfu)], 1);
    EXPECT_EQ(ev.issued[static_cast<int>(OpClass::Load)], 0);
    EXPECT_EQ(ev.wakeEvents, 2);
    EXPECT_EQ(sm.unit(ExecUnitKind::Lsu).wakeEvents(), 1u);
    drain(sm);
    EXPECT_TRUE(sm.done());
}

} // namespace
} // namespace vsgpu
