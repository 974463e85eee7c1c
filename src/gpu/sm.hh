/**
 * @file
 * Cycle-level streaming multiprocessor model.
 *
 * The SM implements the paper's Fig. 6 microarchitecture at the level
 * the voltage-stacking study needs: a dual-issue front end fed by a
 * greedy-then-oldest (GTO) warp scheduler with scoreboard dependence
 * checks, four execution blocks (SP0/SP1/SFU/LSU), barriers, and a
 * shared memory hierarchy.  It exposes the two architecture-level
 * voltage-smoothing actuators:
 *
 *   - dynamic issue width scaling (DIWS): a fractional issue-rate
 *     limit realized with a token bucket (the paper's down-counter
 *     per N cycles), and
 *   - fake instruction injection (FII): fake ops filling otherwise
 *     idle issue slots, consuming energy without architectural
 *     effect,
 *
 * plus per-execution-block power gating with blackout and wake-up
 * penalties (for the Warped-Gates-style policy).
 *
 * Issue is event-driven.  A warp's scoreboard readiness is fixed once
 * its next instruction is fetched (only the warp's own issues write
 * its scoreboard rows), so the fetch stores the instruction's ready
 * cycle per warp; finished warps, warps at a barrier and warps
 * waiting to refetch after a barrier hold a never-ready sentinel.
 * Each cycle the ready set is one 64-bit mask (readyAt <= now), the
 * scheduler orders only those warps (GTO: the greedy warp, then
 * ascending slots; GATES: warps bound for an ungated block, then the
 * rest, each ascending), and a warp is refetched only when it issues
 * or leaves a barrier.  Apart from that one branch-free compare per
 * warp, per-cycle cost follows issue events, not resident warps.
 *
 * A stalled SM sleeps until its next wake cycle.  When the ready-mask
 * pass finds no ready warp, nothing issues, so the earliest ready
 * cycle, taken right after that pass, stays exact until a refill or
 * an issue writes readyAt again (a barrier release goes through the
 * refill mask).  Until then a cycle with nothing to fetch and no fake
 * injection only fills the DIWS token bucket, so step() does that
 * inline and returns the shared stalled-cycle record.  A drained SM
 * (no unfinished warp) sleeps for good: step() only counts the cycle
 * and returns the shared drained-cycle record.
 *
 * Gating checks cost one compare on an SM with no gated block.  The
 * SM keeps one summary of its blocks, the cycle from which none is
 * gated (the latest wake-up end, or never while a gate is pending),
 * refreshed where the SM gates or wakes a block; only before it does
 * gatedMask() look at the blocks.  GATES classifies ready warps by
 * per-block masks of the warps whose fetched op targets that block,
 * kept by refill().
 */

#ifndef VSGPU_GPU_SM_HH
#define VSGPU_GPU_SM_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "gpu/exec_unit.hh"
#include "gpu/memory.hh"
#include "gpu/program.hh"
#include "gpu/scoreboard.hh"

namespace vsgpu
{

/** Warp scheduler flavours. */
enum class SchedulerKind
{
    Gto,   ///< greedy-then-oldest (paper Table I)
    Gates, ///< gating-aware scheduler (Warped Gates' GATES)
};

/** Static SM configuration. */
struct SmConfig
{
    int maxIssueWidth = config::maxIssueWidth;
    int numRegs = 64;

    Cycle intAluLatency = 12;
    Cycle fpAluLatency = 18;
    Cycle sfuLatency = 22;

    /** Power-gating wake-up latency (cycles). */
    Cycle pgWakeLatency = 11;
    /** Blackout: minimum cycles a gated block stays gated
     *  (Warped Gates' break-even period). */
    Cycle pgBlackout = 24;

    SchedulerKind scheduler = SchedulerKind::Gto;
};

/** Micro-architectural events of one SM cycle (power-model input). */
struct SmCycleEvents
{
    std::array<int, numOpClasses> issued{};
    int fakeIssued = 0;
    int lanesActive = 0;   ///< sum of active lanes of real issues
    int wakeEvents = 0;    ///< power-gating wake-ups this cycle
    bool active = false;   ///< SM still has unfinished warps
    bool clocked = true;   ///< false on cycles skipped by DFS

    /** @return real warp instructions issued this cycle. */
    int
    totalIssued() const
    {
        int n = 0;
        for (int v : issued)
            n += v;
        return n;
    }
};

/** Aggregate statistics snapshot of one SM. */
struct SmStats
{
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t fakeIssued = 0;
    std::uint64_t throttledCycles = 0;
    std::array<std::uint64_t, numOpClasses> issuedByClass{};
    std::array<Cycle, numExecUnits> unitBusyCycles{};
    std::array<std::uint64_t, numExecUnits> gateEvents{};
    double avgIssueRate = 0.0;
};

/**
 * One streaming multiprocessor.
 */
class Sm
{
  public:
    /**
     * @param id  SM index within the GPU.
     * @param cfg static configuration.
     * @param mem shared memory system (must outlive the SM).
     */
    Sm(int id, const SmConfig &cfg, MemorySystem &mem);

    /** Install a kernel's warps; resets all pipeline state. */
    void launch(const ProgramFactory &factory, Cycle now = 0);

    /** @return true when every warp has drained. */
    bool done() const { return activeWarps_ == 0; }

    /** Advance one core cycle; @return the cycle's events, valid
     *  until the next step. */
    const SmCycleEvents &
    step(Cycle now)
    {
        if (refillMask_ == 0 && fakeRate_ == 0.0 && now < nextReady_) {
            ++cyclesRun_;
            fillIssueTokens();
            fakeTokens_ = 0.0;
            return stalledCycle;
        }
        if (activeWarps_ == 0) {
            ++cyclesRun_;
            return drainedCycle;
        }
        return stepFull(now);
    }

    /** The events of every stalled cycle: nothing issued, active. */
    static constexpr SmCycleEvents stalledCycle{.active = true};

    /** The events of every cycle after the SM drained. */
    static constexpr SmCycleEvents drainedCycle{.active = false};

    // --- voltage-smoothing actuators ---

    /** Set the DIWS issue-rate limit (warps/cycle, fractional OK). */
    void setIssueWidthLimit(double warpsPerCycle);

    /** @return current DIWS limit (warps/cycle). */
    double issueWidthLimit() const { return issueLimit_; }

    /** Set the FII injection rate (fake instructions/cycle). */
    void setFakeInjectRate(double perCycle);

    /** @return current FII rate. */
    double fakeInjectRate() const { return fakeRate_; }

    // --- power gating ---

    /** @return an execution block (for gating policies and stats).
     *  Gate a block through requestGate(), never unit().gate(): the
     *  gating summary behind gatedMask() only follows the former. */
    ExecUnit &unit(ExecUnitKind kind);
    const ExecUnit &unit(ExecUnitKind kind) const;

    /** Gate a block using the configured blackout. */
    void requestGate(ExecUnitKind kind, Cycle now);

    /** Begin waking a gated block from outside the SM (a gating
     *  veto); @return the cycle it becomes usable. */
    Cycle wake(ExecUnitKind kind, Cycle now, Cycle wakeCycles);

    /** @return the blocks gated at @p now: bit k is ExecUnitKind k. */
    unsigned
    gatedMask(Cycle now) const
    {
        // The summary is exact while blocks are gated and woken
        // through the SM, and never too early: a block woken through
        // unit() directly leaves it late until the next refresh, and
        // the per-block scan behind it stays exact.
        if (now >= gatedUntil_)
            return 0;
        unsigned mask = 0;
        for (std::size_t k = 0; k < units_.size(); ++k)
            mask |= static_cast<unsigned>(units_[k].gated(now)) << k;
        return mask;
    }

    /** @return true when any block is gated at @p now. */
    bool anyGated(Cycle now) const { return gatedMask(now) != 0; }

    // --- statistics ---

    int id() const { return id_; }
    std::uint64_t retired() const { return retired_; }
    std::uint64_t fakeIssuedTotal() const { return fakeTotal_; }
    std::uint64_t cyclesRun() const { return cyclesRun_; }

    /** Cycles on which at least one issue slot went unused while a
     *  warp was throttled purely by DIWS. */
    std::uint64_t throttledCycles() const { return throttledCycles_; }

    /** @return number of unfinished warps. */
    int activeWarps() const { return activeWarps_; }

    /** @return average issue rate so far (warps/cycle). */
    double avgIssueRate() const;

    /** @return an aggregate statistics snapshot. */
    SmStats stats() const;

  private:
    /** Per-warp execution context. */
    struct WarpContext
    {
        std::unique_ptr<WarpProgram> program;
        WarpInstr pending; ///< valid while the warp's ready cycle is set
    };

    /** Ready cycle of a warp that cannot issue (finished, at a
     *  barrier, or waiting to refetch). */
    static constexpr Cycle neverReady = std::numeric_limits<Cycle>::max();

    /** step() of a cycle that may fetch, issue or inject. */
    const SmCycleEvents &stepFull(Cycle now);

    /** DIWS token bucket: average issue rate <= issueLimit_. */
    void
    fillIssueTokens()
    {
        issueTokens_ = std::min(issueTokens_ + issueLimit_,
                                static_cast<double>(cfg_.maxIssueWidth));
    }

    /** Fetch a warp's next instruction and its ready cycle; retires
     *  the warp at program end. */
    void refill(int warp);

    /** Release the barrier when every unfinished warp reached it. */
    void checkBarrier();

    /** @return issue latency (result availability) for an op. */
    Cycle resultLatency(const WarpInstr &instr, Cycle now);

    /** Try to find an execution block for the op. */
    ExecUnit *findUnit(OpClass op, Cycle now);

    /** Recompute gatedUntil_ from the blocks. */
    void refreshGatedUntil();

    /**
     * One cycle's scheduler candidates in visit order: the head warp
     * (if any), then each queue mask lowest slot first.
     */
    struct IssueOrder
    {
        int head = -1;
        std::array<std::uint64_t, 2> queue{};

        /** @return the next candidate, or -1 when none is left. */
        int
        pop()
        {
            if (head >= 0)
                return std::exchange(head, -1);
            for (std::uint64_t &q : queue) {
                if (q != 0) {
                    const int w = std::countr_zero(q);
                    q &= q - 1;
                    return w;
                }
            }
            return -1;
        }

        /** @return true when no candidate is left. */
        bool
        empty() const
        {
            return head < 0 && (queue[0] | queue[1]) == 0;
        }
    };

    /** @return the scheduler's visit order over the @p ready warps. */
    IssueOrder schedule(std::uint64_t ready, Cycle now) const;

    int id_;
    SmConfig cfg_;
    MemorySystem &mem_;
    Scoreboard scoreboard_;
    std::vector<WarpContext> warps_;
    std::array<ExecUnit, numExecUnits> units_;

    static_assert(config::warpsPerSM <= 64,
                  "warp sets are 64-bit masks");
    /** Cycle each warp's pending instruction can issue. */
    std::array<Cycle, config::warpsPerSM> readyAt_{};
    /** Warps waiting at the barrier. */
    std::uint64_t barrierMask_ = 0;
    /** Warps to refetch at the start of the next step (launch and
     *  barrier release). */
    std::uint64_t refillMask_ = 0;
    /** Earliest ready cycle of a stalled SM; 0 while it is not
     *  stalled. */
    Cycle nextReady_ = 0;
    /** Per block, the warps whose fetched op targets it
     *  (primaryUnit); exact for every warp with a ready cycle. */
    std::array<std::uint64_t, numExecUnits> warpsByUnit_{};
    /** No block is gated from this cycle on (ExecUnit::gatedUntil
     *  over the blocks). */
    Cycle gatedUntil_ = 0;

    int activeWarps_ = 0;
    int lastIssuedWarp_ = -1;

    double issueLimit_;
    double issueTokens_ = 0.0;
    double fakeRate_ = 0.0;
    double fakeTokens_ = 0.0;

    SmCycleEvents events_;
    std::uint64_t retired_ = 0;
    std::uint64_t fakeTotal_ = 0;
    std::uint64_t cyclesRun_ = 0;
    std::uint64_t issuedTotal_ = 0;
    std::uint64_t throttledCycles_ = 0;
    std::array<std::uint64_t, numOpClasses> issuedByClass_{};
};

} // namespace vsgpu

#endif // VSGPU_GPU_SM_HH
