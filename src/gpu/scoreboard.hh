/**
 * @file
 * Per-warp register scoreboard.
 *
 * Tracks outstanding register writes per warp so the scheduler only
 * issues instructions whose sources and destination are free
 * (paper Section IV-C: "Before a warp is issued, the warp scheduler
 * first checks with the scoreboard").
 */

#ifndef VSGPU_GPU_SCOREBOARD_HH
#define VSGPU_GPU_SCOREBOARD_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "gpu/isa.hh"

namespace vsgpu
{

/**
 * Scoreboard over a fixed number of warps and registers per warp.
 */
class Scoreboard
{
  public:
    /**
     * @param numWarps warp slots tracked.
     * @param numRegs  architectural registers per warp.
     */
    Scoreboard(int numWarps, int numRegs = 64);

    /**
     * @return the first cycle at which the instruction's registers
     * (src0, src1 and dest) are all free: the latest pendingUntil of
     * the three, 0 when none is pending; panics on an out-of-range
     * register.  Only the warp's own recordIssue() (and releaseWarp())
     * moves this value, so it can be computed once when the
     * instruction is fetched.
     */
    Cycle readyAt(int warp, const WarpInstr &instr) const;

    /** @return true when the instruction's registers are all free. */
    bool
    ready(int warp, const WarpInstr &instr, Cycle now) const
    {
        return readyAt(warp, instr) <= now;
    }

    /**
     * Record the destination write of an issued instruction.
     * @param readyAt cycle at which the result becomes available.
     */
    void recordIssue(int warp, const WarpInstr &instr, Cycle readyAt);

    /** Release all registers of a warp (program end / reset). */
    void releaseWarp(int warp);

    /** @return cycle at which a register becomes free (0 if free). */
    Cycle pendingUntil(int warp, std::uint8_t reg) const;

  private:
    /** @return pendingUntil of an operand; panics on an out-of-range
     *  register. */
    Cycle operandUntil(int warp, std::uint8_t reg) const;

    int numWarps_;
    int numRegs_;
    /** readyAt cycle per (warp, reg); 0 = no pending write. */
    std::vector<Cycle> pending_;
};

} // namespace vsgpu

#endif // VSGPU_GPU_SCOREBOARD_HH
