#include "gpu/scoreboard.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vsgpu
{

Scoreboard::Scoreboard(int numWarps, int numRegs)
    : numWarps_(numWarps), numRegs_(numRegs)
{
    panicIfNot(numWarps_ > 0 && numRegs_ > 0,
               "scoreboard needs positive warp/reg counts");
    pending_.assign(
        static_cast<std::size_t>(numWarps_) *
            static_cast<std::size_t>(numRegs_),
        0);
}

Cycle
Scoreboard::operandUntil(int warp, std::uint8_t reg) const
{
    if (reg == noReg)
        return 0;
    panicIfNot(reg < numRegs_, "register id out of range");
    return pending_[static_cast<std::size_t>(warp) *
                        static_cast<std::size_t>(numRegs_) +
                    reg];
}

Cycle
Scoreboard::readyAt(int warp, const WarpInstr &instr) const
{
    panicIfNot(warp >= 0 && warp < numWarps_, "bad warp index ", warp);
    return std::max({operandUntil(warp, instr.src0),
                     operandUntil(warp, instr.src1),
                     operandUntil(warp, instr.dest)});
}

void
Scoreboard::recordIssue(int warp, const WarpInstr &instr, Cycle readyAt)
{
    panicIfNot(warp >= 0 && warp < numWarps_, "bad warp index ", warp);
    if (instr.dest == noReg)
        return;
    panicIfNot(instr.dest < numRegs_, "register id out of range");
    pending_[static_cast<std::size_t>(warp) *
                 static_cast<std::size_t>(numRegs_) +
             instr.dest] = readyAt;
}

void
Scoreboard::releaseWarp(int warp)
{
    panicIfNot(warp >= 0 && warp < numWarps_, "bad warp index ", warp);
    for (int r = 0; r < numRegs_; ++r)
        pending_[static_cast<std::size_t>(warp) *
                     static_cast<std::size_t>(numRegs_) +
                 static_cast<std::size_t>(r)] = 0;
}

Cycle
Scoreboard::pendingUntil(int warp, std::uint8_t reg) const
{
    panicIfNot(warp >= 0 && warp < numWarps_, "bad warp index ", warp);
    if (reg == noReg || reg >= numRegs_)
        return 0;
    return pending_[static_cast<std::size_t>(warp) *
                        static_cast<std::size_t>(numRegs_) +
                    reg];
}

} // namespace vsgpu
