/**
 * @file
 * Unit tests for the register scoreboard.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "gpu/scoreboard.hh"

namespace vsgpu
{
namespace
{

WarpInstr
instr(std::uint8_t dest, std::uint8_t src0 = noReg,
      std::uint8_t src1 = noReg)
{
    WarpInstr i;
    i.dest = dest;
    i.src0 = src0;
    i.src1 = src1;
    return i;
}

TEST(Scoreboard, FreshBoardIsReady)
{
    Scoreboard sb(4);
    EXPECT_TRUE(sb.ready(0, instr(5, 6, 7), 0));
}

TEST(Scoreboard, RawHazardBlocksUntilReady)
{
    Scoreboard sb(4);
    sb.recordIssue(0, instr(5), 10);
    EXPECT_FALSE(sb.ready(0, instr(8, 5), 3));
    EXPECT_FALSE(sb.ready(0, instr(8, noReg, 5), 9));
    EXPECT_TRUE(sb.ready(0, instr(8, 5), 10));
}

TEST(Scoreboard, WawHazardBlocks)
{
    Scoreboard sb(4);
    sb.recordIssue(0, instr(5), 10);
    EXPECT_FALSE(sb.ready(0, instr(5), 5));
    EXPECT_TRUE(sb.ready(0, instr(5), 10));
}

TEST(Scoreboard, WarpsAreIndependent)
{
    Scoreboard sb(4);
    sb.recordIssue(0, instr(5), 100);
    EXPECT_FALSE(sb.ready(0, instr(9, 5), 1));
    EXPECT_TRUE(sb.ready(1, instr(9, 5), 1));
    EXPECT_TRUE(sb.ready(3, instr(5), 1));
}

TEST(Scoreboard, NoRegIsAlwaysFree)
{
    Scoreboard sb(2);
    sb.recordIssue(0, instr(5), 100);
    EXPECT_TRUE(sb.ready(0, instr(noReg, noReg, noReg), 0));
}

TEST(Scoreboard, NoDestRecordsNothing)
{
    Scoreboard sb(2);
    sb.recordIssue(0, instr(noReg, 5), 100);
    EXPECT_TRUE(sb.ready(0, instr(6, 5), 0));
}

TEST(Scoreboard, ReleaseWarpClearsPending)
{
    Scoreboard sb(2);
    sb.recordIssue(0, instr(5), 1000);
    sb.releaseWarp(0);
    EXPECT_TRUE(sb.ready(0, instr(9, 5), 0));
    EXPECT_EQ(sb.pendingUntil(0, 5), 0u);
}

TEST(Scoreboard, PendingUntilReportsDeadline)
{
    Scoreboard sb(2);
    sb.recordIssue(1, instr(7), 42);
    EXPECT_EQ(sb.pendingUntil(1, 7), 42u);
    EXPECT_EQ(sb.pendingUntil(1, 8), 0u);
}

TEST(Scoreboard, MultipleOutstandingWrites)
{
    Scoreboard sb(2);
    sb.recordIssue(0, instr(1), 10);
    sb.recordIssue(0, instr(2), 20);
    sb.recordIssue(0, instr(3), 30);
    EXPECT_FALSE(sb.ready(0, instr(9, 1, 2), 15));
    EXPECT_TRUE(sb.ready(0, instr(9, 1, 2), 25));
    EXPECT_FALSE(sb.ready(0, instr(9, 3), 25));
}

TEST(Scoreboard, ReadyAtRawIsLatestSource)
{
    Scoreboard sb(2);
    sb.recordIssue(0, instr(5), 10);
    sb.recordIssue(0, instr(6), 30);
    EXPECT_EQ(sb.readyAt(0, instr(9, 5)), 10u);
    EXPECT_EQ(sb.readyAt(0, instr(9, noReg, 6)), 30u);
    EXPECT_EQ(sb.readyAt(0, instr(9, 6, 5)), 30u);
    EXPECT_FALSE(sb.ready(0, instr(9, 6, 5), 29));
    EXPECT_TRUE(sb.ready(0, instr(9, 6, 5), 30));
}

TEST(Scoreboard, ReadyAtWawWaitsForDest)
{
    Scoreboard sb(2);
    sb.recordIssue(1, instr(7), 42);
    EXPECT_EQ(sb.readyAt(1, instr(7)), 42u);
    EXPECT_EQ(sb.readyAt(1, instr(8)), 0u);
    sb.recordIssue(1, instr(7), 50);
    EXPECT_EQ(sb.readyAt(1, instr(7, 8)), 50u);
}

TEST(Scoreboard, ReadyAtIgnoresNoReg)
{
    Scoreboard sb(2);
    sb.recordIssue(0, instr(5), 100);
    EXPECT_EQ(sb.readyAt(0, instr(noReg, noReg, noReg)), 0u);
    EXPECT_EQ(sb.readyAt(1, instr(5, 5, 5)), 0u);
}

TEST(ScoreboardDeath, BadWarpPanics)
{
    setLogQuiet(true);
    Scoreboard sb(2);
    EXPECT_DEATH(sb.ready(5, instr(1), 0), "");
    EXPECT_DEATH(sb.recordIssue(-1, instr(1), 0), "");
    EXPECT_DEATH(sb.releaseWarp(2), "");
}

TEST(ScoreboardDeath, OutOfRangeRegisterPanics)
{
    setLogQuiet(true);
    Scoreboard sb(2, 16);
    EXPECT_DEATH(sb.recordIssue(0, instr(200), 1), "");
    EXPECT_DEATH(sb.readyAt(0, instr(noReg, 200)), "");
}

} // namespace
} // namespace vsgpu
