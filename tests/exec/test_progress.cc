/**
 * @file
 * Unit tests for the per-task progress tracker: reporting from
 * exec::Pool, completed/total accounting across batches, and thread
 * safety under a parallel pool.
 */

#include <gtest/gtest.h>

#include <atomic>

#include "exec/pool.hh"
#include "exec/progress.hh"

namespace vsgpu::exec
{
namespace
{

TEST(Progress, RecordsEveryTaskOnce)
{
    ProgressTracker tracker;
    tracker.batchStart(3);
    EXPECT_EQ(tracker.completed(), 0);
    EXPECT_EQ(tracker.total(), 3);
    tracker.taskDone(1.0);
    tracker.taskDone(2.0);
    EXPECT_EQ(tracker.completed(), 2);
    tracker.taskDone(3.0);
    EXPECT_EQ(tracker.completed(), 3);
    EXPECT_EQ(tracker.total(), 3);
}

TEST(Progress, BatchesAccumulateTotals)
{
    ProgressTracker tracker;
    tracker.batchStart(1);
    tracker.taskDone(1.0);
    EXPECT_EQ(tracker.completed(), 1);
    EXPECT_EQ(tracker.total(), 1);
    tracker.batchStart(2);
    EXPECT_EQ(tracker.completed(), 1);
    EXPECT_EQ(tracker.total(), 3);
    tracker.taskDone(1.0);
    tracker.taskDone(1.0);
    EXPECT_EQ(tracker.completed(), 3);
    EXPECT_EQ(tracker.total(), 3);
}

TEST(Progress, PoolReportsTasks)
{
    ProgressTracker tracker;
    Pool pool(4, &tracker);

    std::atomic<int> ran{0};
    pool.parallelFor(16, [&ran](int) { ++ran; });
    EXPECT_EQ(tracker.completed(), 16);
    EXPECT_EQ(tracker.total(), 16);
    pool.parallelFor(8, [&ran](int) { ++ran; });

    EXPECT_EQ(ran.load(), 24);
    EXPECT_EQ(tracker.completed(), 24);
    EXPECT_EQ(tracker.total(), 24);
    tracker.finish();
}

TEST(Progress, SingleThreadInlinePathAlsoRecords)
{
    ProgressTracker tracker;
    Pool pool(1, &tracker);
    pool.parallelFor(5, [](int) {});
    EXPECT_EQ(tracker.completed(), 5);
    EXPECT_EQ(tracker.total(), 5);
}

TEST(Progress, EmptyBatchIsIgnored)
{
    ProgressTracker tracker;
    Pool pool(2, &tracker);
    pool.parallelFor(0, [](int) {});
    EXPECT_EQ(tracker.completed(), 0);
    EXPECT_EQ(tracker.total(), 0);
}

} // namespace
} // namespace vsgpu::exec
