/**
 * @file
 * Tests of the pool's scheduling contract: every task index runs
 * exactly once for any worker count, exceptions propagate after
 * quiescing, and a pool survives many batches.  These tests are the
 * core of the TSan CI job — they exercise the shared task cursor,
 * the batch barrier and late-waking workers under deliberately
 * unbalanced loads.
 */

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/pool.hh"

namespace vsgpu::exec
{
namespace
{

TEST(Pool, RunsEveryIndexExactlyOnce)
{
    for (int jobs : {1, 2, 4, 8}) {
        Pool pool(jobs);
        ASSERT_EQ(pool.threads(), jobs);

        constexpr int kTasks = 1000;
        std::vector<std::atomic<int>> counts(kTasks);
        pool.parallelFor(kTasks,
                         [&](int i) { counts[i].fetch_add(1); });
        for (int i = 0; i < kTasks; ++i)
            EXPECT_EQ(counts[i].load(), 1)
                << "index " << i << " at jobs=" << jobs;
        EXPECT_EQ(pool.tasksRun(), static_cast<std::uint64_t>(kTasks));
    }
}

TEST(Pool, SingleThreadRunsInlineInOrder)
{
    Pool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> order;
    pool.parallelFor(64, [&](int i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Pool, ZeroSelectsHardwareJobs)
{
    Pool pool(0);
    EXPECT_EQ(pool.threads(), Pool::hardwareJobs());
    EXPECT_GE(Pool::hardwareJobs(), 1);
}

TEST(Pool, EmptyAndTinyBatches)
{
    Pool pool(4);
    pool.parallelFor(0, [](int) { FAIL() << "no tasks expected"; });

    // Fewer tasks than workers: the surplus workers find the cursor
    // past the end and go back to sleep.
    std::atomic<int> ran{0};
    pool.parallelFor(2, [&](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 2);
}

TEST(Pool, ManyBatchesOnOnePool)
{
    Pool pool(3);
    std::atomic<int> total{0};
    for (int batch = 0; batch < 50; ++batch)
        pool.parallelFor(batch % 7, [&](int) { total.fetch_add(1); });
    int expect = 0;
    for (int batch = 0; batch < 50; ++batch)
        expect += batch % 7;
    EXPECT_EQ(total.load(), expect);
}

TEST(Pool, FirstExceptionPropagatesAndPoolSurvives)
{
    for (int jobs : {1, 4}) {
        Pool pool(jobs);
        std::atomic<int> ran{0};
        const auto faulty = [&](int i) {
            if (i == 37)
                throw std::runtime_error("task 37 failed");
            ran.fetch_add(1);
        };
        EXPECT_THROW(pool.parallelFor(100, faulty), std::runtime_error);
        // Cancelled tasks are skipped, so at most 99 ran.
        EXPECT_LE(ran.load(), 99);

        // The pool must be fully usable after an error: the throw
        // cleared the in-flight batch mark.
        std::atomic<int> ran2{0};
        pool.parallelFor(100, [&](int) { ran2.fetch_add(1); });
        EXPECT_EQ(ran2.load(), 100) << "jobs=" << jobs;
    }
}

TEST(PoolDeathTest, NestedParallelForPanicsAtEveryJobCount)
{
    // A task that submits to its own pool again: the pool is not
    // reentrant, and the check must not depend on the job count, so
    // a jobs=1 run catches what a jobs=N run would.
    for (int jobs : {1, 4}) {
        EXPECT_DEATH(
            {
                Pool pool(jobs);
                pool.parallelFor(2, [&](int) {
                    pool.parallelFor(2, [](int) {});
                });
            },
            "not reentrant")
            << "jobs=" << jobs;
    }
}

TEST(Pool, ExceptionOnCallerThreadPropagates)
{
    // Only the calling thread throws.  A worker's task blocks until
    // the caller has thrown, so a worker holds at most one of the 8
    // tasks and the caller is sure to claim one of the others.
    Pool pool(2);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> callerThrew{false};
    EXPECT_THROW(pool.parallelFor(
                     8,
                     [&](int) {
                         if (std::this_thread::get_id() == caller) {
                             callerThrew = true;
                             throw std::logic_error("boom");
                         }
                         while (!callerThrew)
                             std::this_thread::yield();
                     }),
                 std::logic_error);
    EXPECT_TRUE(callerThrew);
}

TEST(Pool, UnbalancedLoadCompletes)
{
    // One pathologically slow task; the other threads drain the
    // rest of the cursor meanwhile.
    Pool pool(4);
    std::atomic<int> ran{0};
    pool.parallelFor(64, [&](int i) {
        if (i == 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(30));
        ran.fetch_add(1);
    });
    EXPECT_EQ(ran.load(), 64);
}

TEST(Pool, LargeIndexSpaceStress)
{
    Pool pool(8);
    constexpr int kTasks = 20000;
    std::vector<std::atomic<std::uint8_t>> seen(kTasks);
    pool.parallelFor(kTasks, [&](int i) { seen[i].fetch_add(1); });
    for (int i = 0; i < kTasks; ++i)
        ASSERT_EQ(seen[i].load(), 1u) << "index " << i;
}

TEST(Pool, LateWakingWorkersNeverRunALaterBatch)
{
    // Many tiny batches on more workers than tasks: most workers wake
    // after their batch has finished, while the caller is already
    // submitting the next one.  Each body checks that its own
    // parallelFor is still in flight, that its index is in range and
    // that no index runs twice.
    Pool pool(8);
    std::atomic<int> inFlight{-1};
    std::atomic<int> misplaced{0};
    std::uint64_t expectRun = 0;
    for (int batch = 0; batch < 2000; ++batch) {
        const int numTasks = 1 + batch % 3;
        expectRun += static_cast<std::uint64_t>(numTasks);
        std::vector<std::atomic<int>> runs(
            static_cast<std::size_t>(numTasks));
        inFlight = batch;
        pool.parallelFor(numTasks, [&, batch, numTasks](int i) {
            if (inFlight.load() != batch || i >= numTasks) {
                misplaced.fetch_add(1);
                return;
            }
            runs[static_cast<std::size_t>(i)].fetch_add(1);
        });
        inFlight = -1;
        for (int i = 0; i < numTasks; ++i)
            ASSERT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
                << "batch " << batch << " index " << i;
    }
    EXPECT_EQ(misplaced.load(), 0);
    EXPECT_EQ(pool.tasksRun(), expectRun);
}

} // namespace
} // namespace vsgpu::exec
