/**
 * @file
 * Tests of the work-stealing pool's scheduling contract: every task
 * index runs exactly once for any worker count, exceptions propagate
 * after quiescing, and a pool survives many batches.  These tests
 * are the core of the TSan CI job — they exercise the queues, the
 * batch barrier, and stealing under deliberately unbalanced loads.
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
    EXPECT_EQ(pool.steals(), 0u);
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

    // Fewer tasks than workers: the surplus workers find empty
    // queues and go back to sleep.
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
    // Slot 0 (the caller) owns the first index block, so index 0
    // throws on the calling thread itself.
    Pool pool(2);
    EXPECT_THROW(pool.parallelFor(
                     8,
                     [&](int i) {
                         if (i == 0)
                             throw std::logic_error("boom");
                     }),
                 std::logic_error);
}

TEST(Pool, UnbalancedLoadCompletes)
{
    // One pathologically slow task at the front of slot 0's block;
    // with stealing the other workers drain the rest meanwhile.
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

} // namespace
} // namespace vsgpu::exec
