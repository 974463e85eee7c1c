/**
 * @file
 * Tests of the sweep layer's determinism contract: ordered results,
 * schedule-independent per-task RNG streams, and bitwise-equal
 * output for any worker count.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "exec/sweep.hh"

namespace vsgpu::exec
{
namespace
{

TEST(Sweep, ResultsComeBackInPointOrder)
{
    Pool pool(4);
    std::vector<int> points;
    for (int i = 0; i < 257; ++i)
        points.push_back(i * 3);

    const auto results = runSweep(
        pool, points, 99,
        [](const int &p, TaskContext &) { return p * 2; });
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(results[i], points[i] * 2);
}

TEST(Sweep, TaskSeedsAreStableAndDistinct)
{
    // Seeds depend only on (sweepSeed, index) — never on schedule.
    const std::uint64_t a0 = taskSeed(42, 0);
    EXPECT_EQ(a0, taskSeed(42, 0));
    EXPECT_NE(taskSeed(42, 0), taskSeed(42, 1));
    EXPECT_NE(taskSeed(42, 0), taskSeed(43, 0));

    std::vector<std::uint64_t> seeds;
    for (int i = 0; i < 1000; ++i)
        seeds.push_back(taskSeed(7, i));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()),
              seeds.end())
        << "task seeds must be unique per index";
}

TEST(Sweep, RngStreamsAreBitwiseIdenticalAcrossJobCounts)
{
    const auto draw = [](int jobs) {
        Pool pool(jobs);
        return runIndexSweep(pool, 200, 1234,
                             [](int, TaskContext &ctx) {
                                 double acc = 0.0;
                                 for (int k = 0; k < 16; ++k)
                                     acc += ctx.rng.uniform();
                                 return acc;
                             });
    };
    const auto serial = draw(1);
    const auto wide = draw(8);
    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], wide[i]) << "index " << i;
}

} // namespace
} // namespace vsgpu::exec
