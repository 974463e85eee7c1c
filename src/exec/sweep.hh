/**
 * @file
 * Deterministic sweep execution on top of exec::Pool.
 *
 * A sweep is a list of independent points (threshold values,
 * frequency steps, workloads, Monte Carlo seeds, ...), each mapped
 * to a result by a pure task function.  runSweep() shards the points
 * across the pool and returns the results in point order (ordered
 * reduction), so callers fold or print them exactly as a serial loop
 * would have.
 *
 * Every task receives a TaskContext carrying its own deterministic
 * RNG stream, derived from (sweep seed, point index) by splitmix64.
 * Tasks that need randomness must draw from that stream only; any
 * use of shared mutable RNG state would make results depend on the
 * schedule.  Under this contract the engine invariant holds:
 * `--jobs 1` and `--jobs N` produce bitwise-identical results.
 */

#ifndef VSGPU_EXEC_SWEEP_HH
#define VSGPU_EXEC_SWEEP_HH

#include <cstdint>
#include <vector>

#include "common/check.hh"
#include "common/random.hh"
#include "exec/pool.hh"

namespace vsgpu::exec
{

/** Per-task execution context handed to every sweep task. */
struct TaskContext
{
    /** Dense index of the point in the sweep (reduction order). */
    int index = 0;

    /** Stream seed for this task: splitmix64(sweepSeed, index). */
    std::uint64_t seed = 0;

    /** Deterministic RNG stream private to this task. */
    Rng rng{0};
};

/** splitmix64-style mix of a sweep seed and a task index. */
inline std::uint64_t
taskSeed(std::uint64_t sweepSeed, int index)
{
    VSGPU_REQUIRES(index >= 0, "negative sweep index ", index);
    std::uint64_t z =
        sweepSeed + 0x9e3779b97f4a7c15ull *
                        (static_cast<std::uint64_t>(index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Run fn(i, ctx) for every index i in [0, n), sharded across
 * @p pool, and return the results in index order.
 *
 * @param pool      execution pool (jobs = pool.threads()).
 * @param n         number of sweep points.
 * @param sweepSeed base seed for the per-task RNG streams.
 * @param fn        task function: Result fn(int, TaskContext &).
 *                  Must not touch shared mutable state; results
 *                  must depend only on (i, ctx).
 */
template <typename Fn>
auto
runIndexSweep(Pool &pool, int n, std::uint64_t sweepSeed, Fn &&fn)
    -> std::vector<decltype(fn(0, std::declval<TaskContext &>()))>
{
    using Result = decltype(fn(0, std::declval<TaskContext &>()));
    std::vector<Result> results(static_cast<std::size_t>(n));
    pool.parallelFor(n, [&](int i) {
        TaskContext ctx;
        ctx.index = i;
        ctx.seed = taskSeed(sweepSeed, i);
        ctx.rng = Rng(ctx.seed);
        results[static_cast<std::size_t>(i)] = fn(i, ctx);
    });
    return results;
}

/**
 * Point-list form of runIndexSweep(): fn(points[i], ctx) for every
 * point, results in point order.
 */
template <typename Point, typename Fn>
auto
runSweep(Pool &pool, const std::vector<Point> &points,
         std::uint64_t sweepSeed, Fn &&fn)
{
    return runIndexSweep(
        pool, static_cast<int>(points.size()), sweepSeed,
        [&](int i, TaskContext &ctx) {
            return fn(points[static_cast<std::size_t>(i)], ctx);
        });
}

} // namespace vsgpu::exec

#endif // VSGPU_EXEC_SWEEP_HH
