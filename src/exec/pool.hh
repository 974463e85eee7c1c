/**
 * @file
 * Thread pool for sharding independent simulation work.
 *
 * The sweep/batch engine's scheduling substrate: a fixed set of
 * persistent workers that, together with the caller, claim task
 * indices from one shared atomic cursor until it passes the batch
 * size.  Tasks are heavyweight — one co-simulation run each, in the
 * milliseconds-to-seconds range — so a single cursor balances the
 * load as well as any per-worker queue would, and the protocol stays
 * easy to reason about and clean under ThreadSanitizer.
 *
 * Determinism contract: the pool never introduces nondeterminism by
 * itself.  Tasks are identified by dense indices, every task runs
 * exactly once, and callers store results by index, so any schedule
 * produces the same result vector.  Combined with per-task RNG
 * streams (sweep.hh) this yields the engine invariant that
 * `--jobs 1` and `--jobs N` produce bitwise-identical metrics.
 */

#ifndef VSGPU_EXEC_POOL_HH
#define VSGPU_EXEC_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vsgpu::exec
{

class ProgressTracker;

/**
 * Persistent pool over one shared task cursor.
 *
 * A Pool of N threads uses N - 1 background workers plus the calling
 * thread of parallelFor(), so Pool(1) runs everything inline on the
 * caller, in index order, with no threads.
 */
class Pool
{
  public:
    /**
     * @param threads  worker count; 0 selects hardwareJobs().
     * @param progress optional sink told about every batch and every
     *                 completed task (from whichever thread ran it);
     *                 must outlive the pool.
     */
    explicit Pool(int threads = 0, ProgressTracker *progress = nullptr);

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    ~Pool();

    /** @return the configured parallelism (>= 1). */
    int threads() const { return threads_; }

    /** @return the default job count: hardware concurrency, >= 1. */
    static int hardwareJobs();

    /**
     * Run body(i) for every i in [0, numTasks), sharded across the
     * pool, and return when all tasks completed.  The calling thread
     * claims tasks too.  Exceptions thrown by tasks are captured; the
     * first one (in completion order) is rethrown here after the
     * unclaimed tasks have been cancelled and the pool has quiesced.
     * Not reentrant: a parallelFor() called from inside a task of the
     * same pool panics, whatever the job count.
     */
    void parallelFor(int numTasks,
                     const std::function<void(int)> &body);

    /** Tasks executed over the pool's lifetime (observability). */
    std::uint64_t tasksRun() const { return tasksRun_.load(); }

  private:
    /** Background worker main loop. */
    void workerMain();

    /** Claim and run tasks of the current batch until none is left. */
    void drainBatch(const std::function<void(int)> &body,
                    int numTasks);

    const int threads_;
    ProgressTracker *const progress_;
    std::vector<std::thread> workers_;

    std::mutex batchMutex_;
    std::condition_variable batchStart_;
    std::condition_variable batchDone_;
    // batchMutex_ guards the batch state below.  A worker joins a
    // batch only while body_ is set and the caller clears body_ in
    // the same critical section that sees workersActive_ reach 0, so
    // a late-waking worker never touches the cursor of a later batch.
    std::uint64_t batchGeneration_ = 0;
    /// Background workers inside a batch.
    int workersActive_ = 0;
    bool shutdown_ = false;
    /// The batch in flight; non-null at every job count (the
    /// reentrancy check).
    const std::function<void(int)> *body_ = nullptr;
    int numTasks_ = 0;
    std::exception_ptr firstError_;

    /// Next unclaimed task index of the batch in flight.  Reset under
    /// batchMutex_; cancelling a batch moves it to the end.
    std::atomic<int> next_{0};

    std::atomic<std::uint64_t> tasksRun_{0};
};

} // namespace vsgpu::exec

#endif // VSGPU_EXEC_POOL_HH
