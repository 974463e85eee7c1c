/**
 * @file
 * Work-stealing thread pool for sharding independent simulation work.
 *
 * The sweep/batch engine's scheduling substrate: a fixed set of
 * persistent workers, each with its own deque of task indices.  A
 * worker pops from the bottom of its own deque (LIFO, cache-friendly
 * for contiguous blocks) and, when empty, steals from the top of a
 * victim's deque (FIFO, taking the work farthest from the victim's
 * hot end).  Tasks are heavyweight — one co-simulation run each, in
 * the milliseconds-to-seconds range — so per-deque mutexes cost
 * nothing measurable while keeping the scheduler easy to reason
 * about and clean under ThreadSanitizer.
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
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace vsgpu::exec
{

/**
 * Observability hooks around pool batches (exec/progress.hh supplies
 * the standard implementation).  batchStart fires on the
 * parallelFor() caller before any task runs; taskDone fires on
 * whichever worker completed the task, concurrently with other
 * workers, so the callback must be thread-safe.  Task wall times are
 * wall-clock derived and therefore schedule-dependent: anything
 * reported through these hooks is diagnostics, never results.
 */
struct PoolHooks
{
    std::function<void(int numTasks)> batchStart;
    std::function<void(int task, double wallMs)> taskDone;
};

/**
 * Persistent work-stealing pool.
 *
 * A Pool of N threads uses N - 1 background workers plus the calling
 * thread of parallelFor(), so Pool(1) runs everything inline on the
 * caller with no threads.
 */
class Pool
{
  public:
    /**
     * @param threads worker count; 0 selects hardwareJobs().
     */
    explicit Pool(int threads = 0);

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
     * participates as worker slot 0.  Exceptions thrown by tasks are
     * captured; the first one (in completion order) is rethrown here
     * after all remaining tasks have been cancelled and the pool has
     * quiesced.  Not reentrant: a parallelFor() called from inside a
     * task of the same pool panics, whatever the job count.
     */
    void parallelFor(int numTasks,
                     const std::function<void(int)> &body);

    /**
     * Install observability hooks.  Must not be called while a
     * parallelFor() batch is in flight (workers read the hooks
     * without a lock, by the same protocol as body_).
     */
    void setHooks(PoolHooks hooks) { hooks_ = std::move(hooks); }

    /** Tasks executed over the pool's lifetime (observability). */
    std::uint64_t tasksRun() const { return tasksRun_.load(); }

    /** Steals performed over the pool's lifetime (observability). */
    std::uint64_t steals() const { return steals_.load(); }

  private:
    /** One worker's task queue: dense task indices. */
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<int> tasks;
    };

    /** Background worker main loop (slots 1..threads-1). */
    void workerMain(int slot);

    /** Drain the current batch from worker slot @p slot. */
    void drainBatch(int slot);

    /** Pop from own deque bottom, else steal; -1 when none left. */
    int takeTask(int slot);

    int threads_;
    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> workers_;

    std::mutex batchMutex_;
    std::condition_variable batchStart_;
    std::condition_variable batchDone_;
    // batchMutex_ guards the batch state below, except body_ and
    // hooks_.
    std::uint64_t batchGeneration_ = 0;
    /// Tasks not yet finished.
    int batchRemaining_ = 0;
    /// Background workers inside a batch.
    int workersActive_ = 0;
    bool shutdown_ = false;

    // Workers read body_ without the lock, which is safe by
    // protocol: it is written under the lock before the
    // batchGeneration_ bump that releases the workers and read only
    // while the batch it belongs to is in flight.  Non-null marks a
    // batch in flight at every job count (the reentrancy check).
    const std::function<void(int)> *body_ = nullptr;
    std::exception_ptr firstError_;
    bool cancelled_ = false;

    // Same access protocol as body_: written only between batches.
    PoolHooks hooks_;

    std::atomic<std::uint64_t> tasksRun_{0};
    std::atomic<std::uint64_t> steals_{0};
};

} // namespace vsgpu::exec

#endif // VSGPU_EXEC_POOL_HH
