/**
 * @file
 * Per-task progress tracking for sweep/batch runs.
 *
 * A ProgressTracker plugs into exec::Pool via PoolHooks and records
 * one TaskRecord per completed task (batch number, task index, wall
 * milliseconds).  With live rendering enabled it also maintains a
 * single carriage-return stderr status line — completed/total,
 * percentage, mean task cost, and a wall-clock ETA — rate-limited so
 * even millisecond tasks cost nothing measurable.
 *
 * Determinism contract: wall timings are schedule-dependent, so the
 * records feed the scenario summary's optional diagnostics block and
 * the live line only — never results, never determinism-gated dumps.
 * The snapshot is sorted by (batch, task), so the record *ordering*
 * is stable across job counts even though the timings are not.
 */

#ifndef VSGPU_EXEC_PROGRESS_HH
#define VSGPU_EXEC_PROGRESS_HH

#include <cstdint>
#include <mutex>
#include <vector>

#include "exec/pool.hh"

namespace vsgpu::exec
{

/** One completed pool task (wall time is schedule-dependent). */
struct TaskRecord
{
    int batch = 0;  ///< parallelFor() batch number (0-based)
    int task = 0;   ///< task index within the batch
    double wallMs = 0.0; ///< wall-clock task duration
};

/**
 * Thread-safe progress sink for one or more sequential pool batches.
 */
class ProgressTracker
{
  public:
    /** @param live render a live \r status line on stderr. */
    explicit ProgressTracker(bool live = false);

    /** @return hooks bound to this tracker (install via setHooks). */
    PoolHooks hooks();

    /** Begin a batch of @p numTasks tasks. */
    void batchStart(int numTasks);

    /** Record one completed task (thread-safe). */
    void taskDone(int task, double wallMs);

    /** Finish: print the closing summary line when live. */
    void finish();

    /** Tasks completed across all batches so far. */
    int completed() const;

    /** Tasks announced across all batches so far. */
    int total() const;

    /** Snapshot of all records, sorted by (batch, task). */
    std::vector<TaskRecord> records() const;

  private:
    const bool live_;

    mutable std::mutex mutex_;
    std::vector<TaskRecord> records_;
    int batch_ = -1;
    int total_ = 0;
    int completed_ = 0;
    double wallMsSum_ = 0.0;
    std::int64_t startNs_ = 0;
    std::int64_t lastRenderNs_ = 0;
    bool lineOpen_ = false;
};

} // namespace vsgpu::exec

#endif // VSGPU_EXEC_PROGRESS_HH
