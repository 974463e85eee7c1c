/**
 * @file
 * Per-task progress tracking for sweep/batch runs.
 *
 * A ProgressTracker handed to exec::Pool's constructor counts
 * announced and completed tasks across batches.  With live rendering
 * enabled it also maintains a single carriage-return stderr status
 * line — completed/total, percentage, mean task cost, and a
 * wall-clock ETA — rate-limited so even millisecond tasks cost
 * nothing measurable.
 *
 * Determinism contract: wall timings are schedule-dependent, so they
 * feed the live line only — never results, never dumps.
 */

#ifndef VSGPU_EXEC_PROGRESS_HH
#define VSGPU_EXEC_PROGRESS_HH

#include <cstdint>
#include <mutex>

namespace vsgpu::exec
{

/**
 * Thread-safe progress sink for one or more sequential pool batches.
 */
class ProgressTracker
{
  public:
    /** @param live render a live \r status line on stderr. */
    explicit ProgressTracker(bool live = false);

    /** Begin a batch of @p numTasks tasks. */
    void batchStart(int numTasks);

    /** Count one completed task (thread-safe). */
    void taskDone(double wallMs);

    /** Finish: print the closing summary line when live. */
    void finish();

    /** Tasks completed across all batches so far. */
    int completed() const;

    /** Tasks announced across all batches so far. */
    int total() const;

  private:
    const bool live_;

    mutable std::mutex mutex_;
    int total_ = 0;
    int completed_ = 0;
    double wallMsSum_ = 0.0;
    std::int64_t startNs_ = 0;
    std::int64_t lastRenderNs_ = 0;
    bool lineOpen_ = false;
};

} // namespace vsgpu::exec

#endif // VSGPU_EXEC_PROGRESS_HH
