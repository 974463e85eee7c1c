#include "exec/pool.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/logging.hh"
#include "exec/progress.hh"
#include "obs/profile.hh"
#include "obs/trace.hh"

namespace vsgpu::exec
{

int
Pool::hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1, static_cast<int>(hw));
}

Pool::Pool(int threads, ProgressTracker *progress)
    : threads_(threads > 0 ? threads : hardwareJobs()),
      progress_(progress)
{
    // The caller of parallelFor() is the first of the threads_.
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int i = 1; i < threads_; ++i)
        workers_.emplace_back([this] { workerMain(); });
}

Pool::~Pool()
{
    {
        std::lock_guard<std::mutex> lock(batchMutex_);
        shutdown_ = true;
    }
    batchStart_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
Pool::workerMain()
{
    std::uint64_t seenGeneration = 0;
    for (;;) {
        const std::function<void(int)> *body;
        int numTasks;
        {
            std::unique_lock<std::mutex> lock(batchMutex_);
            batchStart_.wait(lock, [&] {
                return shutdown_ || batchGeneration_ != seenGeneration;
            });
            if (shutdown_)
                return;
            seenGeneration = batchGeneration_;
            if (body_ == nullptr)
                continue; // woke after the batch finished
            body = body_;
            numTasks = numTasks_;
            ++workersActive_;
        }
        drainBatch(*body, numTasks);
        {
            std::lock_guard<std::mutex> lock(batchMutex_);
            --workersActive_;
        }
        batchDone_.notify_all();
    }
}

void
Pool::drainBatch(const std::function<void(int)> &body, int numTasks)
{
    for (;;) {
        const int task = next_.fetch_add(1);
        if (task >= numTasks)
            return;
        try {
            const std::int64_t taskStartNs =
                progress_ ? obs::profileNowNs() : 0;
            {
                obs::ScopedSpan span(obs::CatPool, "pool.task");
                if (span.live())
                    span.setArg("task", std::to_string(task));
                body(task);
            }
            tasksRun_.fetch_add(1, std::memory_order_relaxed);
            if (progress_) {
                progress_->taskDone(
                    static_cast<double>(obs::profileNowNs() -
                                        taskStartNs) *
                    1e-6);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(batchMutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
            next_.store(numTasks); // cancel the unclaimed tasks
        }
    }
}

void
Pool::parallelFor(int numTasks, const std::function<void(int)> &body)
{
    VSGPU_REQUIRES(numTasks >= 0, "negative task count ", numTasks);
    VSGPU_REQUIRES(static_cast<bool>(body), "null task body");
    if (numTasks == 0)
        return;

    if (progress_)
        progress_->batchStart(numTasks);

    {
        std::lock_guard<std::mutex> lock(batchMutex_);
        panicIfNot(body_ == nullptr,
                   "Pool::parallelFor is not reentrant");
        body_ = &body;
        numTasks_ = numTasks;
        next_.store(0);
        ++batchGeneration_;
    }
    batchStart_.notify_all();

    drainBatch(body, numTasks);

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(batchMutex_);
        batchDone_.wait(lock, [&] { return workersActive_ == 0; });
        body_ = nullptr;
        error = firstError_;
        firstError_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace vsgpu::exec
