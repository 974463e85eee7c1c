#include "exec/pool.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/logging.hh"
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

Pool::Pool(int threads)
    : threads_(threads > 0 ? threads : hardwareJobs())
{
    queues_.reserve(static_cast<std::size_t>(threads_));
    for (int i = 0; i < threads_; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    // Slot 0 belongs to the caller of parallelFor(); only the other
    // slots get a background thread.
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int slot = 1; slot < threads_; ++slot)
        workers_.emplace_back([this, slot] { workerMain(slot); });
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
Pool::workerMain(int slot)
{
    std::uint64_t seenGeneration = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(batchMutex_);
            batchStart_.wait(lock, [&] {
                return shutdown_ || batchGeneration_ != seenGeneration;
            });
            if (shutdown_)
                return;
            seenGeneration = batchGeneration_;
            ++workersActive_;
        }
        drainBatch(slot);
        {
            std::lock_guard<std::mutex> lock(batchMutex_);
            --workersActive_;
        }
        batchDone_.notify_all();
    }
}

int
Pool::takeTask(int slot)
{
    // Own deque first: bottom (most recently assigned work, which
    // for the contiguous initial split keeps each worker inside its
    // own block of the sweep).
    {
        auto &own = *queues_[static_cast<std::size_t>(slot)];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.tasks.empty()) {
            const int task = own.tasks.back();
            own.tasks.pop_back();
            return task;
        }
    }
    // Steal from the top of the other deques, scanning in a fixed
    // order starting after our own slot (deterministic scheduler
    // state; task results never depend on who ran what).
    for (int k = 1; k < threads_; ++k) {
        const int victim = (slot + k) % threads_;
        auto &queue = *queues_[static_cast<std::size_t>(victim)];
        std::lock_guard<std::mutex> lock(queue.mutex);
        if (!queue.tasks.empty()) {
            const int task = queue.tasks.front();
            queue.tasks.pop_front();
            steals_.fetch_add(1, std::memory_order_relaxed);
            return task;
        }
    }
    return -1;
}

void
Pool::drainBatch(int slot)
{
    for (;;) {
        const int task = takeTask(slot);
        if (task < 0)
            return;
        bool skip;
        {
            std::lock_guard<std::mutex> lock(batchMutex_);
            skip = cancelled_;
        }
        if (!skip) {
            try {
                const std::int64_t taskStartNs =
                    hooks_.taskDone ? obs::profileNowNs() : 0;
                {
                    obs::ScopedSpan span(obs::CatPool, "pool.task");
                    if (span.live())
                        span.setArg("task", std::to_string(task));
                    (*body_)(task);
                }
                tasksRun_.fetch_add(1, std::memory_order_relaxed);
                if (hooks_.taskDone) {
                    hooks_.taskDone(
                        task,
                        static_cast<double>(obs::profileNowNs() -
                                            taskStartNs) *
                            1e-6);
                }
            } catch (...) {
                std::lock_guard<std::mutex> lock(batchMutex_);
                if (!firstError_)
                    firstError_ = std::current_exception();
                cancelled_ = true;
            }
        }
        {
            std::lock_guard<std::mutex> lock(batchMutex_);
            --batchRemaining_;
        }
        batchDone_.notify_all();
    }
}

VSGPU_CONTRACT void
Pool::parallelFor(int numTasks, const std::function<void(int)> &body)
{
    VSGPU_REQUIRES(numTasks >= 0, "negative task count ", numTasks);
    VSGPU_REQUIRES(static_cast<bool>(body), "null task body");
    if (numTasks == 0)
        return;

    if (hooks_.batchStart)
        hooks_.batchStart(numTasks);

    // Mark the batch in flight at every job count, so a nested
    // submission panics on Pool(1) exactly as it does on Pool(N).
    // The mark clears on every exit, a throwing task's included.
    {
        std::lock_guard<std::mutex> lock(batchMutex_);
        panicIfNot(body_ == nullptr,
                   "Pool::parallelFor is not reentrant");
        body_ = &body;
    }
    struct ClearMark
    {
        Pool &pool;
        ~ClearMark()
        {
            std::lock_guard<std::mutex> lock(pool.batchMutex_);
            pool.body_ = nullptr;
        }
    } clearMark{*this};

    if (threads_ == 1) {
        // Inline fast path: no threads — the determinism baseline
        // every parallel run is measured against.
        for (int i = 0; i < numTasks; ++i) {
            const std::int64_t taskStartNs =
                hooks_.taskDone ? obs::profileNowNs() : 0;
            {
                obs::ScopedSpan span(obs::CatPool, "pool.task");
                if (span.live())
                    span.setArg("task", std::to_string(i));
                body(i);
            }
            tasksRun_.fetch_add(1, std::memory_order_relaxed);
            if (hooks_.taskDone) {
                hooks_.taskDone(
                    i, static_cast<double>(obs::profileNowNs() -
                                           taskStartNs) *
                           1e-6);
            }
        }
        return;
    }

    {
        std::lock_guard<std::mutex> lock(batchMutex_);
        firstError_ = nullptr;
        cancelled_ = false;
        batchRemaining_ = numTasks;
        // Contiguous initial split: slot s owns indices
        // [s*n/k, (s+1)*n/k); stealing rebalances from the far end.
        for (int slot = 0; slot < threads_; ++slot) {
            const int lo = static_cast<int>(
                static_cast<long long>(numTasks) * slot / threads_);
            const int hi = static_cast<int>(
                static_cast<long long>(numTasks) * (slot + 1) /
                threads_);
            auto &queue = *queues_[static_cast<std::size_t>(slot)];
            std::lock_guard<std::mutex> qlock(queue.mutex);
            for (int i = lo; i < hi; ++i)
                queue.tasks.push_back(i);
        }
        ++batchGeneration_;
    }
    batchStart_.notify_all();

    drainBatch(0);

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(batchMutex_);
        batchDone_.wait(lock, [&] {
            return batchRemaining_ == 0 && workersActive_ == 0;
        });
        error = firstError_;
        firstError_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace vsgpu::exec
