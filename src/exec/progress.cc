#include "exec/progress.hh"

#include <cstdio>
#include <iostream>

#include "obs/profile.hh"

namespace vsgpu::exec
{

namespace
{

/** Minimum wall time between live-line repaints (ns). */
constexpr std::int64_t renderPeriodNs = 100'000'000;

/** Paint the live \r status line from a locked snapshot.  Takes
 *  plain values so the guarded members are only read under mutex_
 *  in the callers. */
void
renderLine(int completed, int total, double wallMsSum,
           double elapsedSec)
{
    const double frac =
        total > 0 ? static_cast<double>(completed) /
                        static_cast<double>(total)
                  : 0.0;
    const double etaSec =
        completed > 0 ? elapsedSec *
                            static_cast<double>(total - completed) /
                            static_cast<double>(completed)
                      : 0.0;
    char line[160];
    std::snprintf(line, sizeof line,
                  "\r[exec] %d/%d tasks (%5.1f%%)  "
                  "avg %7.1f ms/task  eta %6.1f s   ",
                  completed, total, 100.0 * frac,
                  completed > 0
                      ? wallMsSum / static_cast<double>(completed)
                      : 0.0,
                  etaSec);
    std::cerr << line << std::flush; // iostream-ok(live progress line writes straight to stderr, bypassing the pluggable log sink on purpose)
}

} // namespace

ProgressTracker::ProgressTracker(bool live)
    : live_(live)
{
}

void
ProgressTracker::batchStart(int numTasks)
{
    std::lock_guard<std::mutex> lock(mutex_);
    total_ += numTasks;
    if (startNs_ == 0)
        startNs_ = obs::profileNowNs();
}

void
ProgressTracker::taskDone(double wallMs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++completed_;
    wallMsSum_ += wallMs;
    if (!live_)
        return;
    const std::int64_t now = obs::profileNowNs();
    if (completed_ < total_ &&
        now - lastRenderNs_ < renderPeriodNs) {
        return;
    }
    lastRenderNs_ = now;
    renderLine(completed_, total_, wallMsSum_,
               static_cast<double>(now - startNs_) * 1e-9);
    lineOpen_ = true;
}

void
ProgressTracker::finish()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!live_)
        return;
    if (completed_ > 0) {
        renderLine(completed_, total_, wallMsSum_,
                   static_cast<double>(obs::profileNowNs() -
                                       startNs_) *
                       1e-9);
        lineOpen_ = true;
    }
    if (lineOpen_) {
        std::cerr << "\n" << std::flush; // iostream-ok(closing newline for the live stderr progress line)
        lineOpen_ = false;
    }
}

int
ProgressTracker::completed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_;
}

int
ProgressTracker::total() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
}

} // namespace vsgpu::exec
