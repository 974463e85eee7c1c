/**
 * @file
 * Logging and error-reporting helpers in the gem5 tradition.
 *
 * Two error functions with distinct purposes:
 *   - panic():  something happened that should never happen regardless
 *               of what the user does (a simulator bug).  Aborts.
 *   - fatal():  the simulation cannot continue because of a user error
 *               (bad configuration, invalid arguments).  Exits with 1.
 *
 * Status functions that never stop the simulation:
 *   - inform():    normal operating message.
 *   - warn():      functionality that might not behave as expected.
 *   - warn_once(): like warn(), but at most once per callsite.
 *
 * Output routing: messages go to a pluggable sink (stderr by
 * default; tests install their own with setLogSink()).  Inform/warn
 * visibility is filtered by a threshold taken from the
 * VSGPU_LOG_LEVEL environment variable ("info", "warn",
 * "fatal"/"error", "none"/"quiet") or overridden programmatically
 * with setLogThreshold(); fatal() and panic() always pass.
 */

#ifndef VSGPU_COMMON_LOGGING_HH
#define VSGPU_COMMON_LOGGING_HH

#include <atomic>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>

namespace vsgpu
{

/** Severity levels understood by the log sink. */
enum class LogLevel
{
    Inform,
    Warn,
    Fatal,
    Panic,
};

namespace detail
{

/** Concatenate arbitrary streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    ((oss << std::forward<Args>(args)), ...);
    return oss.str();
}

/** Emit one formatted log line to stderr. */
void emitLog(LogLevel level, const std::string &msg);

} // namespace detail

/** Whether inform()/warn() output is suppressed (e.g. during tests). */
void setLogQuiet(bool quiet);

/** @return true when inform()/warn() output is suppressed. */
bool logQuiet();

/** Sink receiving every emitted (non-filtered) log line. */
using LogSink = std::function<void(LogLevel, const std::string &)>;

/**
 * Install a log sink; pass an empty function to restore the default
 * stderr sink.  Tests use this to capture inform/warn output.
 */
void setLogSink(LogSink sink);

/**
 * Override the visibility threshold: messages below @p level are
 * dropped (Fatal/Panic always pass).  Normally the threshold comes
 * from the VSGPU_LOG_LEVEL environment variable, parsed lazily on
 * first emission; this setter takes precedence (tests, CLI flags).
 */
void setLogThreshold(LogLevel level);

/** Callback invoked once, right after the first Fatal/Panic message
 *  is emitted and before the process terminates. */
using CrashHook = void (*)(LogLevel, const std::string &msg);

/**
 * Install a process-wide crash hook (the flight recorder uses this
 * to dump its ring buffer).  The hook runs at most once per process
 * — a fatal() raised inside the hook itself cannot recurse — and a
 * null pointer uninstalls it.
 */
void setCrashHook(CrashHook hook);

/**
 * Report an unrecoverable user-caused error and exit(1).
 * Use for bad configurations or invalid arguments.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::emitLog(LogLevel::Fatal,
                    detail::concat(std::forward<Args>(args)...));
    std::exit(1);
}

/**
 * Report an internal invariant violation (a simulator bug) and abort().
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::emitLog(LogLevel::Panic,
                    detail::concat(std::forward<Args>(args)...));
    std::abort();
}

/** Emit a warning that does not stop the simulation. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emitLog(LogLevel::Warn,
                    detail::concat(std::forward<Args>(args)...));
}

/** Emit an informational status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::emitLog(LogLevel::Inform,
                    detail::concat(std::forward<Args>(args)...));
}

/**
 * Emit a warning at most once per callsite (per process), however
 * many times control passes through it.  Implemented as a macro so
 * each textual use gets its own latch.
 */
#define warn_once(...)                                               \
    do {                                                             \
        static std::atomic<bool> vsgpuWarnedOnce{false};             \
        if (!vsgpuWarnedOnce.exchange(true))                         \
            ::vsgpu::warn(__VA_ARGS__);                              \
    } while (false)

/**
 * Assert a simulator invariant; on failure, panic with the message.
 * Active in all build types (unlike assert()).
 */
template <typename... Args>
void
panicIfNot(bool condition, Args &&...args)
{
    if (!condition)
        panic(std::forward<Args>(args)...);
}

/** Fatal-if helper for validating user-supplied configuration. */
template <typename... Args>
void
fatalIf(bool condition, Args &&...args)
{
    if (condition)
        fatal(std::forward<Args>(args)...);
}

} // namespace vsgpu

#endif // VSGPU_COMMON_LOGGING_HH
