/**
 * @file
 * Structured event tracer emitting Chrome trace_event JSON.
 *
 * The trace is a flat list of complete spans ("X" events, with
 * microsecond timestamps and durations) and instant events ("i"),
 * grouped by category: phase spans (setup, DC solve, AC scan,
 * transient chunks), per-task pool spans (with per-thread track
 * ids), controller actions, and hypervisor actions.  The output
 * loads directly in Perfetto / chrome://tracing.
 *
 * Cost model: tracing is off by default.  Every instrumentation
 * point first reads one namespace-scope atomic mask with relaxed
 * ordering — when the category bit is clear, that single load is
 * the entire cost (no time query, no allocation, no lock).  The
 * perf_microbench BM_TraceScopeDisabled case pins this down.
 *
 * Timestamps are wall-clock and therefore non-deterministic; the
 * tracer only ever *observes* the run and never feeds back into
 * simulation state, so golden traces and summary JSON stay
 * bit-identical whether tracing is enabled or not.
 */

#ifndef VSGPU_OBS_TRACE_HH
#define VSGPU_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vsgpu::obs
{

/** Trace category bits (combine with |). */
enum : std::uint32_t
{
    CatPhase = 1u << 0, ///< run phases: setup, solves, chunks
    CatPool = 1u << 1,  ///< exec pool tasks, per worker thread
    CatCtl = 1u << 2,   ///< controller decisions / actuations
    CatHv = 1u << 3,    ///< hypervisor DFS / power-gating actions
    CatAll = CatPhase | CatPool | CatCtl | CatHv,
};

/**
 * Parse a --trace-categories value: comma-separated category names
 * ("phase", "pool", "ctl", "hv") or "all".  Panics on unknown
 * names; an empty string means all categories.
 */
std::uint32_t parseTraceCategories(const std::string &csv);

/** @return the canonical name of a single category bit. */
const char *traceCategoryName(std::uint32_t cat);

/** Enabled-category mask; zero (the default) disables tracing. */
extern std::atomic<std::uint32_t> traceMask;

/** One recorded event (span or instant). */
struct TraceEvent
{
    char phase = 'X';       ///< 'X' complete span, 'i' instant
    std::uint32_t cat = 0;  ///< single category bit
    const char *name = ""; ///< static string (macro literal)
    std::uint32_t tid = 0;  ///< dense per-thread track id
    double tsUs = 0.0;      ///< start, µs since tracing start
    double durUs = 0.0;     ///< span duration, µs ('X' only)
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * Process-wide trace collector.  Thread-safe: events append under a
 * mutex (only ever taken on the enabled path).  Bounded: past
 * maxEvents() the buffer becomes a ring that evicts the oldest
 * event (with a one-time warning); droppedEvents() counts the
 * evictions and is surfaced as the schedule-dependent stat
 * obs.trace.dropped_events.
 */
class Tracer
{
  public:
    static Tracer &instance();

    /** Enable the given categories and reset the time origin. */
    void enable(std::uint32_t mask);

    /** Disable all tracing (recorded events are kept). */
    void disable();

    static bool
    enabledFor(std::uint32_t cat)
    {
        return (traceMask.load(std::memory_order_relaxed) & cat) !=
               0;
    }

    /** µs since enable(); wall-clock, observability only. */
    double nowUs() const;

    /** Dense id of the calling thread (0 = first thread seen). */
    static std::uint32_t threadId();

    void complete(std::uint32_t cat, const char *name, double tsUs,
                  double durUs,
                  std::vector<std::pair<std::string, std::string>>
                      args = {});
    void instant(std::uint32_t cat, const char *name,
                 std::vector<std::pair<std::string, std::string>>
                     args = {});

    std::size_t numEvents() const;

    /** Held events in chronological (oldest-first) order. */
    std::vector<TraceEvent> events() const;

    /** Events evicted from the ring since the last clear(). */
    std::uint64_t droppedEvents() const;

    void clear();

    static constexpr std::size_t maxEvents() { return 1u << 20; }

    /** Write the Chrome trace_event JSON document. */
    void writeJson(std::ostream &os) const;

  private:
    Tracer() = default;

    void push(TraceEvent event);

    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
    /** Ring head once events_ is full: index of the oldest event. */
    std::size_t head_ = 0;
    /** Events evicted (overwritten) since the last clear(). */
    std::uint64_t dropped_ = 0;
    // originNs_ is outside mutex_: nowUs() reads it without the
    // lock, which is safe by protocol — enable() writes it under
    // the mutex before the traceMask store that makes any
    // instrumentation point call nowUs() at all.
    std::int64_t originNs_ = 0; ///< steady-clock ns at enable()
};

/**
 * RAII span: records a complete event covering its lifetime.  When
 * the category is disabled at construction the object is inert (one
 * relaxed atomic load, nothing else).
 */
class ScopedSpan
{
  public:
    ScopedSpan(std::uint32_t cat, const char *name)
    {
        if (Tracer::enabledFor(cat)) {
            cat_ = cat;
            name_ = name;
            startUs_ = Tracer::instance().nowUs();
        }
    }

    ~ScopedSpan() { end(); }

    /** Finish the span early (idempotent; destructor otherwise). */
    void
    end()
    {
        if (cat_ != 0) {
            Tracer &tracer = Tracer::instance();
            tracer.complete(cat_, name_, startUs_,
                            tracer.nowUs() - startUs_,
                            std::move(args_));
            cat_ = 0;
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** True when this span is actually recording. */
    bool live() const { return cat_ != 0; }

    /** Attach an argument (only call when live()). */
    void
    setArg(std::string key, std::string value)
    {
        args_.emplace_back(std::move(key), std::move(value));
    }

  private:
    std::uint32_t cat_ = 0;
    const char *name_ = "";
    double startUs_ = 0.0;
    std::vector<std::pair<std::string, std::string>> args_;
};

/** Span covering the enclosing scope; name must be a literal. */
#define VSGPU_TRACE_SCOPE(cat, name)                                 \
    ::vsgpu::obs::ScopedSpan vsgpuTraceSpan##__LINE__(cat, name)

/** Instant event; no-op (one relaxed load) when cat is disabled. */
#define VSGPU_TRACE_INSTANT(cat, name)                               \
    do {                                                             \
        if (::vsgpu::obs::Tracer::enabledFor(cat))                   \
            ::vsgpu::obs::Tracer::instance().instant(cat, name);     \
    } while (false)

} // namespace vsgpu::obs

#endif // VSGPU_OBS_TRACE_HH
