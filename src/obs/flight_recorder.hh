/**
 * @file
 * Crash flight recorder: a bounded ring of recent per-cycle samples
 * and events that is dumped when a run dies.
 *
 * The co-simulator records a tiny POD sample (rail min/max plus
 * occasional events) into a thread-local ring every cycle; when a
 * solver failure, NaN/Inf guard trip, or the control-model verify
 * gate aborts the run via fatal()/panic(), the crash hook installed
 * in common/logging dumps the most recent capacity() records —
 * together with the run subject and its manifest config fingerprint
 * — to stderr, and optionally as JSON to a file registered with
 * setFlightDumpPath().  That turns "the sweep died three hours in"
 * into an inspectable tail of simulated history.
 *
 * The recorder is thread-local (one ring per worker thread, matching
 * the one-run-per-task execution model) and always on by default:
 * recording is a handful of stores per cycle and nothing is written
 * anywhere unless the process is already dying.
 */

#ifndef VSGPU_OBS_FLIGHT_RECORDER_HH
#define VSGPU_OBS_FLIGHT_RECORDER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace vsgpu::obs
{

/** One flight-recorder entry; POD so recording is a few stores. */
struct FlightRecord
{
    double timeSec = 0.0;      ///< simulated time
    std::uint64_t cycle = 0;   ///< simulated cycle
    const char *tag = "";      ///< static event tag, e.g. "rail"
    double a = 0.0;            ///< tag-specific value
    double b = 0.0;            ///< tag-specific value
};

/** Per-thread bounded ring of recent records. */
class FlightRecorder
{
  public:
    static constexpr std::size_t capacity() { return 4096; }

    /** @return this thread's recorder. */
    static FlightRecorder &instance();

    /** Reset the ring and attach run identity (subject + manifest
     *  config fingerprint) for the dump banner. */
    void beginRun(std::string subject, std::string fingerprint);

    /** Mark the run over; its records stay readable, but the crash
     *  hook no longer dumps them. */
    void endRun() { inRun_ = false; }

    /** @return whether a run began and has not ended. */
    bool inRun() const { return inRun_; }

    void
    record(const char *tag, double timeSec, std::uint64_t cycle,
           double a, double b)
    {
        FlightRecord &r = ring_[head_];
        r.timeSec = timeSec;
        r.cycle = cycle;
        r.tag = tag;
        r.a = a;
        r.b = b;
        head_ = (head_ + 1) % capacity();
        ++recorded_;
    }

    /** Records currently held (<= capacity()). */
    std::size_t size() const;

    /** Total records ever written this run. */
    std::uint64_t recorded() const { return recorded_; }

    /** Held records in chronological order. */
    std::vector<FlightRecord> records() const;

    const std::string &subject() const { return subject_; }
    const std::string &fingerprint() const { return fingerprint_; }

    /** Human-readable dump (banner + one line per record). */
    void writeText(std::ostream &os) const;

    /** JSON dump (schema vsgpu-flight-v1). */
    void writeJson(std::ostream &os) const;

  private:
    std::array<FlightRecord, 4096> ring_{};
    std::size_t head_ = 0;
    std::uint64_t recorded_ = 0;
    std::string subject_;
    std::string fingerprint_;
    bool inRun_ = false;
};

/** Global recording gate (relaxed atomic; default on). */
bool flightRecorderEnabled();
void setFlightRecorderEnabled(bool on);

/** Register a path that receives the JSON dump on crash (empty
 *  clears it).  Process-wide. */
void setFlightDumpPath(std::string path);

/**
 * Install the crash hook that dumps this thread's recorder on
 * fatal()/panic().  Idempotent; the co-simulator calls it at run
 * start.  The hook fires at the fatal()/panic() site, before any
 * unwinding, and dumps only while a run is in progress on the
 * crashing thread: CLI argument errors and output errors after a run
 * ended print no dump.
 */
void installFlightRecorderCrashDump();

} // namespace vsgpu::obs

#endif // VSGPU_OBS_FLIGHT_RECORDER_HH
