/**
 * @file
 * Deterministic windowed time-series telemetry of a co-simulation.
 *
 * A TimeSeriesRecorder samples named channels on a *simulated-time*
 * cadence: the caller picks a window length as simulated seconds
 * (--sample-every) and the recorder closes one aggregation window
 * every windowCycles() timesteps, emitting min/max/mean/p99 per
 * channel per window.  Because the window boundaries, the sampled
 * values, and the aggregation arithmetic all derive from simulation
 * state only, the resulting dump is bitwise identical for --jobs 1
 * and --jobs N (docs/parallel_exec.md).
 *
 * Memory stays bounded for any cadence: exact min/max/mean come from
 * streaming accumulators; p99 comes from a per-window sample buffer
 * capped at p99SampleCap samples via a deterministic stride.
 */

#ifndef VSGPU_OBS_TIMESERIES_HH
#define VSGPU_OBS_TIMESERIES_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace vsgpu::obs
{

/** One channel's per-window aggregates (parallel arrays). */
struct TimeSeriesChannel
{
    std::string name;
    std::string unit;
    std::string desc;

    std::vector<double> min;
    std::vector<double> max;
    std::vector<double> mean;
    std::vector<double> p99;
};

/** The windowed series of one co-simulation run. */
struct TimeSeriesRun
{
    /** Caller-assigned identity of the run (sweep-point label). */
    std::string label;

    /** Simulated end time of each window (s). */
    std::vector<double> timeSec;

    /** Cumulative simulated cycles at each window end. */
    std::vector<std::uint64_t> cycles;

    std::vector<TimeSeriesChannel> channels;

    std::size_t windows() const { return timeSec.size(); }
};

/** A dump document: shared cadence plus one entry per run. */
struct TimeSeriesDoc
{
    double sampleEverySec = 0.0; ///< requested window (sim seconds)
    double dtSec = 0.0;          ///< simulation timestep (s)
    std::uint64_t windowCycles = 0; ///< cycles per full window

    /** Runs sorted by label (writeTimeSeriesJson enforces). */
    std::vector<TimeSeriesRun> runs;
};

/** @return cycles per window for a cadence: round(every/dt), >= 1. */
std::uint64_t timeSeriesWindowCycles(double dtSec,
                                     double sampleEverySec);

/**
 * @return an empty dump carrying the cadence header every frontend
 * writes: the timestep and the window of timeSeriesWindowCycles(),
 * also when sampling is off (sampleEverySec <= 0, window 1, no runs).
 */
TimeSeriesDoc timeSeriesHeader(double dtSec, double sampleEverySec);

/**
 * Streaming recorder used inside the cosim loop.  Register channels
 * up front, then per simulated cycle record() values and call
 * endCycle(); finish() flushes a partial final window and returns
 * the completed run.
 */
class TimeSeriesRecorder
{
  public:
    /** Samples per window kept for the p99 estimate; beyond this a
     *  deterministic stride decimates the buffer. */
    static constexpr std::size_t p99SampleCap = 1024;

    TimeSeriesRecorder(double dtSec, double sampleEverySec);

    /** Register a channel; @return its dense id. */
    int addChannel(std::string name, std::string unit,
                   std::string desc);

    /** @return cycles per full aggregation window (>= 1). */
    std::uint64_t windowCycles() const { return windowCycles_; }

    /**
     * Deterministic per-channel sampling stride: targets ~256
     * records per window with a floor of 32 cycles between records
     * (the overhead budget), and the first cycle of every window is
     * always on-stride.  Callers with expensive channel reads may
     * record only on cycles where sampleThisCycle() is true.
     */
    std::uint64_t sampleStride() const { return sampleStride_; }

    /** True when this cycle lies on the sampling stride. */
    bool
    sampleThisCycle() const
    {
        // A wrapping counter instead of cycleInWindow_ %
        // sampleStride_: this is called several times per simulated
        // cycle and a 64-bit divide is the most expensive thing in
        // the recording fast path.
        return cyclesSinceStride_ == 0;
    }

    /** Record one value for this cycle (call before endCycle()). */
    void record(int channel, double value);

    /**
     * Dense-channel fast path: the aggregates (min/max/mean) stay
     * exact over every cycle, but the p99 buffer only takes values
     * on the sampling stride.  This keeps per-cycle channels (rail
     * extrema) inside the BENCH_obs.json overhead budget while the
     * extrema — the signals the paper's droop analysis cares about —
     * lose no precision.
     */
    void recordDense(int channel, double value);

    /** Advance simulated time; closes the window on its boundary. */
    void endCycle();

    /** Flush any partial window and return the run (empty when no
     *  cycle was ever recorded). */
    std::shared_ptr<TimeSeriesRun> finish();

  private:
    struct Accum;
    void closeWindow();
    void pushSample(Accum &a, double value);
    Accum &accumulate(int channel, double value);

    struct Accum
    {
        double min = 0.0;
        double max = 0.0;
        double sum = 0.0;
        std::uint64_t count = 0;
        std::uint64_t sampleCount = 0; ///< values offered for p99
        std::uint64_t keep = 1; ///< decimation stride for samples
        std::vector<double> samples; ///< p99 buffer (capped)
    };

    double dtSec_;
    double sampleEverySec_;
    std::uint64_t windowCycles_;
    std::uint64_t sampleStride_;

    std::uint64_t cycle_ = 0;         ///< total cycles seen
    std::uint64_t cycleInWindow_ = 0; ///< cycles in open window
    std::uint64_t cyclesSinceStride_ = 0; ///< 0 on stride cycles

    std::shared_ptr<TimeSeriesRun> run_;
    std::vector<Accum> accums_;
    std::vector<double> p99Scratch_; ///< reused by closeWindow()
};

/**
 * Write the document as compact columnar JSON.  Runs are emitted
 * sorted by label, so dumps compare bitwise across --jobs values.
 */
void writeTimeSeriesJson(const TimeSeriesDoc &doc, std::ostream &os);

/**
 * Parse a document previously produced by writeTimeSeriesJson().
 * Panics on malformed input;
 * writeTimeSeriesJson(readTimeSeriesJson(x)) == x.
 */
TimeSeriesDoc readTimeSeriesJson(std::istream &is);

} // namespace vsgpu::obs

#endif // VSGPU_OBS_TIMESERIES_HH
