#include "obs/timeseries.hh"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "common/check.hh"
#include "common/logging.hh"
#include "obs/json.hh"

namespace vsgpu::obs
{

namespace
{

/** Write a JSON array of doubles (shortest exact form) or counts. */
template <typename T>
void
writeArray(std::ostream &os, const std::vector<T> &v)
{
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0)
            os << ", ";
        if constexpr (std::is_same_v<T, double>)
            os << jsonNumber(v[i]);
        else
            os << v[i];
    }
    os << "]";
}

/** Exact p99 (nearest-rank) of the samples.  The caller-owned
 *  scratch buffer absorbs the nth_element reorder so closing a
 *  window allocates nothing once the buffers are warm. */
double
percentile99(const std::vector<double> &samples,
             std::vector<double> &scratch)
{
    if (samples.empty())
        return 0.0;
    scratch.assign(samples.begin(), samples.end());
    const std::size_t rank =
        (scratch.size() * 99 + 99) / 100; // ceil(0.99 * n)
    const std::size_t idx = std::min(rank, scratch.size()) - 1;
    std::nth_element(scratch.begin(),
                     scratch.begin() + static_cast<std::ptrdiff_t>(idx),
                     scratch.end());
    return scratch[idx];
}

} // namespace

std::uint64_t
timeSeriesWindowCycles(double dtSec, double sampleEverySec)
{
    if (!(dtSec > 0.0) || !(sampleEverySec > 0.0))
        return 1;
    const double cycles = sampleEverySec / dtSec;
    const auto rounded =
        static_cast<std::uint64_t>(std::llround(cycles));
    return std::max<std::uint64_t>(1, rounded);
}

TimeSeriesDoc
timeSeriesHeader(double dtSec, double sampleEverySec)
{
    TimeSeriesDoc doc;
    doc.sampleEverySec = sampleEverySec;
    doc.dtSec = dtSec;
    doc.windowCycles = timeSeriesWindowCycles(dtSec, sampleEverySec);
    return doc;
}

// ---------------- TimeSeriesRecorder ----------------

TimeSeriesRecorder::TimeSeriesRecorder(double dtSec,
                                       double sampleEverySec)
    : dtSec_(dtSec), sampleEverySec_(sampleEverySec),
      windowCycles_(timeSeriesWindowCycles(dtSec, sampleEverySec)),
      run_(std::make_shared<TimeSeriesRun>())
{
    // Strided channels target ~256 records per window with a floor
    // of 32 cycles between records: short windows (a few hundred
    // cycles) would otherwise record every cycle and the sampling
    // cost would scale with channel count instead of staying inside
    // the BENCH_obs.json overhead budget.  The first cycle of every
    // window is always on-stride, so even a 1-cycle window gets a
    // record.
    sampleStride_ =
        std::max<std::uint64_t>(32, windowCycles_ / 256);
}

int
TimeSeriesRecorder::addChannel(std::string name, std::string unit,
                               std::string desc)
{
    VSGPU_REQUIRES(cycle_ == 0,
                   "time-series channels must be registered before "
                   "the first cycle");
    TimeSeriesChannel ch;
    ch.name = std::move(name);
    ch.unit = std::move(unit);
    ch.desc = std::move(desc);
    run_->channels.push_back(std::move(ch));
    accums_.emplace_back();
    return static_cast<int>(run_->channels.size()) - 1;
}

void
TimeSeriesRecorder::pushSample(Accum &a, double value)
{
    // Deterministic doubling-stride decimation: the p99 buffer
    // covers the whole window at progressively coarser resolution
    // instead of only its first p99SampleCap records.  The keep == 1
    // short-circuit skips the divide in the common case of a window
    // that never overflows the sample cap.
    ++a.sampleCount;
    if (a.keep != 1 && (a.sampleCount - 1) % a.keep != 0)
        return;
    if (a.samples.size() >= p99SampleCap) {
        std::size_t w = 0;
        for (std::size_t r = 0; r < a.samples.size(); r += 2)
            a.samples[w++] = a.samples[r];
        a.samples.resize(w);
        a.keep *= 2;
        if ((a.sampleCount - 1) % a.keep != 0)
            return;
    }
    a.samples.push_back(value);
}

TimeSeriesRecorder::Accum &
TimeSeriesRecorder::accumulate(int channel, double value)
{
    VSGPU_REQUIRES(channel >= 0 &&
                       static_cast<std::size_t>(channel) <
                           accums_.size(),
                   "time-series channel id out of range");
    Accum &a = accums_[static_cast<std::size_t>(channel)];
    if (a.count == 0) {
        a.min = value;
        a.max = value;
    } else {
        a.min = std::min(a.min, value);
        a.max = std::max(a.max, value);
    }
    a.sum += value;
    ++a.count;
    return a;
}

void
TimeSeriesRecorder::record(int channel, double value)
{
    pushSample(accumulate(channel, value), value);
}

void
TimeSeriesRecorder::recordDense(int channel, double value)
{
    Accum &a = accumulate(channel, value);
    // The p99 estimate takes the on-stride subsample only; the
    // aggregates above stay exact over every cycle.
    if (sampleThisCycle())
        pushSample(a, value);
}

void
TimeSeriesRecorder::endCycle()
{
    ++cycle_;
    ++cycleInWindow_;
    if (++cyclesSinceStride_ >= sampleStride_)
        cyclesSinceStride_ = 0;
    if (cycleInWindow_ >= windowCycles_)
        closeWindow();
}

void
TimeSeriesRecorder::closeWindow()
{
    run_->timeSec.push_back(static_cast<double>(cycle_) * dtSec_);
    run_->cycles.push_back(cycle_);
    for (std::size_t c = 0; c < accums_.size(); ++c) {
        Accum &a = accums_[c];
        TimeSeriesChannel &ch = run_->channels[c];
        if (a.count == 0) {
            ch.min.push_back(0.0);
            ch.max.push_back(0.0);
            ch.mean.push_back(0.0);
            ch.p99.push_back(0.0);
        } else {
            ch.min.push_back(a.min);
            ch.max.push_back(a.max);
            ch.mean.push_back(a.sum /
                              static_cast<double>(a.count));
            ch.p99.push_back(percentile99(a.samples, p99Scratch_));
        }
        // Field-wise reset keeps the sample buffer's capacity so the
        // next window records without re-allocating.
        a.min = 0.0;
        a.max = 0.0;
        a.sum = 0.0;
        a.count = 0;
        a.sampleCount = 0;
        a.keep = 1;
        a.samples.clear();
    }
    cycleInWindow_ = 0;
    // The first cycle of every window is on-stride by contract.
    cyclesSinceStride_ = 0;
}

std::shared_ptr<TimeSeriesRun>
TimeSeriesRecorder::finish()
{
    if (cycleInWindow_ > 0)
        closeWindow();
    return run_;
}

// ---------------- serialization ----------------

namespace
{

void
writeChannel(std::ostream &os, const TimeSeriesChannel &ch,
             const char *indent)
{
    os << indent << "{\n";
    os << indent << "  \"name\": " << jsonQuote(ch.name) << ",\n";
    os << indent << "  \"unit\": " << jsonQuote(ch.unit) << ",\n";
    os << indent << "  \"desc\": " << jsonQuote(ch.desc) << ",\n";
    os << indent << "  \"min\": ";
    writeArray(os, ch.min);
    os << ",\n";
    os << indent << "  \"max\": ";
    writeArray(os, ch.max);
    os << ",\n";
    os << indent << "  \"mean\": ";
    writeArray(os, ch.mean);
    os << ",\n";
    os << indent << "  \"p99\": ";
    writeArray(os, ch.p99);
    os << "\n";
    os << indent << "}";
}

} // namespace

void
writeTimeSeriesJson(const TimeSeriesDoc &doc, std::ostream &os)
{
    std::vector<const TimeSeriesRun *> runs;
    runs.reserve(doc.runs.size());
    for (const TimeSeriesRun &run : doc.runs)
        runs.push_back(&run);
    std::sort(runs.begin(), runs.end(),
              [](const TimeSeriesRun *a, const TimeSeriesRun *b) {
                  return a->label < b->label;
              });

    os << "{\n";
    os << "  \"schema\": \"vsgpu-timeseries-v1\",\n";
    os << "  \"sample_every_sec\": "
       << jsonNumber(doc.sampleEverySec) << ",\n";
    os << "  \"dt_sec\": " << jsonNumber(doc.dtSec) << ",\n";
    os << "  \"window_cycles\": " << doc.windowCycles << ",\n";
    os << "  \"runs\": [";
    bool firstRun = true;
    for (const TimeSeriesRun *run : runs) {
        if (!firstRun)
            os << ",";
        firstRun = false;
        os << "\n    {\n";
        os << "      \"label\": " << jsonQuote(run->label) << ",\n";
        os << "      \"time_sec\": ";
        writeArray(os, run->timeSec);
        os << ",\n";
        os << "      \"cycles\": ";
        writeArray(os, run->cycles);
        os << ",\n";
        os << "      \"channels\": [";
        bool firstCh = true;
        for (const TimeSeriesChannel &ch : run->channels) {
            if (!firstCh)
                os << ",";
            firstCh = false;
            os << "\n";
            writeChannel(os, ch, "        ");
        }
        if (!firstCh)
            os << "\n      ";
        os << "]\n";
        os << "    }";
    }
    if (!firstRun)
        os << "\n  ";
    os << "]\n";
    os << "}\n";
}

TimeSeriesDoc
readTimeSeriesJson(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    JsonReader in(buf.str(), "timeseries JSON");
    TimeSeriesDoc doc;
    const auto channel = [&in](TimeSeriesChannel &ch) {
        in.object([&](const std::string &key) {
            if (key == "name")
                ch.name = in.string();
            else if (key == "unit")
                ch.unit = in.string();
            else if (key == "desc")
                ch.desc = in.string();
            else if (key == "min")
                ch.min = in.numbers();
            else if (key == "max")
                ch.max = in.numbers();
            else if (key == "mean")
                ch.mean = in.numbers();
            else if (key == "p99")
                ch.p99 = in.numbers();
            else
                in.fail("unknown channel key '", key, "'");
        });
    };
    const auto run = [&](TimeSeriesRun &r) {
        in.object([&](const std::string &key) {
            if (key == "label") {
                r.label = in.string();
            } else if (key == "time_sec") {
                r.timeSec = in.numbers();
            } else if (key == "cycles") {
                for (double v : in.numbers())
                    r.cycles.push_back(static_cast<std::uint64_t>(v));
            } else if (key == "channels") {
                in.array([&](std::size_t) {
                    channel(r.channels.emplace_back());
                });
            } else {
                in.fail("unknown run key '", key, "'");
            }
        });
    };
    in.object([&](const std::string &key) {
        if (key == "schema") {
            const std::string schema = in.string();
            if (schema != "vsgpu-timeseries-v1")
                in.fail("unknown schema '", schema, "'");
        } else if (key == "sample_every_sec") {
            doc.sampleEverySec = in.number();
        } else if (key == "dt_sec") {
            doc.dtSec = in.number();
        } else if (key == "window_cycles") {
            doc.windowCycles = static_cast<std::uint64_t>(in.number());
        } else if (key == "runs") {
            in.array([&](std::size_t) { run(doc.runs.emplace_back()); });
        } else {
            in.fail("unknown key '", key, "'");
        }
    });
    return doc;
}

} // namespace vsgpu::obs
