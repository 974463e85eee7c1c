#include "obs/flight_recorder.hh"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <ostream>

#include "common/logging.hh"
#include "obs/json.hh"

namespace vsgpu::obs
{

namespace
{

std::atomic<bool> flightEnabled{true};

std::mutex dumpPathMutex;
std::string dumpPath; // guarded by dumpPathMutex

std::string
dumpPathCopy()
{
    std::lock_guard<std::mutex> lock(dumpPathMutex);
    return dumpPath;
}

} // namespace

FlightRecorder &
FlightRecorder::instance()
{
    thread_local FlightRecorder recorder;
    return recorder;
}

void
FlightRecorder::beginRun(std::string subject, std::string fingerprint)
{
    head_ = 0;
    recorded_ = 0;
    subject_ = std::move(subject);
    fingerprint_ = std::move(fingerprint);
    inRun_ = true;
}

std::size_t
FlightRecorder::size() const
{
    return recorded_ < capacity()
               ? static_cast<std::size_t>(recorded_)
               : capacity();
}

std::vector<FlightRecord>
FlightRecorder::records() const
{
    std::vector<FlightRecord> out;
    const std::size_t held = size();
    out.reserve(held);
    const std::size_t start =
        recorded_ < capacity() ? 0 : head_;
    for (std::size_t i = 0; i < held; ++i)
        out.push_back(ring_[(start + i) % capacity()]);
    return out;
}

void
FlightRecorder::writeText(std::ostream &os) const
{
    os << "==== vsgpu flight recorder ====\n";
    os << "subject: "
       << (subject_.empty() ? "(unknown)" : subject_) << "\n";
    os << "config fingerprint: "
       << (fingerprint_.empty() ? "(none)" : fingerprint_) << "\n";
    os << "records: " << size() << " held of " << recorded_
       << " recorded (capacity " << capacity() << ")\n";
    os << "      cycle       time(s)          tag"
          "             a             b\n";
    for (const FlightRecord &r : records()) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%11llu  %12.6e  %11s  %12.6g  %12.6g\n",
                      static_cast<unsigned long long>(r.cycle),
                      r.timeSec, r.tag, r.a, r.b);
        os << line;
    }
    os << "==== end flight recorder ====\n";
}

void
FlightRecorder::writeJson(std::ostream &os) const
{
    os << "{\n";
    os << "  \"schema\": \"vsgpu-flight-v1\",\n";
    os << "  \"subject\": " << jsonQuote(subject_) << ",\n";
    os << "  \"config_fingerprint\": " << jsonQuote(fingerprint_)
       << ",\n";
    os << "  \"capacity\": " << capacity() << ",\n";
    os << "  \"recorded\": " << recorded_ << ",\n";
    os << "  \"records\": [";
    bool first = true;
    for (const FlightRecord &r : records()) {
        if (!first)
            os << ",";
        first = false;
        char line[200];
        std::snprintf(line, sizeof(line),
                      "\n    {\"cycle\": %llu, \"time_sec\": %.17g, "
                      "\"tag\": \"%s\", \"a\": %.17g, \"b\": %.17g}",
                      static_cast<unsigned long long>(r.cycle),
                      r.timeSec, r.tag, r.a, r.b);
        os << line;
    }
    if (!first)
        os << "\n  ";
    os << "]\n";
    os << "}\n";
}

bool
flightRecorderEnabled()
{
    return flightEnabled.load(std::memory_order_relaxed);
}

void
setFlightRecorderEnabled(bool on)
{
    flightEnabled.store(on, std::memory_order_relaxed);
}

void
setFlightDumpPath(std::string path)
{
    std::lock_guard<std::mutex> lock(dumpPathMutex);
    dumpPath = std::move(path);
}

namespace
{

void
flightCrashDump(LogLevel, const std::string &)
{
    // Runs on the crashing thread, so instance() is the ring that
    // recorded the dying run.
    const FlightRecorder &recorder = FlightRecorder::instance();
    if (!recorder.inRun())
        return;
    // The dump must reach the terminal even when a test or frontend
    // replaced the log sink: the process is about to terminate and
    // this is the last diagnostic it will ever produce.
    recorder.writeText(std::cerr); // iostream-ok(crash-path dump bypasses the pluggable log sink on purpose)
    const std::string path = dumpPathCopy();
    if (!path.empty()) {
        std::ofstream out(path);
        if (out)
            recorder.writeJson(out);
    }
}

} // namespace

void
installFlightRecorderCrashDump()
{
    setCrashHook(&flightCrashDump);
}

} // namespace vsgpu::obs
