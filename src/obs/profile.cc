#include "obs/profile.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"
#include "obs/json.hh"

namespace vsgpu::obs
{

namespace
{

std::atomic<bool> profilingOn{false};
// Default sampling stride: the stage marks are clock reads (~20 ns
// each, ~10 per sampled cycle), so sampling one cycle in 32 keeps
// the enabled profiler inside the <=2% loop-overhead budget gated in
// BENCH_obs.json while still collecting hundreds of samples per
// stage on any realistic run.
std::atomic<int> profilingStrideCycles{32};

/** @return histogram bucket for a duration: floor(log2(ns)). */
int
histBucket(std::uint64_t ns)
{
    int bucket = 0;
    while (ns > 1 && bucket < profileHistBuckets - 1) {
        ns >>= 1;
        ++bucket;
    }
    return bucket;
}

} // namespace

const char *
profileStageName(int stage)
{
    switch (stage) {
      case StageSetup:           return "setup";
      case StageFinalize:        return "finalize";
      case StageGpu:             return "gpu";
      case StagePower:           return "power";
      case StageCircuit:         return "circuit";
      case StageControl:         return "control";
      case StageHypervisor:      return "hypervisor";
      case StageObserve:         return "observe";
      case StageBookkeeping:     return "bookkeeping";
      case StageCircuitAssemble: return "circuit.assemble";
      case StageCircuitSolve:    return "circuit.solve";
      case StageCircuitRefactor: return "circuit.refactor";
      case StageCircuitUpdate:   return "circuit.update";
    }
    return "?";
}

void
StageTotals::add(std::uint64_t durationNs)
{
    ns += durationNs;
    ++samples;
    ++hist[static_cast<std::size_t>(histBucket(durationNs))];
}

void
StageTotals::merge(const StageTotals &other)
{
    ns += other.ns;
    samples += other.samples;
    for (int b = 0; b < profileHistBuckets; ++b)
        hist[static_cast<std::size_t>(b)] +=
            other.hist[static_cast<std::size_t>(b)];
}

double
StageTotals::percentileNs(double frac) const
{
    if (samples == 0)
        return 0.0;
    const double target = frac * static_cast<double>(samples);
    std::uint64_t cum = 0;
    for (int b = 0; b < profileHistBuckets; ++b) {
        cum += hist[static_cast<std::size_t>(b)];
        if (static_cast<double>(cum) >= target)
            return 1.5 * std::pow(2.0, b); // bucket midpoint
    }
    return 1.5 * std::pow(2.0, profileHistBuckets - 1);
}

void
Profile::merge(const Profile &other)
{
    for (int s = 0; s < numProfileStages; ++s)
        stages[static_cast<std::size_t>(s)].merge(
            other.stages[static_cast<std::size_t>(s)]);
    cycles += other.cycles;
    sampledCycles += other.sampledCycles;
    loopNs += other.loopNs;
    wallNs += other.wallNs;
    runs += other.runs;
    strideCycles = std::max(strideCycles, other.strideCycles);
}

void
setProfiling(bool on)
{
    profilingOn.store(on, std::memory_order_relaxed);
}

bool
profilingEnabled()
{
    return profilingOn.load(std::memory_order_relaxed);
}

void
setProfilingStride(int strideCycles)
{
    profilingStrideCycles.store(std::max(1, strideCycles),
                                std::memory_order_relaxed);
}

int
profilingStride()
{
    return profilingStrideCycles.load(std::memory_order_relaxed);
}

std::int64_t
profileNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() // nondet-ok(profiler timestamps are observability-only and never feed back into the simulation)
                   .time_since_epoch())
        .count();
}

StageTimer::StageTimer(Profile *profile, int strideCycles)
    : profile_(profile), stride_(std::max(1, strideCycles))
{
}

// ---------------- serialization ----------------

std::string
writeProfileJson(const Profile &profile, const std::string &indent)
{
    std::ostringstream os;
    os << "{\n";
    os << indent << "  \"schema\": \"vsgpu-profile-v2\",\n";
    os << indent << "  \"runs\": " << profile.runs << ",\n";
    os << indent << "  \"stride_cycles\": " << profile.strideCycles
       << ",\n";
    os << indent << "  \"cycles\": " << profile.cycles << ",\n";
    os << indent << "  \"sampled_cycles\": " << profile.sampledCycles
       << ",\n";
    os << indent << "  \"loop_ns\": " << profile.loopNs << ",\n";
    os << indent << "  \"wall_ns\": " << profile.wallNs << ",\n";
    os << indent << "  \"stages\": [\n";
    for (int s = 0; s < numProfileStages; ++s) {
        const StageTotals &t =
            profile.stages[static_cast<std::size_t>(s)];
        os << indent << "    {\"name\": \"" << profileStageName(s)
           << "\", \"ns\": " << t.ns
           << ", \"samples\": " << t.samples << ", \"hist\": [";
        for (int b = 0; b < profileHistBuckets; ++b) {
            if (b > 0)
                os << ", ";
            os << t.hist[static_cast<std::size_t>(b)];
        }
        os << "]}";
        if (s + 1 < numProfileStages)
            os << ",";
        os << "\n";
    }
    os << indent << "  ]\n";
    os << indent << "}";
    return os.str();
}

namespace
{

std::string
formatMs(std::uint64_t ns)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(ns) * 1e-6);
    return buf;
}

std::string
formatPct(double frac)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%5.1f%%", 100.0 * frac);
    return buf;
}

} // namespace

Profile
parseProfileJson(const std::string &text)
{
    JsonReader in(text, "profile JSON");
    Profile profile;
    const auto stage = [&in](StageTotals &totals, int index) {
        in.object([&](const std::string &key) {
            if (key == "name") {
                const std::string name = in.string();
                if (name != profileStageName(index))
                    in.fail("stage ", index, " named '", name,
                            "', expected '", profileStageName(index),
                            "'");
            } else if (key == "ns") {
                totals.ns = in.uint();
            } else if (key == "samples") {
                totals.samples = in.uint();
            } else if (key == "hist") {
                std::size_t n = 0;
                in.array([&](std::size_t b) {
                    if (b >= totals.hist.size())
                        in.fail("too many hist buckets");
                    totals.hist[b] = in.uint();
                    n = b + 1;
                });
                if (n != totals.hist.size())
                    in.fail("expected ", profileHistBuckets,
                            " hist buckets");
            } else {
                in.fail("unknown stage key '", key, "'");
            }
        });
    };
    in.object([&](const std::string &key) {
        if (key == "schema") {
            const std::string schema = in.string();
            if (schema != "vsgpu-profile-v2")
                in.fail("unknown schema '", schema, "'");
        } else if (key == "runs") {
            profile.runs = in.uint();
        } else if (key == "stride_cycles") {
            profile.strideCycles = static_cast<int>(in.uint());
        } else if (key == "cycles") {
            profile.cycles = in.uint();
        } else if (key == "sampled_cycles") {
            profile.sampledCycles = in.uint();
        } else if (key == "loop_ns") {
            profile.loopNs = in.uint();
        } else if (key == "wall_ns") {
            profile.wallNs = in.uint();
        } else if (key == "stages") {
            std::size_t n = 0;
            in.array([&](std::size_t i) {
                if (i >= profile.stages.size())
                    in.fail("too many stages");
                stage(profile.stages[i], static_cast<int>(i));
                n = i + 1;
            });
            if (n != profile.stages.size())
                in.fail("expected ", numProfileStages, " stages, got ",
                        n);
        } else {
            in.fail("unknown key '", key, "'");
        }
    });
    return profile;
}

std::string
renderProfileReport(const Profile &profile)
{
    std::ostringstream os;
    os << "stage profile (" << profile.runs << " run"
       << (profile.runs == 1 ? "" : "s") << ", " << profile.cycles
       << " cycles, " << profile.sampledCycles
       << " sampled, stride " << profile.strideCycles << ")\n";
    if (profile.sampledCycles == 0) {
        os << "  no sampled cycles; run with profiling enabled\n";
        return os.str();
    }

    const double loopNs =
        std::max<double>(1.0, static_cast<double>(profile.loopNs));
    os << "  stage             time(ms)    share     p50(ns)"
          "     p99(ns)\n";
    std::uint64_t covered = 0;
    for (int s = StageGpu; s < firstProfileSubStage; ++s) {
        const StageTotals &t =
            profile.stages[static_cast<std::size_t>(s)];
        covered += t.ns;
        char line[160];
        std::snprintf(line, sizeof(line),
                      "  %-16s %9s  %s  %10.0f  %10.0f\n",
                      profileStageName(s), formatMs(t.ns).c_str(),
                      formatPct(static_cast<double>(t.ns) / loopNs)
                          .c_str(),
                      t.percentileNs(0.50), t.percentileNs(0.99));
        os << line;
    }
    const StageTotals &circuit =
        profile.stages[static_cast<std::size_t>(StageCircuit)];
    if (circuit.ns > 0) {
        const double circuitNs = std::max<double>(
            1.0, static_cast<double>(circuit.ns));
        for (int s = firstProfileSubStage; s < numProfileStages;
             ++s) {
            const StageTotals &t =
                profile.stages[static_cast<std::size_t>(s)];
            if (t.samples == 0)
                continue;
            char line[160];
            std::snprintf(
                line, sizeof(line),
                "    %-14s %9s  %s of circuit (%llu samples)\n",
                profileStageName(s), formatMs(t.ns).c_str(),
                formatPct(static_cast<double>(t.ns) / circuitNs)
                    .c_str(),
                static_cast<unsigned long long>(t.samples));
            os << line;
        }
    }

    const std::uint64_t chain =
        profile.stages[StageGpu].ns + profile.stages[StagePower].ns +
        profile.stages[StageCircuit].ns +
        profile.stages[StageControl].ns;
    os << "  serial critical path (gpu -> power -> circuit -> "
          "control): "
       << formatPct(static_cast<double>(chain) / loopNs) << " of "
          "loop time\n";
    os << "  loop coverage: named stages account for "
       << formatPct(static_cast<double>(covered) / loopNs)
       << " of sampled loop time\n";
    if (profile.wallNs > 0) {
        // Scale the sampled loop time up by the stride to estimate
        // the full loop's share of run wall time.
        const double scale =
            static_cast<double>(profile.cycles) /
            std::max<double>(
                1.0, static_cast<double>(profile.sampledCycles));
        const std::uint64_t setupNs = profile.stages[StageSetup].ns;
        const std::uint64_t finalizeNs =
            profile.stages[StageFinalize].ns;
        const double loopEst =
            static_cast<double>(profile.loopNs) * scale +
            static_cast<double>(setupNs + finalizeNs);
        os << "  wall attribution: loop + setup + finalize cover "
           << formatPct(std::min(
                  1.0, loopEst / static_cast<double>(profile.wallNs)))
           << " of run wall time (" << formatMs(profile.wallNs)
           << " ms total, setup " << formatMs(setupNs)
           << " ms, finalize " << formatMs(finalizeNs) << " ms)\n";
    }
    return os.str();
}

} // namespace vsgpu::obs
