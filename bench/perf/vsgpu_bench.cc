/**
 * @file
 * The benchmark's simulator side: runs one named workload of co-simulations for a
 * time budget and writes raw host timings, simulated counts and
 * per-co-simulation result digests as one JSON document on standard
 * output (schema vsgpu-perfbench-v1).  bench/perf/run_bench.py builds this
 * binary, turns the raw numbers into metrics and checks the digests.
 *
 *   vsgpu_bench --workload NAME --seed S --seconds T
 *               [--mode run|traced] [--size full|tiny]
 *
 * run     end-to-end pass: one untimed warm-up, then whole rounds of
 *         the workload's co-simulations through CoSimulator::run for
 *         about T seconds, each followed by a set-up probe of its
 *         electrical configuration.
 * traced  every co-simulation runs twice, through CoSimulator::run and
 *         through the stage-timed composed loop (composed_loop.hh), and
 *         then the first round once more with the in-program profiler
 *         on, for the per-stage breakdown and its cross-checks.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <malloc.h>
#include <sched.h>
#include <string>
#include <vector>

#include "bench/perf/composed_loop.hh"
#include "exec/pool.hh"
#include "exec/setup_cache.hh"
#include "exec/sweep.hh"
#include "obs/manifest.hh"
#include "obs/profile.hh"
#include "sim/pds_setup.hh"
#include "workloads/suite.hh"

namespace
{

using namespace vsgpu;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------

/** One co-simulation of a workload round. */
struct Point
{
    Benchmark bench;
    PdsKind kind;
    bool gating;    ///< GATES scheduler + PgGovernor + VS hypervisor
    int instrs;     ///< instructions per warp (scaledToInstrs target)
    Cycle maxCycles;
    int instance;   ///< input instance of this benchmark (seed index)
    int warpsPerSm = 0; ///< 0 keeps the benchmark's own
};

/** Smoke-test size: one loop of the kernel on a few warps per SM. */
constexpr int kTinyInstrs = 1;
constexpr int kTinyWarps = 4;

struct WorkloadDef
{
    const char *name;
    int threads;
    /** The points of round @p r (instances continue across rounds). */
    std::vector<Point> (*round)(int r);
};

// Rounds are short (a few seconds on a 4-core x86 host, README.md
// has the measured times) so that a run holds several and the
// per-round medians shrug off bursts of host load.
constexpr int kHotspotInstrs = 1500;
constexpr int kAtomicInstrs = 1000;
constexpr int kPgInstrs = 700;
constexpr int kTable3Instrs = 700;     // Table III at scale 1.0
constexpr Cycle kTable3Cap = 120000;   // Table III at scale 1.0
constexpr Cycle kPgCap = 300000;       // Fig. 16
constexpr int kRoundSize = 16;

std::vector<Point>
hotspotCross(int r)
{
    std::vector<Point> pts;
    for (int j = 0; j < kRoundSize; ++j)
        pts.push_back({Benchmark::Hotspot, PdsKind::VsCrossLayer, false,
                       kHotspotInstrs, 200000, r * kRoundSize + j});
    return pts;
}

std::vector<Point>
atomicVrm(int r)
{
    std::vector<Point> pts;
    for (int j = 0; j < kRoundSize; ++j)
        pts.push_back({Benchmark::Simpleatomic, PdsKind::ConventionalVrm,
                       false, kAtomicInstrs, 200000,
                       r * kRoundSize + j});
    return pts;
}

std::vector<Point>
pgCross(int r)
{
    // The Fig. 16 gating set: memory/latency-bound kernels with idle
    // execution blocks.
    constexpr Benchmark set[] = {Benchmark::Bfs, Benchmark::Pathfinder,
                                 Benchmark::Simpleatomic,
                                 Benchmark::Scalarprod};
    constexpr int seeds = kRoundSize / 4;
    std::vector<Point> pts;
    for (int s = 0; s < seeds; ++s)
        for (Benchmark b : set)
            pts.push_back({b, PdsKind::VsCrossLayer, true, kPgInstrs,
                           kPgCap, r * seeds + s});
    return pts;
}

std::vector<Point>
table3Sweep(int r)
{
    constexpr PdsKind kinds[] = {
        PdsKind::ConventionalVrm, PdsKind::SingleLayerIvr,
        PdsKind::VsCircuitOnly, PdsKind::VsCrossLayer};
    std::vector<Point> pts;
    for (PdsKind k : kinds)
        for (Benchmark b : allBenchmarks())
            pts.push_back({b, k, false, kTable3Instrs, kTable3Cap, r});
    return pts;
}

const WorkloadDef kWorkloads[] = {
    {"hotspot-cross", 1, hotspotCross},
    {"atomic-vrm", 1, atomicVrm},
    {"pg-cross", 1, pgCross},
    // Fixed at 2 workers, not hardware_concurrency, so the benchmark
    // stays within the cores of a small shared host.
    {"table3-sweep", 2, table3Sweep},
};

/** Input seed of instance @p i of benchmark @p b under run seed S. */
std::uint64_t
seedFor(std::uint64_t runSeed, Benchmark b, int instance)
{
    if (runSeed == 0)
        return benchmarkSeed(b) + static_cast<std::uint64_t>(instance);
    return exec::taskSeed(
        exec::taskSeed(runSeed, static_cast<int>(b)), instance);
}

CosimConfig
configFor(const Point &p)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(p.kind);
    cfg.maxCycles = p.maxCycles;
    if (p.gating)
        cfg.gpu.sm.scheduler = SchedulerKind::Gates;
    return cfg;
}

WorkloadSpec
workloadOf(const Point &p, std::uint64_t runSeed)
{
    WorkloadSpec spec = scaledToInstrs(
        workloadFor(p.bench, seedFor(runSeed, p.bench, p.instance)),
        p.instrs);
    if (p.warpsPerSm > 0)
        spec.warpsPerSm = p.warpsPerSm;
    return spec;
}

// ------------------------------------------------------------------
// Results
// ------------------------------------------------------------------

template <typename T>
void
appendBytes(std::string &out, const T &v)
{
    char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    out.append(bytes, sizeof(T));
}

/** FNV-1a over every CosimResult scalar and CosimCounters field. */
std::string
digestOf(const CosimResult &r)
{
    std::string b;
    appendBytes(b, r.cycles);
    appendBytes(b, r.instructions);
    appendBytes(b, r.finished);
    const EnergyBreakdown &e = r.energy;
    for (double v : {e.load, e.fake, e.pdn, e.conversion, e.crIvr,
                     e.overhead, e.wall})
        appendBytes(b, v);
    for (const BoxStats &s : r.smNoise) {
        for (double v : {s.min, s.q1, s.median, s.q3, s.max, s.mean})
            appendBytes(b, v);
        appendBytes(b, s.count);
    }
    for (double v : {r.minVoltage, r.meanVoltage, r.throttleRate,
                     r.triggerRate})
        appendBytes(b, v);
    for (double v : r.imbalanceBins)
        appendBytes(b, v);
    const CosimCounters &c = r.counters;
    for (std::uint64_t v :
         {c.cycles, c.instructions, c.fakeInstructions,
          c.throttledCycles, c.kernelLaunches, c.memAccesses, c.l1Hits,
          c.l2Hits, c.dramAccesses, c.timesteps, c.luFactorizations,
          c.sparseNnz, c.sparseSymbolicReuses, c.sparseRefactorizations,
          c.ctlDecisions, c.ctlTriggered, c.detectorTrips,
          c.diwsEngagements, c.fiiEngagements, c.dccEngagements,
          c.dfsTransitions, c.pgGateRequests, c.pgVetoSkips,
          c.gateEvents, c.hvFreqRemaps, c.hvGatingDenials})
        appendBytes(b, v);
    return obs::fnv1a64Hex(b);
}

/** Outcome of one co-simulation of a round. */
struct Record
{
    int round = 0;
    int index = 0;
    Point point{};
    std::uint64_t seed = 0;
    CosimCounters counters;
    std::uint64_t expectedInstrs = 0;
    bool finished = false;
    bool sane = false; ///< finite energies with 0 < load < wall
    std::string digest;
    std::int64_t runNs = 0;

    // Traced mode.
    std::string tracedDigest;
    std::int64_t tracedNs = 0;
    perf::StageTimes stages;

    // Exec span of the whole task (ns from the round start).
    std::int64_t spanStartNs = 0;
    std::int64_t spanEndNs = 0;
    int worker = 0;

    // Set-up probe of this point's configuration, taken after the
    // co-simulation so probes spread over the whole run.
    std::int64_t setupNs = 0;
    std::int64_t setupBuildNs = 0;
};

int
workerId()
{
    static std::atomic<int> next{0};
    thread_local const int id = next++;
    return id;
}

/**
 * Pin the calling pool worker to the next CPU of its share of the
 * process's CPUs (worker k of T takes every T-th one), one move per
 * co-simulation.  On a shared VM each virtual CPU runs at its own,
 * changing speed (neighbours on the host's sibling hyperthreads);
 * rotating makes every round sample all of them instead of letting
 * the CPU a run happened to land on decide its result.
 */
void
rotateCpu(int worker, int threads)
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t set;
        if (sched_getaffinity(0, sizeof set, &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    out.push_back(c);
        }
        return out;
    }();
    std::vector<int> share;
    for (std::size_t j = static_cast<std::size_t>(worker % threads);
         j < cpus.size(); j += static_cast<std::size_t>(threads))
        share.push_back(cpus[j]);
    if (share.empty())
        return;
    thread_local std::size_t turn = 0;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(share[turn++ % share.size()], &set);
    sched_setaffinity(0, sizeof set, &set); // best effort
}

/** Run through the library, timing construction and run(). */
CosimResult
runLibrary(const CosimConfig &cfg, const WorkloadSpec &wl, bool gating,
           std::int64_t &ns)
{
    const std::int64_t t0 = nowNs();
    PgGovernor pg;
    VsAwareHypervisor hv;
    CoSimulator sim(cfg);
    if (gating) {
        sim.attachPg(&pg);
        sim.attachHypervisor(&hv);
    }
    CosimResult r = sim.run(wl);
    ns = nowNs() - t0;
    return r;
}

CosimResult
runTraced(const CosimConfig &cfg, const WorkloadSpec &wl, bool gating,
          std::int64_t &ns, perf::StageTimes &stages)
{
    const std::int64_t t0 = nowNs();
    PgGovernor pg;
    VsAwareHypervisor hv;
    CosimResult r = perf::runComposed(cfg, wl, gating ? &pg : nullptr,
                                      gating ? &hv : nullptr, stages);
    ns = nowNs() - t0;
    return r;
}

// ------------------------------------------------------------------
// Set-up timing
// ------------------------------------------------------------------

/**
 * Time buildPdsSetup plus a 1-cycle CoSimulator::run on the built
 * setup, the set-up a user pays once per electrical configuration.
 * @return the total ns; @p buildNs gets the buildPdsSetup part.
 */
std::int64_t
probeSetup(const Point &p, std::uint64_t runSeed, std::int64_t &buildNs)
{
    CosimConfig cfg = configFor(p);
    cfg.maxCycles = 1;
    const WorkloadSpec wl = workloadOf(p, runSeed);
    const std::int64_t t0 = nowNs();
    cfg.setup = buildPdsSetup(cfg);
    buildNs = nowNs() - t0;
    std::int64_t runNs = 0;
    runLibrary(cfg, wl, p.gating, runNs);
    return buildNs + runNs;
}

// ------------------------------------------------------------------
// Rounds
// ------------------------------------------------------------------

struct RoundTiming
{
    std::int64_t wallNs = 0;
    std::int64_t busyNs = 0;
    std::int64_t tailNs = 0; ///< round end - first worker's last end
};

bool
sane(const CosimResult &r)
{
    const EnergyBreakdown &e = r.energy;
    return std::isfinite(e.wall) && std::isfinite(e.load) &&
           e.load > 0.0 && e.wall > e.load;
}

RoundTiming
runRound(exec::Pool &pool, exec::SetupCache &cache,
         const std::vector<Point> &points, int round,
         std::uint64_t runSeed, bool traced,
         std::vector<Record> &records)
{
    const std::int64_t start = nowNs();
    const std::vector<Record> recs = exec::runIndexSweep(
        pool, static_cast<int>(points.size()), runSeed,
        [&](int i, exec::TaskContext &) {
            Record rec;
            rec.spanStartNs = nowNs() - start;
            rec.worker = workerId();
            rotateCpu(rec.worker, pool.threads());
            const Point &p = points[static_cast<std::size_t>(i)];
            rec.round = round;
            rec.index = i;
            rec.point = p;
            rec.seed = seedFor(runSeed, p.bench, p.instance);
            const CosimConfig cfg = cache.withSetup(configFor(p));
            const WorkloadSpec wl = workloadOf(p, runSeed);
            rec.expectedInstrs =
                static_cast<std::uint64_t>(config::numSMs) *
                static_cast<std::uint64_t>(wl.warpsPerSm) *
                static_cast<std::uint64_t>(wl.totalInstrs());

            // Traced mode alternates which variant runs first so
            // neither always starts with warm host caches.
            const bool tracedFirst = traced && i % 2 == 1;
            if (tracedFirst) {
                rec.tracedDigest = digestOf(runTraced(
                    cfg, wl, p.gating, rec.tracedNs, rec.stages));
            }
            const CosimResult r =
                runLibrary(cfg, wl, p.gating, rec.runNs);
            rec.counters = r.counters;
            rec.finished = r.finished;
            rec.sane = sane(r);
            rec.digest = digestOf(r);
            if (traced && !tracedFirst) {
                rec.tracedDigest = digestOf(runTraced(
                    cfg, wl, p.gating, rec.tracedNs, rec.stages));
            }
            rec.setupNs = probeSetup(p, runSeed, rec.setupBuildNs);
            // Hand freed heap back to the OS, so that the process's
            // peak RSS follows live memory rather than how the
            // allocator's arenas happened to fragment.
            malloc_trim(0);
            rec.spanEndNs = nowNs() - start;
            return rec;
        });
    RoundTiming t;
    t.wallNs = nowNs() - start;
    std::vector<std::pair<int, std::int64_t>> lastEnd;
    for (const Record &rec : recs) {
        t.busyNs += rec.spanEndNs - rec.spanStartNs;
        auto it = std::find_if(lastEnd.begin(), lastEnd.end(),
                               [&](const auto &w) {
                                   return w.first == rec.worker;
                               });
        if (it == lastEnd.end())
            lastEnd.push_back({rec.worker, rec.spanEndNs});
        else
            it->second = std::max(it->second, rec.spanEndNs);
    }
    std::int64_t firstIdle = t.wallNs;
    for (const auto &w : lastEnd)
        firstIdle = std::min(firstIdle, w.second);
    t.tailNs = t.wallNs - firstIdle;
    records.insert(records.end(), recs.begin(), recs.end());
    return t;
}

/** Run @p points once more with the in-program stage profiler on;
 *  @return the merged profile. */
obs::Profile
profiledPass(exec::Pool &pool, exec::SetupCache &cache,
             const std::vector<Point> &points, std::uint64_t runSeed)
{
    obs::setProfiling(true);
    const auto results = exec::runIndexSweep(
        pool, static_cast<int>(points.size()), runSeed,
        [&](int i, exec::TaskContext &) {
            const Point &p = points[static_cast<std::size_t>(i)];
            std::int64_t ns = 0;
            return runLibrary(cache.withSetup(configFor(p)),
                              workloadOf(p, runSeed), p.gating, ns);
        });
    obs::setProfiling(false);
    obs::Profile merged;
    for (const CosimResult &r : results)
        if (r.profile)
            merged.merge(*r.profile);
    return merged;
}

// ------------------------------------------------------------------
// Output
// ------------------------------------------------------------------

void
writeJson(std::ostream &os, const std::string &workload,
          std::uint64_t runSeed, bool traced, bool tiny, int threads,
          const std::string &warmupDigest,
          const std::vector<RoundTiming> &rounds,
          const std::vector<Record> &records,
          const exec::SetupCache &cache, const obs::Profile *profile)
{
    os << "{\n  \"schema\": \"vsgpu-perfbench-v1\",\n"
       << "  \"workload\": \"" << workload << "\",\n"
       << "  \"seed\": " << runSeed << ",\n"
       << "  \"mode\": \"" << (traced ? "traced" : "run") << "\",\n"
       << "  \"size\": \"" << (tiny ? "tiny" : "full") << "\",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"warmup_digest\": \"" << warmupDigest << "\",\n"
       << "  \"exec\": {\"setups_built\": " << cache.setupsBuilt()
       << ", \"setup_hits\": " << cache.setupHits() << "},\n"
       << "  \"rounds\": [";
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        os << (i ? ", " : "") << "{\"wall_ns\": " << rounds[i].wallNs
           << ", \"busy_ns\": " << rounds[i].busyNs
           << ", \"tail_ns\": " << rounds[i].tailNs << "}";
    }
    os << "],\n  \"cosims\": [";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Record &r = records[i];
        const CosimCounters &c = r.counters;
        os << (i ? ",\n" : "\n") << "    {\"round\": " << r.round
           << ", \"index\": " << r.index << ", \"bench\": \""
           << benchmarkName(r.point.bench) << "\", \"pds\": \""
           << pdsName(r.point.kind) << "\", \"seed\": " << r.seed
           << ", \"digest\": \"" << r.digest << "\""
           << ", \"finished\": " << (r.finished ? "true" : "false")
           << ", \"sane\": " << (r.sane ? "true" : "false")
           << ", \"instructions\": " << c.instructions
           << ", \"expected_instructions\": " << r.expectedInstrs
           << ", \"cycles\": " << c.cycles << ", \"run_ns\": " << r.runNs
           << ", \"setup_ns\": " << r.setupNs
           << ", \"setup_build_ns\": " << r.setupBuildNs
           << ", \"throttled_cycles\": " << c.throttledCycles
           << ", \"mem_accesses\": " << c.memAccesses
           << ", \"l1_hits\": " << c.l1Hits
           << ", \"dram_accesses\": " << c.dramAccesses
           << ", \"refactorizations\": " << c.sparseRefactorizations
           << ", \"ctl_decisions\": " << c.ctlDecisions
           << ", \"ctl_triggered\": " << c.ctlTriggered
           << ", \"ctl_engagements\": "
           << c.diwsEngagements + c.fiiEngagements + c.dccEngagements
           << ", \"hv_gate_requests\": " << c.pgGateRequests
           << ", \"hv_gating_denials\": " << c.hvGatingDenials
           << ", \"hv_veto_skips\": " << c.pgVetoSkips;
        if (traced) {
            os << ", \"traced_digest\": \"" << r.tracedDigest
               << "\", \"traced_ns\": " << r.tracedNs
               << ", \"init_ns\": " << r.stages.initNs
               << ", \"loop_ns\": " << r.stages.loopNs
               << ", \"stage_ns\": {";
            for (int s = 0; s < perf::numStages; ++s) {
                os << (s ? ", " : "") << "\"" << perf::stageName(s)
                   << "\": " << r.stages.ns[static_cast<std::size_t>(s)];
            }
            os << "}";
        }
        os << "}";
    }
    os << "\n  ]";
    if (profile) {
        // The profiler's loop stages; its "power" stage covers both
        // the power and the coupling stages of the composed loop.
        const struct
        {
            const char *name;
            int stage;
        } stages[] = {{"gpu", obs::StageGpu},
                      {"power+coupling", obs::StagePower},
                      {"circuit", obs::StageCircuit},
                      {"observe", obs::StageObserve},
                      {"control", obs::StageControl},
                      {"hypervisor", obs::StageHypervisor},
                      {"bookkeeping", obs::StageBookkeeping}};
        os << ",\n  \"profile_ns\": {";
        bool first = true;
        for (const auto &s : stages) {
            os << (first ? "" : ", ") << "\"" << s.name << "\": "
               << profile->stages[static_cast<std::size_t>(s.stage)].ns;
            first = false;
        }
        os << "}";
    }
    os << "\n}\n";
}

int
usage(const char *msg)
{
    std::cerr << "vsgpu_bench: " << msg
              << "\nusage: vsgpu_bench --workload NAME --seed S "
                 "--seconds T [--mode run|traced] [--size full|tiny]"
                 "\nworkloads:";
    for (const WorkloadDef &w : kWorkloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, mode = "run", size = "full";
    std::uint64_t runSeed = 0;
    double seconds = -1.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        try {
            if (arg == "--workload")
                workload = val;
            else if (arg == "--seed")
                runSeed = std::stoull(val);
            else if (arg == "--seconds")
                seconds = std::stod(val);
            else if (arg == "--mode")
                mode = val;
            else if (arg == "--size")
                size = val;
            else
                return usage(("unknown option " + arg).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &w : kWorkloads)
        if (workload == w.name)
            def = &w;
    if (!def)
        return usage("unknown or missing --workload");
    if (!(seconds >= 0.0))
        return usage("missing or negative --seconds");
    if (mode != "run" && mode != "traced")
        return usage("--mode must be run or traced");
    if (size != "full" && size != "tiny")
        return usage("--size must be full or tiny");
    const bool traced = mode == "traced";
    const bool tiny = size == "tiny";

    // Round r's points; the smoke size keeps the first and last point
    // of each round, shrunk to one kernel loop on a few warps.
    std::vector<std::vector<Point>> roundPoints;
    const auto pointsOf = [&](int r) -> const std::vector<Point> & {
        while (static_cast<int>(roundPoints.size()) <= r) {
            std::vector<Point> pts =
                def->round(static_cast<int>(roundPoints.size()));
            if (tiny) {
                pts = {pts.front(), pts.back()};
                for (Point &p : pts) {
                    p.instrs = kTinyInstrs;
                    p.warpsPerSm = kTinyWarps;
                }
            }
            roundPoints.push_back(std::move(pts));
        }
        return roundPoints[static_cast<std::size_t>(r)];
    };

    exec::Pool pool(def->threads);
    exec::SetupCache cache;

    // Untimed warm-up: the first co-simulation of round 0.  Its digest
    // must equal that of the same inputs run again in round 0.
    std::int64_t warmNs = 0;
    const Point &first = pointsOf(0).front();
    const std::string warmupDigest = digestOf(
        runLibrary(cache.withSetup(configFor(first)),
                   workloadOf(first, runSeed), first.gating, warmNs));

    // Untimed warm-up of the set-up probe, per configuration.
    std::vector<std::string> probed;
    for (const Point &p : pointsOf(0)) {
        const std::string key = pdsSetupKey(configFor(p));
        if (std::find(probed.begin(), probed.end(), key) != probed.end())
            continue;
        probed.push_back(key);
        for (int i = 0; i < (tiny ? 1 : 5); ++i) {
            std::int64_t buildNs = 0;
            probeSetup(p, runSeed, buildNs);
        }
    }

    // Whole rounds while the next one is expected to fit the budget.
    std::vector<RoundTiming> rounds;
    std::vector<Record> records;
    const std::int64_t budgetNs = static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t start = nowNs();
    do {
        const int r = static_cast<int>(rounds.size());
        rounds.push_back(runRound(pool, cache, pointsOf(r), r, runSeed,
                                  traced, records));
    } while (!tiny &&
             nowNs() - start + rounds.back().wallNs <= budgetNs);

    obs::Profile profile;
    if (traced)
        profile = profiledPass(pool, cache, pointsOf(0), runSeed);

    writeJson(std::cout, def->name, runSeed, traced, tiny, def->threads,
              warmupDigest, rounds, records, cache,
              traced ? &profile : nullptr);
    return 0;
}
