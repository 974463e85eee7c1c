#include "sim/stats_export.hh"

#include <iterator>

#include "circuit/transient.hh"
#include "control/controller.hh"
#include "gpu/gpu.hh"

namespace vsgpu
{

void
collectCounters(const Gpu &gpu, const TransientSim &sim,
                const SmoothingController *controller,
                CosimCounters &ctr)
{
    ctr.cycles = gpu.cycle();
    for (int sm = 0; sm < gpu.numSMs(); ++sm) {
        const Sm &s = gpu.sm(sm);
        ctr.instructions += s.retired();
        ctr.throttledCycles += s.throttledCycles();
        ctr.fakeInstructions += s.fakeIssuedTotal();
        for (std::uint64_t events : s.stats().gateEvents)
            ctr.gateEvents += events;
    }
    ctr.memAccesses = gpu.memory().accesses();
    ctr.l1Hits = gpu.memory().l1Hits();
    ctr.l2Hits = gpu.memory().l2Hits();
    ctr.dramAccesses = gpu.memory().dramAccesses();
    ctr.timesteps = sim.steps();
    ctr.luFactorizations = sim.luBuilds();
    ctr.sparseNnz = sim.patternNnz();
    ctr.sparseSymbolicReuses = sim.usedCachedPattern() ? 1 : 0;
    ctr.sparseRefactorizations = sim.refactorizations();
    if (controller) {
        ctr.ctlDecisions = controller->totalDecisions();
        ctr.ctlTriggered = controller->triggeredDecisions();
        ctr.detectorTrips = controller->detectorTrips();
        ctr.diwsEngagements = controller->diwsEngagements();
        ctr.fiiEngagements = controller->fiiEngagements();
        ctr.dccEngagements = controller->dccEngagements();
    }
}

namespace
{

/** One event counter: its stat name, unit and description. */
struct CounterField
{
    const char *name;
    const char *unit;
    const char *desc;
    std::uint64_t CosimCounters::*field;
};

constexpr CounterField counterFields[] = {
    {"gpu.cycles", "cycles", "simulated core cycles",
     &CosimCounters::cycles},
    {"gpu.instructions", "insts", "real instructions retired",
     &CosimCounters::instructions},
    {"gpu.fake_instructions", "insts", "fake instructions injected (FII)",
     &CosimCounters::fakeInstructions},
    {"gpu.throttled_cycles", "cycles", "SM-cycles under DIWS throttling",
     &CosimCounters::throttledCycles},
    {"gpu.kernel_launches", "kernels", "kernels launched on the device",
     &CosimCounters::kernelLaunches},
    {"gpu.gate_events", "events", "execution-unit power-gate engagements",
     &CosimCounters::gateEvents},
    {"gpu.mem.accesses", "accesses", "memory requests issued by LSUs",
     &CosimCounters::memAccesses},
    {"gpu.mem.l1_hits", "accesses", "requests served by L1",
     &CosimCounters::l1Hits},
    {"gpu.mem.l2_hits", "accesses", "requests served by L2",
     &CosimCounters::l2Hits},
    {"gpu.mem.dram_accesses", "accesses", "requests served by DRAM",
     &CosimCounters::dramAccesses},
    {"sim.transient.timesteps", "steps", "fixed-step transient solver steps",
     &CosimCounters::timesteps},
    {"sim.transient.lu_factorizations", "factorizations",
     "MNA LU factorizations built (switch-state cache misses)",
     &CosimCounters::luFactorizations},
    {"circuit.sparse.nnz", "entries",
     "structural nonzeros of the sparse MNA assembly patterns (summed "
     "across runs)",
     &CosimCounters::sparseNnz},
    {"circuit.sparse.symbolic_reuses", "runs",
     "runs that reused a SetupCache-shared symbolic pattern instead of "
     "rebuilding it",
     &CosimCounters::sparseSymbolicReuses},
    {"circuit.sparse.refactorizations", "factorizations",
     "sparse numeric refactorizations over a cached symbolic pattern",
     &CosimCounters::sparseRefactorizations},
    {"control.decisions", "decisions", "smoothing-controller decision periods",
     &CosimCounters::ctlDecisions},
    {"control.triggered", "decisions", "decisions that engaged smoothing",
     &CosimCounters::ctlTriggered},
    {"control.detector_trips", "trips",
     "per-SM below-threshold voltage detections",
     &CosimCounters::detectorTrips},
    {"control.diws_engagements", "engagements",
     "issue-width throttle actuations (DIWS)",
     &CosimCounters::diwsEngagements},
    {"control.fii_engagements", "engagements",
     "fake-instruction injection actuations (FII)",
     &CosimCounters::fiiEngagements},
    {"control.dcc_engagements", "engagements",
     "current-DAC compensation actuations (DCC)",
     &CosimCounters::dccEngagements},
    {"hypervisor.dfs_transitions", "transitions",
     "per-SM DFS frequency-step changes",
     &CosimCounters::dfsTransitions},
    {"hypervisor.pg_gate_requests", "requests",
     "power-gate requests issued to SMs",
     &CosimCounters::pgGateRequests},
    {"hypervisor.pg_veto_skips", "skips",
     "PG policy evaluations skipped by a veto",
     &CosimCounters::pgVetoSkips},
    {"hypervisor.freq_remaps", "remaps",
     "DFS requests pulled up to the column budget",
     &CosimCounters::hvFreqRemaps},
    {"hypervisor.gating_denials", "denials",
     "gating requests denied by the imbalance budget",
     &CosimCounters::hvGatingDenials},
};
static_assert(sizeof(CosimCounters) ==
                  std::size(counterFields) * sizeof(std::uint64_t),
              "every CosimCounters field needs a counterFields entry");

/** Append one entry; the caller sets its value or count. */
obs::SnapshotEntry &
append(obs::StatsSnapshot &stats, obs::StatKind kind, const char *name,
       const char *unit, const char *desc)
{
    return stats.entries.emplace_back(
        obs::SnapshotEntry{kind, name, unit, desc});
}

} // namespace

void
CosimCounters::add(const CosimCounters &o)
{
    for (const CounterField &f : counterFields)
        this->*f.field += o.*f.field;
}

void
appendCounters(obs::StatsSnapshot &stats, const CosimCounters &counters)
{
    for (const CounterField &f : counterFields)
        append(stats, obs::StatKind::Counter, f.name, f.unit, f.desc)
            .count = counters.*f.field;
}

void
appendRunStats(obs::StatsSnapshot &stats, const CosimResult &result)
{
    appendCounters(stats, result.counters);

    const auto scalar = [&stats](const char *name, const char *unit,
                                 const char *desc, double value) {
        append(stats, obs::StatKind::Scalar, name, unit, desc).value =
            value;
    };
    const char *volts = obs::unitName<Volts>();
    scalar("gpu.min_voltage", volts,
           "worst per-SM rail voltage over the run", result.minVoltage);
    scalar("gpu.mean_voltage", volts,
           "mean per-SM rail voltage over the run", result.meanVoltage);
    scalar("gpu.throttle_rate", "",
           "fraction of SM-cycles under DIWS throttling",
           result.throttleRate);
    scalar("gpu.trigger_rate", "",
           "fraction of control decisions that triggered",
           result.triggerRate);
    scalar("gpu.avg_load_power", obs::unitName<Watts>(),
           "average SM load power over the run", result.avgLoadPower());

    const EnergyBreakdown &e = result.energy;
    const char *joules = obs::unitName<Joules>();
    scalar("energy.load", joules, "energy delivered to SM loads", e.load);
    scalar("energy.fake", joules, "load energy spent on FII", e.fake);
    scalar("energy.pdn", joules, "resistive PDN loss", e.pdn);
    scalar("energy.conversion", joules,
           "VRM / single-layer IVR conversion loss", e.conversion);
    scalar("energy.cr_ivr", joules,
           "CR-IVR charge-transfer and switching loss", e.crIvr);
    scalar("energy.overhead", joules,
           "detector, controller, DCC, shifter overheads", e.overhead);
    scalar("energy.wall", joules, "total board-supply energy", e.wall);
    append(stats, obs::StatKind::Formula, "energy.pde", "",
           "power delivery efficiency (load / wall)")
        .value = e.wall > 0.0 ? e.load / e.wall : 0.0;
}

void
appendExecStats(obs::StatsSnapshot &stats, std::uint64_t poolTasksRun,
                std::uint64_t setupsBuilt, std::uint64_t setupHits)
{
    const obs::StatKind counter = obs::StatKind::Counter;
    append(stats, counter, "exec.pool.tasks_run", "tasks",
           "pool tasks executed to completion")
        .count = poolTasksRun;
    append(stats, counter, "exec.setup_cache.built", "setups",
           "electrical setups built (cache misses)")
        .count = setupsBuilt;
    append(stats, counter, "exec.setup_cache.hits", "setups",
           "setup requests answered from the cache")
        .count = setupHits;
}

} // namespace vsgpu
