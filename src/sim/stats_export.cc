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

/** One event counter: its registry name, unit and description. */
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

} // namespace

void
CosimCounters::add(const CosimCounters &o)
{
    for (const CounterField &f : counterFields)
        this->*f.field += o.*f.field;
}

void
registerCounters(obs::StatsRegistry &registry,
                 const CosimCounters &counters)
{
    for (const CounterField &f : counterFields)
        registry.addCounter(f.name, f.unit, f.desc).set(counters.*f.field);
}

void
registerRunStats(obs::StatsRegistry &registry,
                 const CosimResult &result)
{
    registerCounters(registry, result.counters);

    obs::StatsGroup gpu = registry.group("gpu");
    gpu.scalar("min_voltage", obs::unitName<Volts>(),
               "worst per-SM rail voltage over the run")
        .set(result.minVoltage);
    gpu.scalar("mean_voltage", obs::unitName<Volts>(),
               "mean per-SM rail voltage over the run")
        .set(result.meanVoltage);
    gpu.scalar("throttle_rate", "",
               "fraction of SM-cycles under DIWS throttling")
        .set(result.throttleRate);
    gpu.scalar("trigger_rate", "",
               "fraction of control decisions that triggered")
        .set(result.triggerRate);
    gpu.scalar("avg_load_power", obs::unitName<Watts>(),
               "average SM load power over the run")
        .set(result.avgLoadPower());

    obs::StatsGroup energy = registry.group("energy");
    const char *joules = obs::unitName<Joules>();
    energy.scalar("load", joules, "energy delivered to SM loads")
        .set(result.energy.load);
    energy.scalar("fake", joules, "load energy spent on FII")
        .set(result.energy.fake);
    energy.scalar("pdn", joules, "resistive PDN loss")
        .set(result.energy.pdn);
    energy
        .scalar("conversion", joules,
                "VRM / single-layer IVR conversion loss")
        .set(result.energy.conversion);
    energy
        .scalar("cr_ivr", joules,
                "CR-IVR charge-transfer and switching loss")
        .set(result.energy.crIvr);
    energy
        .scalar("overhead", joules,
                "detector, controller, DCC, shifter overheads")
        .set(result.energy.overhead);
    energy.scalar("wall", joules, "total board-supply energy")
        .set(result.energy.wall);
    energy
        .formula("pde", "",
                 "power delivery efficiency (load / wall)",
                 [load = result.energy.load,
                  wall = result.energy.wall] {
                     return wall > 0.0 ? load / wall : 0.0;
                 })
        .value();
}

void
registerExecStats(obs::StatsRegistry &registry,
                  std::uint64_t poolTasksRun,
                  std::uint64_t poolSteals,
                  std::uint64_t setupsBuilt,
                  std::uint64_t setupHits)
{
    obs::StatsGroup exec = registry.group("exec");
    exec.counter("pool.tasks_run", "tasks",
                 "pool tasks executed to completion")
        .set(poolTasksRun);
    exec.counter("pool.steals", "steals",
                 "tasks taken from another worker's queue "
                 "(schedule-dependent; excluded from default dumps)",
                 /*scheduleDependent=*/true)
        .set(poolSteals);
    exec.counter("setup_cache.built", "setups",
                 "electrical setups built (cache misses)")
        .set(setupsBuilt);
    exec.counter("setup_cache.hits", "setups",
                 "setup requests answered from the cache")
        .set(setupHits);
}

void
registerTraceStats(obs::StatsRegistry &registry,
                   std::uint64_t traceEvents,
                   std::uint64_t traceDropped)
{
    obs::StatsGroup obsGroup = registry.group("obs");
    obsGroup
        .counter("trace.events", "events",
                 "trace events retained in the in-memory ring "
                 "(schedule-dependent; excluded from default dumps)",
                 /*scheduleDependent=*/true)
        .set(traceEvents);
    obsGroup
        .counter("trace.dropped_events", "events",
                 "oldest trace events evicted by ring wraparound "
                 "(schedule-dependent; excluded from default dumps)",
                 /*scheduleDependent=*/true)
        .set(traceDropped);
}

} // namespace vsgpu
