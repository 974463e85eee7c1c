/**
 * @file
 * Google-benchmark micro-benchmarks of the simulation engines
 * themselves: transient step throughput, AC solve, SM cycle rate,
 * workload generation, and the tracing/profiling scopes.  These guard
 * the performance the experiment harnesses depend on; the
 * co-simulation loop's steady-state rate is bench/perf/run_bench.py's.
 */

#include <benchmark/benchmark.h>

#include "circuit/solver.hh"
#include "circuit/stamping.hh"
#include "numeric/matrix.hh"
#include "numeric/sparse.hh"
#include "obs/profile.hh"
#include "obs/trace.hh"
#include "pdn/impedance.hh"
#include "pdn/vs_pdn.hh"
#include "sim/cosim.hh"
#include "sim/pds_setup.hh"
#include "workloads/suite.hh"

namespace
{

using namespace vsgpu;

VsPdn &
benchPdn()
{
    static VsPdn pdn([] {
        VsPdnOptions options;
        options.crIvrEffOhms = 0.1_Ohm;
        options.crIvrFlyCapF = 50.0_nF;
        return options;
    }());
    return pdn;
}

/** Stamp the transient-step MNA values for the bench PDN. */
const std::vector<double> &
assembleTransient(MnaAssembler &assembler, const Netlist &nl)
{
    assembler.beginStep();
    assembler.stampResistors(nl);
    assembler.stampSwitches(nl, [&nl](std::size_t i) {
        return nl.switches()[i].initiallyClosed;
    });
    assembler.stampCapacitorsTrapezoidal(nl,
                                         config::clockPeriod.raw());
    assembler.stampInductorsTrapezoidal(nl,
                                        config::clockPeriod.raw());
    assembler.stampEqualizersScaled(nl);
    assembler.stampVoltageSources(nl);
    return assembler.commitStep();
}

void
stepBench(benchmark::State &state, SolverKind solver)
{
    VsPdn &pdn = benchPdn();
    TransientSim sim(pdn.netlist(), config::clockPeriod.raw(),
                     solver);
    for (int sm = 0; sm < config::numSMs; ++sm)
        sim.setCurrent(pdn.smCurrentSource(sm), 5.0);
    sim.initToDc();
    for (auto _ : state) {
        sim.step();
        benchmark::DoNotOptimize(sim.nodeVoltage(1));
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_TransientStep(benchmark::State &state)
{
    stepBench(state, SolverKind::Sparse);
}
BENCHMARK(BM_TransientStep);

void
BM_TransientStepDense(benchmark::State &state)
{
    stepBench(state, SolverKind::Dense);
}
BENCHMARK(BM_TransientStepDense);

/** Per-step element stamping into the CSC value vector. */
void
BM_SolverStamp(benchmark::State &state)
{
    const Netlist &nl = benchPdn().netlist();
    MnaAssembler assembler(MnaPattern::build(nl));
    for (auto _ : state) {
        const std::vector<double> &v = assembleTransient(assembler,
                                                         nl);
        benchmark::DoNotOptimize(v.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SolverStamp);

/** Symbolic analysis: union pattern build + slot resolution.  Runs
 *  once per topology in production (cached in PdsSetup). */
void
BM_SolverSymbolic(benchmark::State &state)
{
    const Netlist &nl = benchPdn().netlist();
    for (auto _ : state) {
        auto pattern = MnaPattern::build(nl);
        benchmark::DoNotOptimize(pattern->csc->nnz());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SolverSymbolic);

/** Sparse numeric refactorization (per switch-topology change). */
void
BM_SolverRefactorSparse(benchmark::State &state)
{
    const Netlist &nl = benchPdn().netlist();
    auto pattern = MnaPattern::build(nl);
    MnaAssembler assembler(pattern);
    const std::vector<double> &values = assembleTransient(assembler,
                                                          nl);
    SparseLu lu(pattern->csc);
    for (auto _ : state) {
        lu.factor(values);
        benchmark::DoNotOptimize(lu.factorNnz());
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["unknowns"] =
        static_cast<double>(pattern->numUnknowns);
    state.counters["pattern_nnz"] =
        static_cast<double>(pattern->csc->nnz());
    state.counters["factor_nnz"] =
        static_cast<double>(lu.factorNnz());
}
BENCHMARK(BM_SolverRefactorSparse);

/** Dense LU refactorization over the same system, for the ratio. */
void
BM_SolverRefactorDense(benchmark::State &state)
{
    const Netlist &nl = benchPdn().netlist();
    auto pattern = MnaPattern::build(nl);
    MnaAssembler assembler(pattern);
    const std::vector<double> &values = assembleTransient(assembler,
                                                          nl);
    const auto n = static_cast<std::size_t>(pattern->numUnknowns);
    Matrix g(n, n);
    const CscPattern &csc = *pattern->csc;
    for (int col = 0; col < pattern->numUnknowns; ++col)
        for (std::int32_t t = csc.colPtr[static_cast<std::size_t>(col)];
             t < csc.colPtr[static_cast<std::size_t>(col) + 1]; ++t)
            g(static_cast<std::size_t>(
                  csc.rowIdx[static_cast<std::size_t>(t)]),
              static_cast<std::size_t>(col)) =
                values[static_cast<std::size_t>(t)];
    for (auto _ : state) {
        LuFactor<double> lu(g);
        benchmark::DoNotOptimize(&lu);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SolverRefactorDense);

/** Sparse triangular solve against a cached factorization — the
 *  per-timestep hot path. */
void
BM_SolverSolveSparse(benchmark::State &state)
{
    const Netlist &nl = benchPdn().netlist();
    auto pattern = MnaPattern::build(nl);
    MnaAssembler assembler(pattern);
    SparseLu lu(pattern->csc);
    lu.factor(assembleTransient(assembler, nl));
    std::vector<double> rhs(
        static_cast<std::size_t>(pattern->numUnknowns), 0.0);
    rhs[0] = 1.0;
    std::vector<double> x;
    for (auto _ : state) {
        lu.solve(rhs, x);
        benchmark::DoNotOptimize(x.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SolverSolveSparse);

/** Dense triangular solve against a cached factorization. */
void
BM_SolverSolveDense(benchmark::State &state)
{
    const Netlist &nl = benchPdn().netlist();
    auto pattern = MnaPattern::build(nl);
    MnaAssembler assembler(pattern);
    const std::vector<double> &values = assembleTransient(assembler,
                                                          nl);
    const auto n = static_cast<std::size_t>(pattern->numUnknowns);
    Matrix g(n, n);
    const CscPattern &csc = *pattern->csc;
    for (int col = 0; col < pattern->numUnknowns; ++col)
        for (std::int32_t t = csc.colPtr[static_cast<std::size_t>(col)];
             t < csc.colPtr[static_cast<std::size_t>(col) + 1]; ++t)
            g(static_cast<std::size_t>(
                  csc.rowIdx[static_cast<std::size_t>(t)]),
              static_cast<std::size_t>(col)) =
                values[static_cast<std::size_t>(t)];
    const LuFactor<double> lu(g);
    std::vector<double> rhs(n, 0.0);
    rhs[0] = 1.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lu.solve(rhs).data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SolverSolveDense);

/**
 * The circuit-engine share of paper Fig. 9's worst case: the same
 * imbalance event (all SMs loaded, layer 0 dropped to zero half way
 * through) replayed through TransientSim alone on the cross-layer
 * 0.2x netlist, for the 16,800 steps the fig09_worst_transient
 * scenario simulates.  One iteration is one whole replay; the
 * transient setup and DC start are excluded from the timing.
 * check_bench.py gates the dense/sparse ratio (fig09_circuit_speedup)
 * against a hard floor in BENCH_circuit.json.
 */
void
fig09Replay(benchmark::State &state, SolverKind solver)
{
    constexpr int kSteps = 16800;
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCrossLayer);
    cfg.pds.ivrAreaFraction = 0.2;
    const std::shared_ptr<const PdsSetup> setup = buildPdsSetup(cfg);
    const VsPdn &pdn = *setup->vs;
    for (auto _ : state) {
        state.PauseTiming();
        TransientSim sim(setup->netlist(), config::clockPeriod.raw(),
                         solver, setup->mnaPattern);
        sim.initFromDc(setup->dcNodeVolts);
        for (int sm = 0; sm < config::numSMs; ++sm)
            sim.setCurrent(pdn.smCurrentSource(sm), 5.0);
        state.ResumeTiming();
        for (int i = 0; i < kSteps; ++i) {
            if (i == kSteps / 2) {
                // The fig09 event: one full layer of SMs halts.
                for (int sm = 0; sm < config::numSMs; ++sm)
                    if (pdn.smLayer(sm) == 0)
                        sim.setCurrent(pdn.smCurrentSource(sm), 0.0);
            }
            sim.step();
        }
        benchmark::DoNotOptimize(sim.nodeVoltage(1));
    }
    state.SetItemsProcessed(state.iterations() * kSteps);
}

void
BM_Fig09ReplaySparse(benchmark::State &state)
{
    fig09Replay(state, SolverKind::Sparse);
}
BENCHMARK(BM_Fig09ReplaySparse);

void
BM_Fig09ReplayDense(benchmark::State &state)
{
    fig09Replay(state, SolverKind::Dense);
}
BENCHMARK(BM_Fig09ReplayDense);

void
BM_AcSolve(benchmark::State &state)
{
    VsPdn pdn;
    ImpedanceAnalyzer analyzer(pdn);
    Hertz f = 1.0_MHz;
    for (auto _ : state) {
        benchmark::DoNotOptimize(analyzer.globalImpedance(f));
        f = f < 400.0_MHz ? f * 1.1 : 1.0_MHz;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AcSolve);

void
BM_SmCycle(benchmark::State &state)
{
    GpuConfig cfg;
    Gpu gpu(cfg);
    WorkloadFactory factory(uniformWorkload(1 << 20));
    gpu.launch(factory);
    for (auto _ : state) {
        gpu.step();
        benchmark::DoNotOptimize(gpu.cycle());
    }
    // 16 SM-cycles per GPU step.
    state.SetItemsProcessed(state.iterations() * config::numSMs);
}
BENCHMARK(BM_SmCycle);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    const WorkloadSpec spec = workloadFor(Benchmark::Hotspot);
    WorkloadFactory factory(spec);
    int sm = 0;
    for (auto _ : state) {
        auto prog = factory.makeProgram(sm, 0);
        int count = 0;
        while (prog->next().has_value())
            ++count;
        benchmark::DoNotOptimize(count);
        sm = (sm + 1) % config::numSMs;
    }
}
BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMicrosecond);

/**
 * The disabled-tracing fast path: one relaxed atomic load per
 * instrumentation point.  This pins the "near zero cost when
 * disabled" contract the hot loops (pool tasks, cosim cycles)
 * rely on — compare against BM_TraceScopeEnabled to see the gap.
 */
void
BM_TraceScopeDisabled(benchmark::State &state)
{
    obs::Tracer::instance().disable();
    for (auto _ : state) {
        VSGPU_TRACE_SCOPE(obs::CatPool, "bench.disabled");
        VSGPU_TRACE_INSTANT(obs::CatCtl, "bench.instant");
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceScopeDisabled);

void
BM_TraceScopeEnabled(benchmark::State &state)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable(obs::CatPool);
    for (auto _ : state) {
        VSGPU_TRACE_SCOPE(obs::CatPool, "bench.enabled");
        benchmark::ClobberMemory();
        // Stay under the event cap however long the bench runs.
        if (tracer.numEvents() + 2 >= obs::Tracer::maxEvents())
            tracer.clear();
    }
    tracer.disable();
    tracer.clear();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceScopeEnabled);

/**
 * The disabled-profiling fast path: one relaxed atomic load (and a
 * null member left unset) per ProfileScope.  This pins the "near zero
 * cost when disabled" contract the cosim stage timers rely on, the
 * profiler analogue of BM_TraceScopeDisabled.
 */
void
BM_ProfileScopeDisabled(benchmark::State &state)
{
    obs::setProfiling(false);
    obs::Profile profile;
    for (auto _ : state) {
        obs::ProfileScope scope(&profile, obs::StageGpu);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileScopeDisabled);

void
BM_ProfileScopeEnabled(benchmark::State &state)
{
    obs::setProfiling(true);
    obs::Profile profile;
    for (auto _ : state) {
        obs::ProfileScope scope(&profile, obs::StageGpu);
        benchmark::ClobberMemory();
    }
    obs::setProfiling(false);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileScopeEnabled);

} // namespace

BENCHMARK_MAIN();
