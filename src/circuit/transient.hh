/**
 * @file
 * Fixed-step transient simulation of a Netlist.
 *
 * Uses trapezoidal companion models for reactive elements and modified
 * nodal analysis with the voltage-source branch currents as extra
 * unknowns.  Because the PDN topology and timestep are fixed during a
 * run, the system matrix only changes when a switch toggles; the LU
 * factorization is cached per switch-state so the per-step cost is a
 * right-hand-side build plus one back-substitution.  The elements a
 * step touches are copied once, at construction, into flat tables of
 * solution indices (ground = -1, bounds-checked there), with each
 * reactive element's companion conductance (2C/dt, dt/2L) divided
 * out, and the factor of the current switch state is held by pointer
 * until a switch changes.
 *
 * Two interchangeable linear-solver backends exist (circuit/solver.hh):
 * the default sparse engine assembles through an MnaPattern (symbolic
 * factorization context, cacheable across runs via sim::PdsSetup) and
 * refactorizes numerically per switch state; the dense engine is the
 * historical path kept as a differential-testing oracle.  Both
 * produce bitwise-identical solutions.
 */

#ifndef VSGPU_CIRCUIT_TRANSIENT_HH
#define VSGPU_CIRCUIT_TRANSIENT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "circuit/netlist.hh"
#include "circuit/solver.hh"
#include "circuit/stamping.hh"
#include "common/check.hh"
#include "numeric/matrix.hh"
#include "numeric/sparse.hh"
#include "obs/profile.hh"

namespace vsgpu
{

/**
 * Trapezoidal-integration transient engine.
 */
class TransientSim
{
  public:
    /**
     * @param netlist the circuit (must outlive the simulator).
     * @param dt      fixed timestep in seconds.
     * @param solver  linear-solver backend (defaults to the
     *                process-wide selection, normally sparse).
     * @param pattern pre-built sparse assembly pattern for this
     *                netlist's topology (nullptr = build one here).
     *                Sweep engines pass the pattern cached in
     *                sim::PdsSetup so the symbolic work happens once
     *                per configuration.
     */
    TransientSim(const Netlist &netlist, double dt,
                 SolverKind solver = defaultSolver(),
                 std::shared_ptr<const MnaPattern> pattern = nullptr);

    /** Set a current source's value for subsequent steps (amps). */
    void
    setCurrent(int sourceIdx, double amps) // raw-ok(dimension-erased MNA solver boundary)
    {
        panicIfNot(sourceIdx >= 0 &&
                       sourceIdx < static_cast<int>(sourceAmps_.size()),
                   "bad current source index ", sourceIdx);
        VSGPU_CHECK_FINITE(amps);
        sourceAmps_[static_cast<std::size_t>(sourceIdx)] = amps;
    }

    /** Open or close a switch for subsequent steps. */
    void setSwitch(int switchIdx, bool closed);

    /**
     * Change a voltage source's setpoint for subsequent steps (only
     * the right-hand side changes, so the cached factorization stays
     * valid).  Used e.g. for VRM load-line regulation.
     */
    void setSourceVolts(int vsrcIdx, double volts); // raw-ok(dimension-erased MNA solver boundary)

    /**
     * Initialize states to the DC operating point implied by the
     * current source setpoints (inductors shorted, capacitors open).
     */
    void initToDc();

    /**
     * Initialize states from a precomputed DC operating point, as
     * returned by solveDc() on this netlist with the same source
     * setpoints and switch states.  Bitwise-equivalent to
     * initToDc(), but lets sweep engines solve the operating point
     * once per configuration and share it across runs
     * (exec::SetupCache).
     */
    void initFromDc(const std::vector<double> &dcNodeVolts);

    /** Advance the simulation by one timestep. */
    void step();

    /** @return simulated time (s). */
    double time() const { return time_; }

    /** @return number of steps taken. */
    std::uint64_t steps() const { return stepCount_; }

    /** @return LU factorizations built (cache misses on the
     *  switch-state key); the fixed-step linear solver's analogue of
     *  a variable-step engine's Newton iteration count. */
    std::uint64_t luBuilds() const { return luBuilds_; }

    /** @return the solver backend this instance runs on. */
    SolverKind solver() const { return solver_; }

    /** @return structural nonzeros of the sparse assembly pattern
     *  (0 on the dense backend). */
    std::size_t patternNnz() const;

    /** @return sparse numeric refactorizations performed (equals
     *  luBuilds() on the sparse backend, 0 on dense). */
    std::uint64_t refactorizations() const
    {
        return refactorizations_;
    }

    /** @return true when the symbolic pattern was supplied by the
     *  caller (i.e. reused from a setup cache) rather than built by
     *  this instance. */
    bool usedCachedPattern() const { return usedCachedPattern_; }

    /** @return voltage at a node (ground = 0 V). */
    double
    nodeVoltage(NodeId node) const
    {
        panicIfNot(node >= 0 && node <= numNodes_, "bad node id ",
                   node);
        return node > 0 ? solution_[static_cast<std::size_t>(node - 1)]
                        : 0.0;
    }

    /**
     * @return index of a node's voltage in solution(), or -1 for
     * ground.  Lets waveform samplers stream straight from the state
     * vector without per-sample bounds checks.
     */
    int
    solutionIndex(NodeId node) const
    {
        panicIfNot(node >= 0 && node <= numNodes_,
                   "bad node id ", node);
        return node - 1;
    }

    /** @return the raw MNA solution vector: node voltages (node id
     *  - 1) followed by voltage-source branch currents. */
    const std::vector<double> &solution() const { return solution_; }

    /** @return current through voltage source (plus -> external). */
    double sourceCurrent(int vsrcIdx) const;

    /** @return current a -> b through a resistor. */
    double
    resistorCurrent(int resIdx) const
    {
        const Conductor &r = resistor(resIdx);
        return (voltageAt(r.a) - voltageAt(r.b)) / r.ohms;
    }

    /** @return a resistor's resistance (ohms). */
    double
    resistorOhms(int resIdx) const // raw-ok(dimension-erased MNA solver boundary)
    {
        return resistor(resIdx).ohms;
    }

    /** @return instantaneous power dissipated in all resistors (W). */
    double totalResistivePower() const;

    /** @return instantaneous power dissipated in closed switches. */
    double totalSwitchPower() const;

    /**
     * @return instantaneous power delivered by all voltage sources,
     * positive when sourcing (W).
     */
    double totalSourcePower() const;

    /** @return current through an inductor (a -> b, amps). */
    double inductorCurrent(int indIdx) const;

    /** @return equalizer average transfer current Ix (amps). */
    double equalizerCurrent(int eqIdx) const;

    /**
     * @return intrinsic charge-transfer loss of an equalizer,
     * Reff * Ix^2 (W).
     */
    double equalizerPower(int eqIdx) const;

    /** @return summed charge-transfer loss of all equalizers (W). */
    double totalEqualizerPower() const;

    /**
     * Attach the cosim's stage timer so step() can split its cost
     * into assemble / solve / refactor / update sub-phases on the
     * cycles the timer samples.  Null (the default) keeps step()
     * instrumentation-free apart from one pointer test.
     */
    void attachProfiler(obs::StageTimer *timer)
    {
        profiler_ = timer;
    }

  private:
    /** Build and factor the dense MNA matrix for a switch state. */
    const LuFactor<double> &factorFor(std::uint64_t key);

    /** Assemble and refactor the sparse system for a switch state. */
    const SparseLu &sparseFor(std::uint64_t key);

    /** A two-terminal element as solution indices (ground = -1). */
    struct Terminals
    {
        int a;
        int b;
    };

    /** A reactive element with its trapezoidal companion
     *  conductance (2C/dt for a capacitor, dt/2L for an inductor). */
    struct Companion
    {
        int a;
        int b;
        double geq;
    };

    /** A resistor. */
    struct Conductor
    {
        int a;
        int b;
        double ohms; // raw-ok(dimension-erased MNA solver boundary)
    };

    /** A switch and its two resistances. */
    struct SwitchRow
    {
        int a;
        int b;
        double onOhms; // raw-ok(dimension-erased MNA solver boundary)
        double offOhms; // raw-ok(dimension-erased MNA solver boundary)
    };

    /** An averaged charge-recycling equalizer. */
    struct EqualizerRow
    {
        int top;
        int mid;
        int bottom;
        double effOhms; // raw-ok(dimension-erased MNA solver boundary)
    };

    /** @return resistor @p resIdx's table row. */
    const Conductor &
    resistor(int resIdx) const
    {
        panicIfNot(resIdx >= 0 &&
                       resIdx < static_cast<int>(resistors_.size()),
                   "bad resistor index ", resIdx);
        return resistors_[static_cast<std::size_t>(resIdx)];
    }

    /** @return the solution index of a node, checked once here. */
    int checkedIndex(NodeId node) const;

    /** @return the voltage at a solution index (-1 = ground). */
    double
    voltageAt(int idx) const
    {
        return idx >= 0 ? solution_[static_cast<std::size_t>(idx)]
                        : 0.0;
    }

    /** Add a current into the right-hand side at a solution index. */
    void
    inject(int idx, double current)
    {
        if (idx >= 0)
            rhs_[static_cast<std::size_t>(idx)] += current;
    }

    /** @return true when switch @p i is closed. */
    bool
    switchClosed(std::size_t i) const
    {
        return ((switchKey_ >> i) & 1ull) != 0;
    }

    /** Stamp a conductance into the MNA matrix. */
    static void stampConductance(Matrix &g, NodeId a, NodeId b,
                                 double siemens); // raw-ok(dimension-erased MNA solver boundary)

    /** Stamp an averaged charge-recycling equalizer. */
    static void stampEqualizer(Matrix &g, const Netlist::Equalizer &e);

    const Netlist &netlist_;
    double dt_;
    double time_ = 0.0;
    std::uint64_t stepCount_ = 0;
    std::uint64_t luBuilds_ = 0;
    std::uint64_t refactorizations_ = 0;

    SolverKind solver_;
    bool usedCachedPattern_ = false;
    obs::StageTimer *profiler_ = nullptr;

    int numNodes_;
    int numVsrc_;
    int numUnknowns_;

    std::vector<double> solution_;    ///< node voltages + vsrc currents
    std::vector<double> rhs_;         ///< per-step right-hand side
    std::vector<double> sourceAmps_;  ///< current-source setpoints
    std::vector<double> sourceVolts_; ///< voltage-source setpoints
    std::uint64_t switchKey_ = 0;     ///< bit i set = switch i closed

    // Flat element tables, built once at construction.
    std::vector<Terminals> isrc_;     ///< current sources: from, to
    std::vector<Companion> caps_;
    std::vector<Companion> inds_;
    std::vector<Conductor> resistors_;
    std::vector<SwitchRow> switches_;
    std::vector<EqualizerRow> equalizers_;

    // Reactive element states.
    std::vector<double> capVolts_;    ///< v across each capacitor
    std::vector<double> capAmps_;     ///< i through each capacitor
    std::vector<double> indAmps_;     ///< i through each inductor
    std::vector<double> indVolts_;    ///< v across each inductor

    // Sparse backend: shared symbolic pattern, reusable stamping
    // assembler, factors keyed by switch-state bitmask.
    std::shared_ptr<const MnaPattern> pattern_;
    std::unique_ptr<MnaAssembler> assembler_;
    std::map<std::uint64_t, std::unique_ptr<SparseLu>> sparseCache_;
    /** sparseCache_'s factor for switchKey_, or null after a switch
     *  changed. */
    const SparseLu *sparseNow_ = nullptr;

    // Dense backend: factorizations keyed by switch-state bitmask.
    std::map<std::uint64_t, std::unique_ptr<LuFactor<double>>> luCache_;
    /** luCache_'s factor for switchKey_, or null after a switch
     *  changed. */
    const LuFactor<double> *denseNow_ = nullptr;
};

/**
 * DC operating-point solve: inductors become tiny resistances,
 * capacitors are open, current sources at the supplied setpoints.
 *
 * @param solver  linear-solver backend (defaults to the process-wide
 *                selection).
 * @param pattern optional pre-built assembly pattern (sparse only).
 * @return node voltages indexed by node id (index 0 = ground = 0 V).
 */
std::vector<double>
solveDc(const Netlist &netlist, const std::vector<double> &sourceAmps,
        const std::vector<bool> &switchClosed = {},
        SolverKind solver = defaultSolver(),
        std::shared_ptr<const MnaPattern> pattern = nullptr);

} // namespace vsgpu

#endif // VSGPU_CIRCUIT_TRANSIENT_HH
