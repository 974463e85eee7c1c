/**
 * @file
 * vsgpu model verification — static analysis of a constructed
 * electrical/control model, run before any transient simulation.
 *
 * Three diagnostic families, in the SPICE-ERC / design-rule-check
 * tradition:
 *
 *   erc.*   electrical rule checks over a Netlist: ground
 *           reachability, dangling nodes, zero/negative or non-finite
 *           element values, duplicate stamps, and symmetric positive
 *           definiteness of the independently re-assembled MNA
 *           conductance block (passivity).
 *   num.*   numeric conditioning of the transient solve: MNA
 *           singularity and condition-number estimate, and the
 *           dominant PDN resonance from AC analysis against the
 *           configured timestep (sampling accuracy and trapezoidal
 *           ringing risk).
 *   ctl.*   discrete-time health of the smoothing loop: Jury
 *           stability test of the per-mode closed loop at the
 *           configured sample period and latency, gain/phase-margin
 *           floors, and the detector-resolution dead-band check.
 *
 * Every diagnostic carries a stable dotted id (e.g.
 * "erc.floating-node") that tests and the reviewed findings list
 * key on, a severity, and a message with the offending numbers.
 * Severity::Error marks a model that is malformed (the solve would
 * panic or silently produce garbage); Severity::Warning marks a
 * suspicious-but-runnable model, including the paper-faithful
 * operating points that exceed the linear stability bound on purpose
 * (listed in tests/golden/audit_findings.txt with rationale).
 *
 * The audits are read-only: running them never changes simulation
 * results.  See docs/model_verification.md for the catalog.
 */

#ifndef VSGPU_VERIFY_VERIFY_HH
#define VSGPU_VERIFY_VERIFY_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/netlist.hh"
#include "circuit/stamping.hh"
#include "common/units.hh"
#include "control/controller.hh"

namespace vsgpu::verify
{

/** How bad a finding is; Error gates a run, Warning is reported. */
enum class Severity
{
    Warning, ///< suspicious but runnable (golden replay: reviewed list)
    Error,   ///< malformed model; the simulation must not start
};

/** @return printable severity name. */
std::string_view severityName(Severity severity);

/** One verifier finding. */
struct Diagnostic
{
    std::string id; ///< stable dotted id, e.g. "erc.floating-node"
    Severity severity = Severity::Warning;
    std::string subject; ///< node / element / config the finding is on
    std::string message; ///< detail with the offending numbers
};

/** Ordered collection of findings from one or more audits. */
struct Report
{
    std::vector<Diagnostic> diags;

    /** Append one finding. */
    void add(std::string id, Severity severity, std::string subject,
             std::string message);

    /** Append every finding of @p other. */
    void merge(const Report &other);

    /** @return number of Error-severity findings. */
    std::size_t errorCount() const;

    /** @return true when any finding is an Error. */
    bool hasErrors() const { return errorCount() > 0; }

    /** @return true when any finding carries @p id. */
    bool has(std::string_view id) const;

    /** @return count of findings carrying @p id. */
    std::size_t count(std::string_view id) const;
};

/** Multi-line human-readable rendering ("id [severity] subject: ..."). */
std::string formatReport(const Report &report);

// ---------------------------------------------------------------------
// ERC family.

/** Knobs of the electrical rule check. */
struct ErcOptions
{
    /** Timestep for the trapezoidal companion conductances used in
     *  the SPD/passivity check of the MNA conductance block. */
    Seconds dt = config::clockPeriod;
};

/**
 * Electrical rule check over a constructed netlist.  Emits:
 *   erc.floating-node        no DC path (R/L/source/switch/equalizer)
 *                            from the node to ground            [Error]
 *   erc.unused-node          allocated node with no terminals  [Warning]
 *   erc.dangling-node        node with exactly one terminal    [Warning]
 *   erc.nonpositive-resistance / -capacitance / -inductance /
 *   erc.nonpositive-switch-resistance /
 *   erc.nonpositive-equalizer-resistance
 *                            zero, negative, or non-finite value [Error]
 *   erc.shorted-voltage-source  both terminals on one node       [Error]
 *   erc.parallel-voltage-sources  two sources across one pair    [Error]
 *   erc.self-loop            passive element with a == b        [Warning]
 *   erc.duplicate-element    identical-type stamp repeated
 *                            across the same node pair          [Warning]
 *   erc.mna-not-spd          independently re-assembled MNA
 *                            conductance block (with trapezoidal
 *                            companion terms) fails Cholesky     [Error]
 */
Report ercAudit(const Netlist &net, const ErcOptions &opts = {});

// ---------------------------------------------------------------------
// Numeric family.

/** Knobs of the numeric audit. */
struct NumericAuditOptions
{
    /** Configured transient timestep. */
    Seconds dt = config::clockPeriod;

    /** Node probed for the impedance scan; < 0 disables the scan. */
    NodeId probeNode = -1;

    /** Condition-number estimate above this is flagged. */
    double conditionLimit = 1e12;

    /** Accuracy floor: samples per dominant-resonance period. */
    double minSamplesPerPeriod = 8.0;

    /** Impedance scan range (log grid). */
    Hertz scanLoHz = 1.0_MHz;
    Hertz scanHiHz = 10.0_GHz;
    int scanPoints = 40;

    /** Compiled assembly pattern of the audited netlist, shared with
     *  the scan's AcAnalysis (nullptr = the scan compiles its own). */
    std::shared_ptr<const MnaPattern> mnaPattern;
};

/**
 * Numeric conditioning audit.  Emits:
 *   num.mna-singular         the full MNA matrix (conductances +
 *                            source rows) does not factor          [Error]
 *   num.ill-conditioned      condition estimate above the limit  [Warning]
 *   num.dt-undersamples-pole fewer than minSamplesPerPeriod steps
 *                            per dominant-resonance period
 *                            (Error when below 2 — the step cannot
 *                            represent the pole at all)
 *   num.trapezoidal-ringing  omega * dt / 2 > 1 at the dominant
 *                            resonance: the trapezoidal companion
 *                            maps the pole to a negative-real
 *                            discrete pole (cycle-level ringing) [Warning]
 */
Report numericAudit(const Netlist &net,
                    const NumericAuditOptions &opts = {});

// ---------------------------------------------------------------------
// Control family.

/** Inputs to the control-loop audit. */
struct ControlAuditInputs
{
    /** The smoothing-controller configuration to audit. */
    ControllerConfig controller;

    /** Per-layer boundary-rail capacitance (decap + CR-IVR fly). */
    Farads boundaryCap = Farads{4.0 * 100e-9};

    /** Stacking geometry (gain/capacitance aggregation). */
    int numLayers = config::numLayers;
    int smsPerLayer = config::smsPerLayer;

    /** Margin floors (linear gain factor / degrees). */
    double gainMarginFloor = 2.0;
    double phaseMarginFloorDeg = 30.0;
};

/**
 * Discrete-time audit of the smoothing loop.  Emits:
 *   ctl.nonpositive-period   control period of zero cycles        [Error]
 *   ctl.deadband             detector resolution coarser than the
 *                            nominal-to-threshold actuation band  [Error]
 *   ctl.latency-order        detector latency exceeds the total
 *                            loop latency                       [Warning]
 *   ctl.jury-unstable        a Laplacian mode of the delayed
 *                            discrete PI loop fails the Jury
 *                            stability test                     [Warning]
 *   ctl.margin-low           Jury-stable but gain or phase margin
 *                            below the configured floor         [Warning]
 */
Report controlAudit(const ControlAuditInputs &in);

/**
 * Jury stability test: true iff every root of
 *   a[0] z^n + a[1] z^(n-1) + ... + a[n]
 * lies strictly inside the unit circle (marginal roots count as
 * unstable).  Exposed for direct testing against the companion-matrix
 * eigenvalue route.
 */
bool juryStable(const std::vector<double> &coeffs);

} // namespace vsgpu::verify

#endif // VSGPU_VERIFY_VERIFY_HH
