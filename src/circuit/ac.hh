/**
 * @file
 * Small-signal AC (phasor) analysis of a Netlist.
 *
 * Implements the effective-impedance methodology of paper Section
 * III-B: inject sinusoidal current stimuli at chosen nodes and observe
 * the complex voltage response.  DC voltage sources are shorted (AC
 * value zero) and load current sources are open, as in standard
 * small-signal analysis.
 */

#ifndef VSGPU_CIRCUIT_AC_HH
#define VSGPU_CIRCUIT_AC_HH

#include <memory>
#include <utility>
#include <vector>

#include "circuit/netlist.hh"
#include "circuit/solver.hh"
#include "circuit/stamping.hh"
#include "numeric/matrix.hh"

namespace vsgpu
{

/** One AC current injection: node and complex amplitude (amps). */
struct AcInjection
{
    NodeId node;
    Complex amps;
};

/**
 * AC analyzer over a fixed netlist.  Each call builds the complex MNA
 * system at the requested frequencies.  The analyzer holds only the
 * netlist, the switch states and the assembly pattern: every solve
 * owns its workspace, so one instance is safe to share.
 */
class AcAnalysis
{
  public:
    /**
     * @param netlist the circuit (must outlive the analyzer).
     * @param switchClosed switch states to assume (defaults to each
     *        switch's initial state).
     * @param solver  linear-solver backend (defaults to the
     *        process-wide selection, normally sparse).
     * @param pattern pre-built assembly pattern for this netlist
     *        (nullptr = build one here when sparse).
     */
    explicit AcAnalysis(
        const Netlist &netlist,
        std::vector<bool> switchClosed = {},
        SolverKind solver = defaultSolver(),
        std::shared_ptr<const MnaPattern> pattern = nullptr);

    /**
     * Solve the phasor system at one frequency.
     *
     * @param freqHz    stimulus frequency (> 0).
     * @param injections current injections (positive = current pushed
     *                   into the node).
     * @return complex node voltages indexed by node id (0 = ground).
     */
    std::vector<Complex>
    // raw-ok(dimension-erased MNA solver boundary)
    solve(double freqHz, const std::vector<AcInjection> &injections) const;

    /**
     * Solve several injection patterns at one frequency, building
     * and factoring the complex MNA system exactly once and reusing
     * the factorization for every right-hand side.  The effective-
     * impedance methodology needs four stimulus patterns per
     * frequency point; sharing the factorization makes a sweep point
     * one LU plus four back-substitutions instead of four LUs.
     *
     * @return per-pattern node voltages, in pattern order.
     */
    std::vector<std::vector<Complex>>
    solveMany(double freqHz, // raw-ok(dimension-erased MNA solver boundary)
              const std::vector<std::vector<AcInjection>> &patterns)
        const;

    /**
     * Convenience: impedance seen between a node and ground, i.e. the
     * voltage response at @p node to a unit current injected there.
     */
    Complex impedanceAt(double freqHz, NodeId node) const; // raw-ok(dimension-erased MNA solver boundary)

    /**
     * Solve several injection patterns at each of several
     * frequencies.  The whole scan assembles and factors into one
     * assembler and one factor workspace (sparse backend), and the
     * right-hand sides are built once; every point's voltages are
     * bitwise equal to a solveMany() at that frequency.
     *
     * @return node voltages indexed [frequency][pattern][node], in
     *         the order given.
     */
    std::vector<std::vector<std::vector<Complex>>>
    scan(const std::vector<double> &freqsHz,
         const std::vector<std::vector<AcInjection>> &patterns) const;

  private:
    /** Dense complex MNA matrix at angular frequency @p w. */
    CMatrix denseMatrix(double w) const;

    const Netlist &netlist_;
    std::vector<bool> switchClosed_;
    SolverKind solver_;
    std::shared_ptr<const MnaPattern> pattern_;
};

} // namespace vsgpu

#endif // VSGPU_CIRCUIT_AC_HH
