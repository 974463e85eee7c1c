/**
 * @file
 * Effective impedance analysis of the voltage-stacked PDN (paper
 * Section III-B and Fig. 3).
 *
 * Any SM load-current vector decomposes into three orthogonal
 * components:
 *   - global:   the mean over all 16 SMs (flows top-to-bottom through
 *               the whole stack),
 *   - stack:    the per-column mean after removing the global part,
 *   - residual: what remains — vertical imbalance inside a column,
 *               the component that disturbs the boundary rails.
 *
 * For each component we inject the corresponding AC current pattern
 * and report the magnitude of the layer-voltage response per amp of
 * SM load:
 *   - Z_G:        response at a loaded SM to the global pattern,
 *   - Z_ST:       response within the loaded stack to the stack
 *                 pattern,
 *   - Z_R (same layer):      response at the over-loaded SM itself,
 *   - Z_R (different layer): response at another layer of the same
 *                 column.
 */

#ifndef VSGPU_PDN_IMPEDANCE_HH
#define VSGPU_PDN_IMPEDANCE_HH

#include <vector>

#include "circuit/ac.hh"
#include "pdn/vs_pdn.hh"

namespace vsgpu
{

/** One row of the effective-impedance sweep. */
struct ImpedancePoint
{
    Hertz freq{};
    Ohms zGlobal{};
    Ohms zStack{};
    Ohms zResidualSameLayer{};
    Ohms zResidualDiffLayer{};
};

/**
 * Effective impedance analyzer over a voltage-stacked PDN.
 */
class ImpedanceAnalyzer
{
  public:
    /** @param pdn the PDN to analyze (must outlive the analyzer). */
    explicit ImpedanceAnalyzer(const VsPdn &pdn);

    /** @return Z_G at one frequency. */
    Ohms globalImpedance(Hertz freq) const;

    /** @return Z_ST for the given column at one frequency. */
    Ohms stackImpedance(Hertz freq, int column = 0) const;

    /**
     * @return Z_R at one frequency.
     * @param sameLayer measure at the over-loaded SM itself when
     *        true; at a different layer of the same column otherwise.
     */
    Ohms residualImpedance(Hertz freq, bool sameLayer) const;

    /**
     * All four impedances at one frequency.  Builds and factors the
     * complex MNA system once and back-substitutes the three stimulus
     * patterns against it, so one sweep point costs one
     * factorization instead of four.
     */
    ImpedancePoint sweepPoint(Hertz freq) const;

    /**
     * Sweep all four impedances over a frequency list: one
     * AcAnalysis::scan, so the whole sweep shares one assembler and
     * one factor workspace.
     */
    std::vector<ImpedancePoint>
    sweep(const std::vector<Hertz> &freqs) const;

    /** @return the maximum of the four impedances at one frequency. */
    Ohms peakImpedance(Hertz freq) const;

  private:
    /**
     * Solve with per-SM load amplitudes and return |ΔV| of the layer
     * voltage at the observed SM per amp of stimulus normalization.
     */
    Ohms respond(const std::vector<double> &smLoadAmps,
                 int observeSm, Hertz freq) const;

    const VsPdn &pdn_;
    AcAnalysis ac_;
};

/** Logarithmically spaced frequency grid [lo, hi], n points. */
std::vector<Hertz> logFrequencyGrid(Hertz lo, Hertz hi, int n);

} // namespace vsgpu

#endif // VSGPU_PDN_IMPEDANCE_HH
