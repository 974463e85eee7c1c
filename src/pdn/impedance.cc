#include "pdn/impedance.hh"

#include <cmath>

#include "circuit/ac.hh"
#include "common/logging.hh"

namespace vsgpu
{

namespace
{

/** Global pattern: every SM draws 1 A (per-amp-of-SM-load axis). */
std::vector<double>
globalLoadPattern(const VsPdn &pdn)
{
    return std::vector<double>(
        static_cast<std::size_t>(pdn.numSms()), 1.0);
}

/** Stack pattern for one column: +(1 - 1/M) on the column, -1/M
 *  elsewhere (global component removed). */
std::vector<double>
stackLoadPattern(const VsPdn &pdn, int column)
{
    std::vector<double> loads(
        static_cast<std::size_t>(pdn.numSms()), 0.0);
    const double inCol =
        1.0 - 1.0 / static_cast<double>(pdn.columns());
    const double outCol =
        -1.0 / static_cast<double>(pdn.columns());
    for (int sm = 0; sm < pdn.numSms(); ++sm) {
        loads[static_cast<std::size_t>(sm)] =
            pdn.columnOf(sm) == column ? inCol : outCol;
    }
    return loads;
}

/** Residual pattern: +(1 - 1/N) at (layer 0, column 0), -1/N at the
 *  other layers of column 0. */
std::vector<double>
residualLoadPattern(const VsPdn &pdn)
{
    std::vector<double> loads(
        static_cast<std::size_t>(pdn.numSms()), 0.0);
    for (int layer = 0; layer < pdn.layers(); ++layer) {
        const int sm = pdn.smIndexAt(layer, 0);
        loads[static_cast<std::size_t>(sm)] =
            layer == 0
                ? 1.0 - 1.0 / static_cast<double>(pdn.layers())
                : -1.0 / static_cast<double>(pdn.layers());
    }
    return loads;
}

/** Translate per-SM load amplitudes into AC current injections. */
std::vector<AcInjection>
injectionsFor(const VsPdn &pdn, const std::vector<double> &smLoadAmps)
{
    std::vector<AcInjection> injections;
    injections.reserve(smLoadAmps.size() * 2);
    for (int sm = 0; sm < pdn.numSms(); ++sm) {
        const double amps = smLoadAmps[static_cast<std::size_t>(sm)];
        if (amps == 0.0)
            continue;
        // A load drawing current pulls it out of the SM's top node
        // and returns it at the bottom node.
        injections.push_back(
            {pdn.smTopNode(sm), Complex{-amps, 0.0}});
        injections.push_back(
            {pdn.smBottomNode(sm), Complex{amps, 0.0}});
    }
    return injections;
}

/** |layer-voltage response| at one SM from a solved node vector. */
Ohms
observeAt(const VsPdn &pdn, const std::vector<Complex> &volts, int sm)
{
    const Complex dv =
        volts[static_cast<std::size_t>(pdn.smTopNode(sm))] -
        volts[static_cast<std::size_t>(pdn.smBottomNode(sm))];
    return Ohms{std::abs(dv)};
}

} // namespace

ImpedanceAnalyzer::ImpedanceAnalyzer(const VsPdn &pdn)
    : pdn_(pdn), ac_(pdn.netlist())
{
}

Ohms
ImpedanceAnalyzer::respond(const std::vector<double> &smLoadAmps,
                           int observeSm, Hertz freq) const
{
    panicIfNot(smLoadAmps.size() ==
               static_cast<std::size_t>(pdn_.numSms()),
               "per-SM load vector size mismatch");

    const auto volts = // raw escape: AC solver boundary
        ac_.solve(freq.rawEscape(), injectionsFor(pdn_, smLoadAmps));
    return observeAt(pdn_, volts, observeSm);
}

Ohms
ImpedanceAnalyzer::globalImpedance(Hertz freq) const
{
    // Per-amp-of-SM-load convention: every SM draws 1 A and we report
    // the layer-voltage deviation at one of them, so all four
    // impedance flavours relate the *per-SM* current deviation to the
    // local rail response and can share one axis (paper Fig. 3).
    return respond(globalLoadPattern(pdn_), pdn_.smIndexAt(0, 0),
                   freq);
}

Ohms
ImpedanceAnalyzer::stackImpedance(Hertz freq, int column) const
{
    panicIfNot(column >= 0 && column < pdn_.columns(),
               "bad stack column ", column);
    // Stack pattern: every SM of the column draws 1 A, with the
    // global component removed (orthogonal decomposition), i.e.
    // +(1 - 1/M) on the column and -1/M elsewhere.
    return respond(stackLoadPattern(pdn_, column),
                   pdn_.smIndexAt(0, column), freq);
}

Ohms
ImpedanceAnalyzer::residualImpedance(Hertz freq, bool sameLayer) const
{
    // Unit extra load at SM (layer 0, column 0); residual component
    // is +(1 - 1/N) there and -1/N at the other layers of column 0.
    const int observe =
        sameLayer ? pdn_.smIndexAt(0, 0)
                  : pdn_.smIndexAt(pdn_.layers() / 2, 0);
    return respond(residualLoadPattern(pdn_), observe, freq);
}

ImpedancePoint
ImpedanceAnalyzer::sweepPoint(Hertz freq) const
{
    return sweep({freq}).front();
}

std::vector<ImpedancePoint>
ImpedanceAnalyzer::sweep(const std::vector<Hertz> &freqs) const
{
    // Three stimulus patterns (the two residual flavours share one),
    // solved against a single factorization per frequency.
    const std::vector<std::vector<AcInjection>> patterns = {
        injectionsFor(pdn_, globalLoadPattern(pdn_)),
        injectionsFor(pdn_, stackLoadPattern(pdn_, 0)),
        injectionsFor(pdn_, residualLoadPattern(pdn_)),
    };
    std::vector<double> freqsHz;
    freqsHz.reserve(freqs.size());
    for (Hertz f : freqs)
        freqsHz.push_back(f.rawEscape()); // AC solver boundary
    const auto scan = ac_.scan(freqsHz, patterns);

    const int sm0 = pdn_.smIndexAt(0, 0);
    const int smMid = pdn_.smIndexAt(pdn_.layers() / 2, 0);
    std::vector<ImpedancePoint> points;
    points.reserve(freqs.size());
    for (std::size_t k = 0; k < freqs.size(); ++k) {
        const auto &volts = scan[k];
        ImpedancePoint p;
        p.freq = freqs[k];
        p.zGlobal = observeAt(pdn_, volts[0], sm0);
        p.zStack = observeAt(pdn_, volts[1], sm0);
        p.zResidualSameLayer = observeAt(pdn_, volts[2], sm0);
        p.zResidualDiffLayer = observeAt(pdn_, volts[2], smMid);
        points.push_back(p);
    }
    return points;
}

Ohms
ImpedanceAnalyzer::peakImpedance(Hertz freq) const
{
    const ImpedancePoint p = sweepPoint(freq);
    Ohms z = p.zGlobal;
    z = std::max(z, p.zStack);
    z = std::max(z, p.zResidualSameLayer);
    z = std::max(z, p.zResidualDiffLayer);
    return z;
}

std::vector<Hertz>
logFrequencyGrid(Hertz lo, Hertz hi, int n)
{
    panicIfNot(lo > Hertz{} && hi > lo && n >= 2,
               "bad frequency grid parameters");
    std::vector<Hertz> freqs;
    freqs.reserve(static_cast<std::size_t>(n));
    const double ratio = std::log(hi / lo);
    for (int i = 0; i < n; ++i) {
        const double frac =
            static_cast<double>(i) / static_cast<double>(n - 1);
        freqs.push_back(lo * std::exp(ratio * frac));
    }
    return freqs;
}

} // namespace vsgpu
