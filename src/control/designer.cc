#include "control/designer.hh"

#include <cmath>

#include "common/logging.hh"
#include "numeric/eigen.hh"

namespace vsgpu
{

Volts
ControlDesign::worstDroopVolts(Amps imbalanceAmps) const
{
    // A sinusoidal imbalance current I at the boundary contributes a
    // per-period state disturbance of amplitude I * T / C; the droop
    // is that amplitude times the closed loop's peak gain.
    return peakDisturbanceGain * imbalanceAmps * samplePeriodSec /
           boundaryCapF;
}

ControlDesign
designController(const ControlDesignSpec &spec)
{
    panicIfNot(spec.boundaryCapF > Farads{},
               "capacitance must be positive");
    panicIfNot(spec.loopLatencyCycles > 0, "latency must be positive");

    ControlDesign d;
    d.samplePeriodSec =
        static_cast<double>(spec.loopLatencyCycles) *
        config::clockPeriod;
    d.boundaryCapF = spec.boundaryCapF;

    // The state-space matrices are the dimension-erased boundary to
    // the numeric library.
    const double invC = (1.0 / spec.boundaryCapF).rawEscape(); // state-space assembly boundary

    // Plant: x = [V1 V2 V3]; u = [P1 P2 P3 P4] (layer powers).
    d.plant.a = Matrix(3, 3);
    d.plant.b = Matrix(3, 4);
    for (std::size_t i = 0; i < 3; ++i) {
        d.plant.b(i, i) = -invC;
        d.plant.b(i, i + 1) = invC;
    }

    // Feedback: P_i = k * (V_i - V_{i-1}) with V0 = 0 and V4 held by
    // the supply (its deviation is zero in the linearized model).
    const double k = spec.gainWattsPerVolt.rawEscape(); // state-space assembly boundary
    d.feedback = Matrix(4, 3);
    d.feedback(0, 0) = k;
    d.feedback(1, 0) = -k;
    d.feedback(1, 1) = k;
    d.feedback(2, 1) = -k;
    d.feedback(2, 2) = k;
    d.feedback(3, 2) = -k;

    // ZOH discretization at the loop period; the command applied over
    // period n is computed from the sample at period n-1, giving the
    // augmented delayed closed loop.
    const DiscreteStateSpace dss =
        discretizeZoh(d.plant, d.samplePeriodSec.rawEscape()); // state-space assembly boundary
    const Matrix bdk = dss.bd * d.feedback;

    d.augmented = Matrix(6, 6);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            d.augmented(i, j) = dss.ad(i, j);
            d.augmented(i, j + 3) = bdk(i, j);
        }
        d.augmented(i + 3, i) = 1.0;
    }

    d.spectralRadius = spectralRadius(d.augmented);
    d.stable = d.spectralRadius < 1.0;
    d.peakDisturbanceGain =
        peakDisturbanceGain(d.augmented, d.samplePeriodSec.rawEscape()); // state-space assembly boundary
    return d;
}

WattsPerVolt
maxStableGain(Farads boundaryCapF, Cycle loopLatencyCycles)
{
    ControlDesignSpec spec;
    spec.boundaryCapF = boundaryCapF;
    spec.loopLatencyCycles = loopLatencyCycles;

    WattsPerVolt lo{};
    WattsPerVolt hi{1.0};
    // Grow hi until unstable (or absurdly large).
    for (int i = 0; i < 60; ++i) {
        spec.gainWattsPerVolt = hi;
        if (!designController(spec).stable)
            break;
        lo = hi;
        hi *= 2.0;
        if (hi > WattsPerVolt{1e9})
            return lo;
    }
    for (int i = 0; i < 50; ++i) {
        const WattsPerVolt mid = 0.5 * (lo + hi);
        spec.gainWattsPerVolt = mid;
        if (designController(spec).stable)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace vsgpu
