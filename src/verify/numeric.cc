/**
 * @file
 * Numeric conditioning audit: factorability and condition estimate of
 * the full MNA system the transient engine will solve, and the
 * configured timestep against the dominant PDN resonance found by AC
 * analysis (sampling accuracy + trapezoidal ringing risk).
 */

#include <cmath>
#include <sstream>
#include <vector>

#include "circuit/ac.hh"
#include "numeric/matrix.hh"
#include "verify/verify.hh"

namespace vsgpu::verify
{
namespace
{

/**
 * Non-panicking inverse via partial-pivot Gauss-Jordan.  The solver's
 * own LuFactor panics on a singular matrix (a programming-error
 * contract); the verifier must instead turn singularity into a
 * diagnostic, so it carries its own elimination.
 *
 * @return false when a pivot vanishes (singular matrix).
 */
bool
tryInverse(Matrix a, Matrix &inv)
{
    const std::size_t n = a.rows();
    inv = Matrix::identity(n);
    for (std::size_t k = 0; k < n; ++k)
    {
        std::size_t pivot = k;
        double best = std::fabs(a(k, k));
        for (std::size_t i = k + 1; i < n; ++i)
        {
            const double cand = std::fabs(a(i, k));
            if (cand > best)
            {
                best = cand;
                pivot = i;
            }
        }
        if (!(best > 0.0) || !std::isfinite(best))
            return false;
        if (pivot != k)
        {
            for (std::size_t j = 0; j < n; ++j)
            {
                std::swap(a(k, j), a(pivot, j));
                std::swap(inv(k, j), inv(pivot, j));
            }
        }
        const double diag = a(k, k);
        for (std::size_t j = 0; j < n; ++j)
        {
            a(k, j) /= diag;
            inv(k, j) /= diag;
        }
        for (std::size_t i = 0; i < n; ++i)
        {
            if (i == k)
                continue;
            const double factor = a(i, k);
            if (factor == 0.0)
                continue;
            for (std::size_t j = 0; j < n; ++j)
            {
                a(i, j) -= factor * a(k, j);
                inv(i, j) -= factor * inv(k, j);
            }
        }
    }
    return true;
}

} // namespace

Report
numericAudit(const Netlist &net, const NumericAuditOptions &opts)
{
    Report report;
    const int numNodes = net.numNodes();
    if (numNodes == 0)
        return report;
    const double dt = opts.dt.raw();
    if (!(dt > 0.0) || !std::isfinite(dt))
    {
        report.add("num.nonpositive-dt", Severity::Error, "timestep",
                   "transient dt must be positive and finite");
        return report;
    }

    // Full MNA system at one trapezoidal step: node conductances (with
    // Norton companion terms for C and L) plus one branch row per
    // ideal voltage source.  Assembled here independently of the
    // transient engine's stamping code.
    const std::size_t nodeCount = static_cast<std::size_t>(numNodes);
    const std::size_t order = nodeCount + net.voltageSources().size();
    Matrix a(order, order);
    const auto ix = [](NodeId n) { return static_cast<std::size_t>(n - 1); };
    const auto stamp = [&a, &ix](NodeId p, NodeId q, double cond) {
        if (p != Netlist::ground)
            a(ix(p), ix(p)) += cond;
        if (q != Netlist::ground)
            a(ix(q), ix(q)) += cond;
        if (p != Netlist::ground && q != Netlist::ground)
        {
            a(ix(p), ix(q)) -= cond;
            a(ix(q), ix(p)) -= cond;
        }
    };
    for (const auto &r : net.resistors())
        stamp(r.a, r.b, 1.0 / r.ohms);
    for (const auto &sw : net.switches())
        stamp(sw.a, sw.b,
              1.0 / (sw.initiallyClosed ? sw.onOhms : sw.offOhms));
    for (const auto &c : net.capacitors())
        stamp(c.a, c.b, 2.0 * c.farads / dt);
    for (const auto &l : net.inductors())
        stamp(l.a, l.b, dt / (2.0 * l.henries));
    for (const auto &eq : net.equalizers())
    {
        const double cond = 1.0 / eq.effOhms;
        const NodeId nodes[3] = {eq.top, eq.mid, eq.bottom};
        const double weights[3] = {1.0, -2.0, 1.0};
        for (int i = 0; i < 3; ++i)
        {
            if (nodes[i] == Netlist::ground)
                continue;
            for (int j = 0; j < 3; ++j)
            {
                if (nodes[j] == Netlist::ground)
                    continue;
                a(ix(nodes[i]), ix(nodes[j])) +=
                    cond * weights[i] * weights[j];
            }
        }
    }
    for (std::size_t k = 0; k < net.voltageSources().size(); ++k)
    {
        const auto &v = net.voltageSources()[k];
        const std::size_t row = nodeCount + k;
        if (v.plus != Netlist::ground)
        {
            a(row, ix(v.plus)) += 1.0;
            a(ix(v.plus), row) += 1.0;
        }
        if (v.minus != Netlist::ground)
        {
            a(row, ix(v.minus)) -= 1.0;
            a(ix(v.minus), row) -= 1.0;
        }
    }

    Matrix inv;
    if (!tryInverse(a, inv))
    {
        report.add("num.mna-singular", Severity::Error, "MNA system",
                   "full MNA matrix (conductances + source rows) does "
                   "not factor; the transient solve would fail");
        return report;
    }
    const double cond = a.normInf() * inv.normInf();
    if (!std::isfinite(cond) || cond > opts.conditionLimit)
    {
        std::ostringstream os;
        os << "infinity-norm condition estimate " << cond
           << " exceeds the limit " << opts.conditionLimit
           << "; expect heavy round-off in the transient solve";
        report.add("num.ill-conditioned", Severity::Warning, "MNA system",
                   os.str());
    }

    // Dominant resonance vs timestep.  Scan |Z(f)| at the probe node
    // over a log grid and compare the resonance frequency against dt.
    // The scan range is a property of the circuit, not of dt, so an
    // oversized step is measured against the real pole rather than
    // against its own Nyquist limit.  Only an *interior* local
    // maximum counts as a resonance: PDN impedance rises
    // monotonically toward the package-inductance asymptote at the
    // high end of the scan, and that edge slope is not a pole the
    // transient step must resolve.
    if (opts.probeNode > 0 && opts.probeNode <= numNodes &&
        opts.scanPoints >= 3)
    {
        const AcAnalysis ac(net, {}, defaultSolver(), opts.mnaPattern);
        const double lo = opts.scanLoHz.raw();
        const double hi = opts.scanHiHz.raw();
        const double ratio = hi / lo;
        std::vector<double> freqs(
            static_cast<std::size_t>(opts.scanPoints));
        for (int i = 0; i < opts.scanPoints; ++i)
        {
            const double t = static_cast<double>(i) /
                             static_cast<double>(opts.scanPoints - 1);
            freqs[static_cast<std::size_t>(i)] = lo * std::pow(ratio, t);
        }
        const auto volts =
            ac.scan(freqs, {{{opts.probeNode, Complex{1.0, 0.0}}}});
        std::vector<double> mags(
            static_cast<std::size_t>(opts.scanPoints));
        for (std::size_t k = 0; k < mags.size(); ++k)
            mags[k] = std::abs(
                volts[k][0][static_cast<std::size_t>(opts.probeNode)]);
        double peakHz = 0.0;
        double peakOhms = -1.0;
        for (int i = 1; i + 1 < opts.scanPoints; ++i)
        {
            const std::size_t k = static_cast<std::size_t>(i);
            if (mags[k] >= mags[k - 1] && mags[k] >= mags[k + 1] &&
                mags[k] > peakOhms)
            {
                peakOhms = mags[k];
                peakHz = freqs[k];
            }
        }
        if (peakHz > 0.0)
        {
            const double samplesPerPeriod = 1.0 / (dt * peakHz);
            std::ostringstream os;
            os << "dominant resonance " << peakHz / 1e6 << " MHz ("
               << peakOhms << " ohm peak) sampled " << samplesPerPeriod
               << "x per period at dt = " << dt * 1e9 << " ns";
            if (samplesPerPeriod < 2.0)
                report.add("num.dt-undersamples-pole", Severity::Error,
                           "timestep",
                           os.str() + "; below the Nyquist floor of 2, "
                                      "the step cannot represent the "
                                      "pole");
            else if (samplesPerPeriod < opts.minSamplesPerPeriod)
            {
                std::ostringstream floor;
                floor << "; accuracy floor is "
                      << opts.minSamplesPerPeriod;
                report.add("num.dt-undersamples-pole",
                           Severity::Warning, "timestep",
                           os.str() + floor.str());
            }
            const double halfOmegaDt = M_PI * peakHz * dt;
            if (halfOmegaDt > 1.0)
            {
                std::ostringstream ring;
                ring << "omega*dt/2 = " << halfOmegaDt
                     << " at the dominant resonance: the trapezoidal "
                        "rule maps it to a negative-real discrete pole "
                        "(step-to-step ringing)";
                report.add("num.trapezoidal-ringing", Severity::Warning,
                           "timestep", ring.str());
            }
        }
    }

    return report;
}

} // namespace vsgpu::verify
