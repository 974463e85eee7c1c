#include "circuit/ac.hh"

#include <cmath>

#include "common/logging.hh"

namespace vsgpu
{

namespace
{

/** Right-hand side of every injection pattern (frequency-free). */
std::vector<std::vector<Complex>>
rhsOf(const std::vector<std::vector<AcInjection>> &patterns,
      int numNodes, std::size_t n)
{
    std::vector<std::vector<Complex>> rhs;
    rhs.reserve(patterns.size());
    for (const auto &injections : patterns) {
        std::vector<Complex> b(n, Complex{});
        for (const auto &inj : injections) {
            panicIfNot(inj.node >= 0 && inj.node <= numNodes,
                       "AC injection at unknown node");
            if (inj.node > 0)
                b[static_cast<std::size_t>(inj.node - 1)] += inj.amps;
        }
        rhs.push_back(std::move(b));
    }
    return rhs;
}

/** Per-pattern solve + node-voltage fold, shared by the sparse and
 *  dense backends. */
template <typename Lu>
std::vector<std::vector<Complex>>
backSubstitute(const Lu &lu, const std::vector<std::vector<Complex>> &rhs,
               int numNodes)
{
    std::vector<std::vector<Complex>> results;
    results.reserve(rhs.size());
    for (const auto &b : rhs) {
        const std::vector<Complex> x = lu.solve(b);
        std::vector<Complex> volts(
            static_cast<std::size_t>(numNodes) + 1, Complex{});
        for (int i = 1; i <= numNodes; ++i)
            volts[static_cast<std::size_t>(i)] =
                x[static_cast<std::size_t>(i - 1)];
        results.push_back(std::move(volts));
    }
    return results;
}

/** Angular frequency of one scan point (> 0 enforced). */
double
omegaOf(double freqHz)
{
    panicIfNot(freqHz > 0.0, "AC analysis requires positive frequency");
    return 2.0 * M_PI * freqHz;
}

} // namespace

AcAnalysis::AcAnalysis(const Netlist &netlist,
                       std::vector<bool> switchClosed,
                       SolverKind solver,
                       std::shared_ptr<const MnaPattern> pattern)
    : netlist_(netlist), switchClosed_(std::move(switchClosed)),
      solver_(solver), pattern_(std::move(pattern))
{
    const auto &switches = netlist_.switches();
    if (switchClosed_.empty()) {
        switchClosed_.resize(switches.size());
        for (std::size_t i = 0; i < switches.size(); ++i)
            switchClosed_[i] = switches[i].initiallyClosed;
    }
    panicIfNot(switchClosed_.size() == switches.size(),
               "AC switch-state size mismatch");
    if (solver_ == SolverKind::Sparse) {
        if (!pattern_)
            pattern_ = MnaPattern::build(netlist_);
        panicIfNot(pattern_->numUnknowns ==
                       netlist_.numNodes() +
                           static_cast<int>(
                               netlist_.voltageSources().size()),
                   "assembly pattern does not match the netlist");
    }
}

std::vector<Complex>
AcAnalysis::solve(double freqHz,
                  const std::vector<AcInjection> &injections) const
{
    return solveMany(freqHz, {injections}).front();
}

std::vector<std::vector<Complex>>
AcAnalysis::solveMany(
    double freqHz,
    const std::vector<std::vector<AcInjection>> &patterns) const
{
    return scan({freqHz}, patterns).front();
}

std::vector<std::vector<std::vector<Complex>>>
AcAnalysis::scan(
    const std::vector<double> &freqsHz,
    const std::vector<std::vector<AcInjection>> &patterns) const
{
    const int numNodes = netlist_.numNodes();
    const int numVsrc =
        static_cast<int>(netlist_.voltageSources().size());
    const std::size_t n = static_cast<std::size_t>(numNodes + numVsrc);
    const std::vector<std::vector<Complex>> rhs =
        rhsOf(patterns, numNodes, n);
    std::vector<std::vector<std::vector<Complex>>> results;
    results.reserve(freqsHz.size());

    if (solver_ == SolverKind::Sparse) {
        // One assembler and one factor workspace for the whole scan:
        // beginStep() clears every slot and factor() resets all
        // pivoting state, so each point's bits match a fresh pair.
        // Same element order and floating-point expressions as the
        // dense assembly below; see circuit/stamping.hh.
        CMnaAssembler stamper(pattern_);
        CSparseLu lu(pattern_->csc);
        for (double freqHz : freqsHz) {
            const double w = omegaOf(freqHz);
            stamper.beginStep();
            stamper.stampResistors(netlist_);
            stamper.stampSwitches(netlist_, [this](std::size_t i) {
                return static_cast<bool>(switchClosed_[i]);
            });
            stamper.stampCapacitorsAc(netlist_, w);
            stamper.stampInductorsAc(netlist_, w);
            stamper.stampEqualizersDivided(netlist_);
            stamper.stampVoltageSources(netlist_);
            lu.factor(stamper.commitStep());
            results.push_back(backSubstitute(lu, rhs, numNodes));
        }
        return results;
    }

    for (double freqHz : freqsHz)
        results.push_back(backSubstitute(
            LuFactor<Complex>(denseMatrix(omegaOf(freqHz))), rhs,
            numNodes));
    return results;
}

CMatrix
AcAnalysis::denseMatrix(double w) const
{
    const int numNodes = netlist_.numNodes();
    const std::size_t n = static_cast<std::size_t>(
        numNodes + static_cast<int>(netlist_.voltageSources().size()));
    CMatrix y(n, n);

    const auto stamp = [&](NodeId a, NodeId b, Complex admittance) {
        if (a > 0)
            y(static_cast<std::size_t>(a - 1),
              static_cast<std::size_t>(a - 1)) += admittance;
        if (b > 0)
            y(static_cast<std::size_t>(b - 1),
              static_cast<std::size_t>(b - 1)) += admittance;
        if (a > 0 && b > 0) {
            y(static_cast<std::size_t>(a - 1),
              static_cast<std::size_t>(b - 1)) -= admittance;
            y(static_cast<std::size_t>(b - 1),
              static_cast<std::size_t>(a - 1)) -= admittance;
        }
    };

    for (const auto &r : netlist_.resistors())
        stamp(r.a, r.b, Complex{1.0 / r.ohms, 0.0});

    const auto &switches = netlist_.switches();
    for (std::size_t i = 0; i < switches.size(); ++i) {
        const double ohms = switchClosed_[i] ? switches[i].onOhms
                                             : switches[i].offOhms;
        stamp(switches[i].a, switches[i].b, Complex{1.0 / ohms, 0.0});
    }

    for (const auto &c : netlist_.capacitors())
        stamp(c.a, c.b, Complex{0.0, w * c.farads});

    for (const auto &l : netlist_.inductors())
        stamp(l.a, l.b, Complex{0.0, -1.0 / (w * l.henries)});

    for (const auto &e : netlist_.equalizers()) {
        const NodeId nodes[3] = {e.top, e.mid, e.bottom};
        const double coeff[3] = {1.0, -2.0, 1.0};
        for (int i = 0; i < 3; ++i) {
            if (nodes[i] <= 0)
                continue;
            for (int j = 0; j < 3; ++j) {
                if (nodes[j] <= 0)
                    continue;
                y(static_cast<std::size_t>(nodes[i] - 1),
                  static_cast<std::size_t>(nodes[j] - 1)) +=
                    Complex{coeff[i] * coeff[j] / e.effOhms, 0.0};
            }
        }
    }

    // DC sources short for small-signal analysis (AC value 0).
    const auto &vsrc = netlist_.voltageSources();
    for (std::size_t k = 0; k < vsrc.size(); ++k) {
        const std::size_t row = static_cast<std::size_t>(numNodes) + k;
        if (vsrc[k].plus > 0) {
            const auto p = static_cast<std::size_t>(vsrc[k].plus - 1);
            y(p, row) += Complex{1.0, 0.0};
            y(row, p) += Complex{1.0, 0.0};
        }
        if (vsrc[k].minus > 0) {
            const auto m = static_cast<std::size_t>(vsrc[k].minus - 1);
            y(m, row) -= Complex{1.0, 0.0};
            y(row, m) -= Complex{1.0, 0.0};
        }
        // rhs rows for sources stay zero: AC short.
    }
    return y;
}

Complex
AcAnalysis::impedanceAt(double freqHz, NodeId node) const
{
    const auto volts = solve(freqHz, {{node, Complex{1.0, 0.0}}});
    return volts[static_cast<std::size_t>(node)];
}

} // namespace vsgpu
