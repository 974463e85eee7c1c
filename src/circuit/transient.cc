#include "circuit/transient.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"

namespace vsgpu
{

namespace
{

/** Inductor replacement resistance for DC operating-point solves. */
constexpr double dcInductorOhms = kDcInductorOhms;

} // namespace

TransientSim::TransientSim(const Netlist &netlist, double dt,
                           SolverKind solver,
                           std::shared_ptr<const MnaPattern> pattern)
    : netlist_(netlist), dt_(dt), solver_(solver)
{
    panicIfNot(dt_ > 0.0, "transient timestep must be positive");
    numNodes_ = netlist_.numNodes();
    numVsrc_ = static_cast<int>(netlist_.voltageSources().size());
    numUnknowns_ = numNodes_ + numVsrc_;
    panicIfNot(numNodes_ > 0, "cannot simulate an empty netlist");
    panicIfNot(netlist_.switches().size() <= 64,
               "switch-state cache supports at most 64 switches");

    if (solver_ == SolverKind::Sparse) {
        usedCachedPattern_ = pattern != nullptr;
        pattern_ = pattern ? std::move(pattern)
                           : MnaPattern::build(netlist_);
        panicIfNot(pattern_->numUnknowns == numUnknowns_,
                   "assembly pattern does not match the netlist");
        assembler_ = std::make_unique<MnaAssembler>(pattern_);
    }

    solution_.assign(static_cast<std::size_t>(numUnknowns_), 0.0);
    rhs_.assign(static_cast<std::size_t>(numUnknowns_), 0.0);
    sourceAmps_.resize(netlist_.currentSources().size());
    for (std::size_t i = 0; i < sourceAmps_.size(); ++i)
        sourceAmps_[i] = netlist_.currentSources()[i].amps;
    switchClosed_.resize(netlist_.switches().size());
    for (std::size_t i = 0; i < switchClosed_.size(); ++i)
        switchClosed_[i] = netlist_.switches()[i].initiallyClosed;
    sourceVolts_.resize(netlist_.voltageSources().size());
    for (std::size_t i = 0; i < sourceVolts_.size(); ++i)
        sourceVolts_[i] = netlist_.voltageSources()[i].volts;

    capVolts_.resize(netlist_.capacitors().size());
    capAmps_.assign(netlist_.capacitors().size(), 0.0);
    for (std::size_t i = 0; i < capVolts_.size(); ++i)
        capVolts_[i] = netlist_.capacitors()[i].initialVolts;
    indAmps_.resize(netlist_.inductors().size());
    indVolts_.assign(netlist_.inductors().size(), 0.0);
    for (std::size_t i = 0; i < indAmps_.size(); ++i)
        indAmps_[i] = netlist_.inductors()[i].initialAmps;
}

void
TransientSim::setCurrent(int sourceIdx, double amps)
{
    panicIfNot(sourceIdx >= 0 &&
               sourceIdx < static_cast<int>(sourceAmps_.size()),
               "bad current source index ", sourceIdx);
    VSGPU_CHECK_FINITE(amps);
    sourceAmps_[static_cast<std::size_t>(sourceIdx)] = amps;
}

void
TransientSim::setSwitch(int switchIdx, bool closed)
{
    panicIfNot(switchIdx >= 0 &&
               switchIdx < static_cast<int>(switchClosed_.size()),
               "bad switch index ", switchIdx);
    switchClosed_[static_cast<std::size_t>(switchIdx)] = closed;
}

void
TransientSim::setSourceVolts(int vsrcIdx, double volts)
{
    panicIfNot(vsrcIdx >= 0 &&
               vsrcIdx < static_cast<int>(sourceVolts_.size()),
               "bad voltage source index ", vsrcIdx);
    VSGPU_CHECK_FINITE(volts);
    sourceVolts_[static_cast<std::size_t>(vsrcIdx)] = volts;
}

void
TransientSim::initToDc()
{
    initFromDc(solveDc(netlist_, sourceAmps_, switchClosed_, solver_,
                       pattern_));
}

std::size_t
TransientSim::patternNnz() const
{
    return pattern_ ? pattern_->csc->nnz() : 0;
}

void
TransientSim::initFromDc(const std::vector<double> &dc)
{
    panicIfNot(dc.size() ==
               static_cast<std::size_t>(numNodes_) + 1,
               "DC solution size mismatch");
    for (int n = 1; n <= numNodes_; ++n)
        solution_[static_cast<std::size_t>(n - 1)] =
            dc[static_cast<std::size_t>(n)];

    const auto &caps = netlist_.capacitors();
    for (std::size_t i = 0; i < caps.size(); ++i) {
        capVolts_[i] = dc[static_cast<std::size_t>(caps[i].a)] -
                       dc[static_cast<std::size_t>(caps[i].b)];
        capAmps_[i] = 0.0;
    }
    const auto &inds = netlist_.inductors();
    for (std::size_t i = 0; i < inds.size(); ++i) {
        const double va = dc[static_cast<std::size_t>(inds[i].a)];
        const double vb = dc[static_cast<std::size_t>(inds[i].b)];
        indAmps_[i] = (va - vb) / dcInductorOhms;
        indVolts_[i] = 0.0;
    }
}

void
TransientSim::stampConductance(Matrix &g, NodeId a, NodeId b,
                               double siemens)
{
    if (a > 0)
        g(static_cast<std::size_t>(a - 1),
          static_cast<std::size_t>(a - 1)) += siemens;
    if (b > 0)
        g(static_cast<std::size_t>(b - 1),
          static_cast<std::size_t>(b - 1)) += siemens;
    if (a > 0 && b > 0) {
        g(static_cast<std::size_t>(a - 1),
          static_cast<std::size_t>(b - 1)) -= siemens;
        g(static_cast<std::size_t>(b - 1),
          static_cast<std::size_t>(a - 1)) -= siemens;
    }
}

void
TransientSim::stampEqualizer(Matrix &g, const Netlist::Equalizer &e)
{
    const NodeId nodes[3] = {e.top, e.mid, e.bottom};
    const double coeff[3] = {1.0, -2.0, 1.0};
    const double gEff = 1.0 / e.effOhms;
    for (int i = 0; i < 3; ++i) {
        if (nodes[i] <= 0)
            continue;
        for (int j = 0; j < 3; ++j) {
            if (nodes[j] <= 0)
                continue;
            g(static_cast<std::size_t>(nodes[i] - 1),
              static_cast<std::size_t>(nodes[j] - 1)) +=
                coeff[i] * coeff[j] * gEff;
        }
    }
}

std::uint64_t
TransientSim::switchKey() const
{
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < switchClosed_.size(); ++i)
        if (switchClosed_[i])
            key |= (1ull << i);
    return key;
}

const LuFactor<double> &
TransientSim::factorFor(std::uint64_t key)
{
    auto it = luCache_.find(key);
    if (it != luCache_.end())
        return *it->second;
    ++luBuilds_;

    const std::size_t n = static_cast<std::size_t>(numUnknowns_);
    Matrix g(n, n);

    for (const auto &r : netlist_.resistors())
        stampConductance(g, r.a, r.b, 1.0 / r.ohms);

    const auto &switches = netlist_.switches();
    for (std::size_t i = 0; i < switches.size(); ++i) {
        const bool closed = (key >> i) & 1ull;
        const double ohms =
            closed ? switches[i].onOhms : switches[i].offOhms;
        stampConductance(g, switches[i].a, switches[i].b, 1.0 / ohms);
    }

    for (const auto &c : netlist_.capacitors())
        stampConductance(g, c.a, c.b, 2.0 * c.farads / dt_);

    for (const auto &l : netlist_.inductors())
        stampConductance(g, l.a, l.b, dt_ / (2.0 * l.henries));

    for (const auto &e : netlist_.equalizers())
        stampEqualizer(g, e);

    const auto &vsrc = netlist_.voltageSources();
    for (std::size_t k = 0; k < vsrc.size(); ++k) {
        const std::size_t row =
            static_cast<std::size_t>(numNodes_) + k;
        if (vsrc[k].plus > 0) {
            const auto p = static_cast<std::size_t>(vsrc[k].plus - 1);
            g(p, row) += 1.0;
            g(row, p) += 1.0;
        }
        if (vsrc[k].minus > 0) {
            const auto m = static_cast<std::size_t>(vsrc[k].minus - 1);
            g(m, row) -= 1.0;
            g(row, m) -= 1.0;
        }
    }

    auto lu = std::make_unique<LuFactor<double>>(std::move(g));
    const auto &ref = *lu;
    luCache_.emplace(key, std::move(lu));
    return ref;
}

const SparseLu &
TransientSim::sparseFor(std::uint64_t key)
{
    auto it = sparseCache_.find(key);
    if (it != sparseCache_.end())
        return *it->second;
    ++luBuilds_;
    ++refactorizations_;

    // Same element order and floating-point expressions as the dense
    // factorFor above; see circuit/stamping.hh.
    assembler_->beginStep();
    assembler_->stampResistors(netlist_);
    assembler_->stampSwitches(netlist_, [key](std::size_t i) {
        return ((key >> i) & 1ull) != 0;
    });
    assembler_->stampCapacitorsTrapezoidal(netlist_, dt_);
    assembler_->stampInductorsTrapezoidal(netlist_, dt_);
    assembler_->stampEqualizersScaled(netlist_);
    assembler_->stampVoltageSources(netlist_);

    auto lu = std::make_unique<SparseLu>(pattern_->csc);
    lu->factor(assembler_->commitStep());
    const auto &ref = *lu;
    sparseCache_.emplace(key, std::move(lu));
    return ref;
}

void
TransientSim::step()
{
    obs::Profile *prof =
        profiler_ != nullptr ? profiler_->sampling() : nullptr;
    std::int64_t tMark = prof != nullptr ? obs::profileNowNs() : 0;
    const auto subMark = [&](int stage) {
        if (prof == nullptr)
            return;
        const std::int64_t now = obs::profileNowNs();
        prof->stages[static_cast<std::size_t>(stage)].add(
            static_cast<std::uint64_t>(now - tMark));
        tMark = now;
    };

    std::vector<double> &rhs = rhs_;
    std::fill(rhs.begin(), rhs.end(), 0.0);

    const auto inject = [&](NodeId node, double amps) {
        if (node > 0)
            rhs[static_cast<std::size_t>(node - 1)] += amps;
    };

    // Load current sources: draw from 'from', return at 'to'.
    const auto &isrc = netlist_.currentSources();
    for (std::size_t i = 0; i < isrc.size(); ++i) {
        inject(isrc[i].from, -sourceAmps_[i]);
        inject(isrc[i].to, sourceAmps_[i]);
    }

    // Capacitor companions.
    const auto &caps = netlist_.capacitors();
    for (std::size_t i = 0; i < caps.size(); ++i) {
        const double geq = 2.0 * caps[i].farads / dt_;
        const double ieq = geq * capVolts_[i] + capAmps_[i];
        inject(caps[i].a, ieq);
        inject(caps[i].b, -ieq);
    }

    // Inductor companions.
    const auto &inds = netlist_.inductors();
    for (std::size_t i = 0; i < inds.size(); ++i) {
        const double geq = dt_ / (2.0 * inds[i].henries);
        const double ieq = indAmps_[i] + geq * indVolts_[i];
        inject(inds[i].a, -ieq);
        inject(inds[i].b, ieq);
    }

    // Voltage source constraint rows (runtime setpoints).
    for (std::size_t k = 0; k < sourceVolts_.size(); ++k)
        rhs[static_cast<std::size_t>(numNodes_) + k] =
            sourceVolts_[k];

    subMark(obs::StageCircuitAssemble);
    const std::uint64_t buildsBefore = luBuilds_;
    if (solver_ == SolverKind::Sparse)
        sparseFor(switchKey()).solve(rhs, solution_);
    else
        solution_ = factorFor(switchKey()).solve(rhs);
    subMark(buildsBefore != luBuilds_ ? obs::StageCircuitRefactor
                                      : obs::StageCircuitSolve);

    // Poisoning-NaN detection: a single corrupt setpoint or element
    // turns the whole solution vector non-finite within one step, so
    // this is where corruption is caught closest to its source.
    VSGPU_CHECK_ALL_FINITE(solution_, "transient MNA solution");

    // Update reactive element states from the new node voltages.
    const auto nodeV = [&](NodeId node) {
        return node > 0 ? solution_[static_cast<std::size_t>(node - 1)]
                        : 0.0;
    };
    for (std::size_t i = 0; i < caps.size(); ++i) {
        const double geq = 2.0 * caps[i].farads / dt_;
        const double ieqPrev = geq * capVolts_[i] + capAmps_[i];
        const double vNew = nodeV(caps[i].a) - nodeV(caps[i].b);
        capAmps_[i] = geq * vNew - ieqPrev;
        capVolts_[i] = vNew;
    }
    for (std::size_t i = 0; i < inds.size(); ++i) {
        const double geq = dt_ / (2.0 * inds[i].henries);
        const double ieqPrev = indAmps_[i] + geq * indVolts_[i];
        const double vNew = nodeV(inds[i].a) - nodeV(inds[i].b);
        indAmps_[i] = geq * vNew + ieqPrev;
        indVolts_[i] = vNew;
    }

    subMark(obs::StageCircuitUpdate);

    time_ += dt_;
    ++stepCount_;
}

double
TransientSim::sourceCurrent(int vsrcIdx) const
{
    panicIfNot(vsrcIdx >= 0 && vsrcIdx < numVsrc_,
               "bad voltage source index ", vsrcIdx);
    // MNA branch current flows plus -> minus inside the source; the
    // current delivered to the circuit from the plus terminal is the
    // negation.
    return -solution_[static_cast<std::size_t>(numNodes_ + vsrcIdx)];
}

double
TransientSim::resistorCurrent(int resIdx) const
{
    const auto &rs = netlist_.resistors();
    panicIfNot(resIdx >= 0 && resIdx < static_cast<int>(rs.size()),
               "bad resistor index ", resIdx);
    const auto &r = rs[static_cast<std::size_t>(resIdx)];
    return (nodeVoltage(r.a) - nodeVoltage(r.b)) / r.ohms;
}

double
TransientSim::totalResistivePower() const
{
    double watts = 0.0;
    for (const auto &r : netlist_.resistors()) {
        const double v = nodeVoltage(r.a) - nodeVoltage(r.b);
        watts += v * v / r.ohms;
    }
    return watts;
}

double
TransientSim::totalSwitchPower() const
{
    double watts = 0.0;
    const auto &switches = netlist_.switches();
    for (std::size_t i = 0; i < switches.size(); ++i) {
        const double ohms = switchClosed_[i] ? switches[i].onOhms
                                             : switches[i].offOhms;
        const double v = nodeVoltage(switches[i].a) -
                         nodeVoltage(switches[i].b);
        watts += v * v / ohms;
    }
    return watts;
}

double
TransientSim::totalSourcePower() const
{
    double watts = 0.0;
    for (int k = 0; k < numVsrc_; ++k)
        watts += sourceVolts_[static_cast<std::size_t>(k)] *
                 sourceCurrent(k);
    return watts;
}

double
TransientSim::inductorCurrent(int indIdx) const
{
    panicIfNot(indIdx >= 0 &&
               indIdx < static_cast<int>(indAmps_.size()),
               "bad inductor index ", indIdx);
    return indAmps_[static_cast<std::size_t>(indIdx)];
}

double
TransientSim::equalizerCurrent(int eqIdx) const
{
    const auto &eqs = netlist_.equalizers();
    panicIfNot(eqIdx >= 0 && eqIdx < static_cast<int>(eqs.size()),
               "bad equalizer index ", eqIdx);
    const auto &e = eqs[static_cast<std::size_t>(eqIdx)];
    return (nodeVoltage(e.top) - 2.0 * nodeVoltage(e.mid) +
            nodeVoltage(e.bottom)) / e.effOhms;
}

double
TransientSim::equalizerPower(int eqIdx) const
{
    const auto &eqs = netlist_.equalizers();
    panicIfNot(eqIdx >= 0 && eqIdx < static_cast<int>(eqs.size()),
               "bad equalizer index ", eqIdx);
    const double ix = equalizerCurrent(eqIdx);
    return eqs[static_cast<std::size_t>(eqIdx)].effOhms * ix * ix;
}

double
TransientSim::totalEqualizerPower() const
{
    double watts = 0.0;
    const int n = static_cast<int>(netlist_.equalizers().size());
    for (int i = 0; i < n; ++i)
        watts += equalizerPower(i);
    return watts;
}

namespace
{

/** Shared DC right-hand side: load injections + vsrc setpoints. */
std::vector<double>
dcRhs(const Netlist &netlist, const std::vector<double> &sourceAmps,
      std::size_t n)
{
    std::vector<double> rhs(n, 0.0);
    const int numNodes = netlist.numNodes();
    const auto &isrc = netlist.currentSources();
    for (std::size_t i = 0; i < isrc.size(); ++i) {
        if (isrc[i].from > 0)
            rhs[static_cast<std::size_t>(isrc[i].from - 1)] -=
                sourceAmps[i];
        if (isrc[i].to > 0)
            rhs[static_cast<std::size_t>(isrc[i].to - 1)] +=
                sourceAmps[i];
    }
    const auto &vsrc = netlist.voltageSources();
    for (std::size_t k = 0; k < vsrc.size(); ++k)
        rhs[static_cast<std::size_t>(numNodes) + k] = vsrc[k].volts;
    return rhs;
}

/** Fold the raw MNA solution into ground-prefixed node voltages. */
std::vector<double>
dcNodeVolts(const std::vector<double> &x, int numNodes)
{
    VSGPU_CHECK_ALL_FINITE(x, "DC operating-point solution");
    std::vector<double> volts(static_cast<std::size_t>(numNodes) + 1,
                              0.0);
    for (int i = 1; i <= numNodes; ++i)
        volts[static_cast<std::size_t>(i)] =
            x[static_cast<std::size_t>(i - 1)];
    return volts;
}

} // namespace

std::vector<double>
solveDc(const Netlist &netlist, const std::vector<double> &sourceAmps,
        const std::vector<bool> &switchClosed, SolverKind solver,
        std::shared_ptr<const MnaPattern> pattern)
{
    const int numNodes = netlist.numNodes();
    const int numVsrc =
        static_cast<int>(netlist.voltageSources().size());
    const std::size_t n = static_cast<std::size_t>(numNodes + numVsrc);
    panicIfNot(sourceAmps.size() == netlist.currentSources().size(),
               "solveDc: source setpoint count mismatch");

    const auto &allSwitches = netlist.switches();
    const auto closedAt = [&](std::size_t i) {
        return i < switchClosed.size()
                   ? static_cast<bool>(switchClosed[i])
                   : allSwitches[i].initiallyClosed;
    };

    if (solver == SolverKind::Sparse) {
        // Same element order and floating-point expressions as the
        // dense assembly below; see circuit/stamping.hh.
        if (!pattern)
            pattern = MnaPattern::build(netlist);
        panicIfNot(pattern->numUnknowns == numNodes + numVsrc,
                   "assembly pattern does not match the netlist");
        MnaAssembler stamper(pattern);
        stamper.beginStep();
        stamper.stampResistors(netlist);
        stamper.stampInductorsDc(netlist);
        stamper.stampEqualizersDivided(netlist);
        stamper.stampSwitches(netlist, closedAt);
        stamper.stampNodeLeak();
        stamper.stampVoltageSources(netlist);
        SparseLu lu(pattern->csc);
        lu.factor(stamper.commitStep());
        return dcNodeVolts(lu.solve(dcRhs(netlist, sourceAmps, n)),
                           numNodes);
    }

    Matrix g(n, n);

    const auto stamp = [&](NodeId a, NodeId b, double siemens) {
        if (a > 0)
            g(static_cast<std::size_t>(a - 1),
              static_cast<std::size_t>(a - 1)) += siemens;
        if (b > 0)
            g(static_cast<std::size_t>(b - 1),
              static_cast<std::size_t>(b - 1)) += siemens;
        if (a > 0 && b > 0) {
            g(static_cast<std::size_t>(a - 1),
              static_cast<std::size_t>(b - 1)) -= siemens;
            g(static_cast<std::size_t>(b - 1),
              static_cast<std::size_t>(a - 1)) -= siemens;
        }
    };

    for (const auto &r : netlist.resistors())
        stamp(r.a, r.b, 1.0 / r.ohms);
    for (const auto &l : netlist.inductors())
        stamp(l.a, l.b, 1.0 / dcInductorOhms);

    for (const auto &e : netlist.equalizers()) {
        const NodeId nodes[3] = {e.top, e.mid, e.bottom};
        const double coeff[3] = {1.0, -2.0, 1.0};
        for (int i = 0; i < 3; ++i) {
            if (nodes[i] <= 0)
                continue;
            for (int j = 0; j < 3; ++j) {
                if (nodes[j] <= 0)
                    continue;
                g(static_cast<std::size_t>(nodes[i] - 1),
                  static_cast<std::size_t>(nodes[j] - 1)) +=
                    coeff[i] * coeff[j] / e.effOhms;
            }
        }
    }

    const auto &switches = netlist.switches();
    for (std::size_t i = 0; i < switches.size(); ++i) {
        stamp(switches[i].a, switches[i].b,
              1.0 / (closedAt(i) ? switches[i].onOhms
                                 : switches[i].offOhms));
    }

    // Keep capacitor-only nodes from floating.
    for (int i = 0; i < numNodes; ++i)
        g(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) +=
            kDcLeakSiemens;

    const auto &vsrc = netlist.voltageSources();
    for (std::size_t k = 0; k < vsrc.size(); ++k) {
        const std::size_t row = static_cast<std::size_t>(numNodes) + k;
        if (vsrc[k].plus > 0) {
            const auto p = static_cast<std::size_t>(vsrc[k].plus - 1);
            g(p, row) += 1.0;
            g(row, p) += 1.0;
        }
        if (vsrc[k].minus > 0) {
            const auto m = static_cast<std::size_t>(vsrc[k].minus - 1);
            g(m, row) -= 1.0;
            g(row, m) -= 1.0;
        }
    }

    return dcNodeVolts(
        solveLinear(g, dcRhs(netlist, sourceAmps, n)), numNodes);
}

} // namespace vsgpu
