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
    for (const auto &src : netlist_.currentSources()) {
        sourceAmps_.push_back(src.amps);
        isrc_.push_back({checkedIndex(src.from), checkedIndex(src.to)});
    }
    const auto &switches = netlist_.switches();
    for (std::size_t i = 0; i < switches.size(); ++i) {
        if (switches[i].initiallyClosed)
            switchKey_ |= 1ull << i;
        switches_.push_back({checkedIndex(switches[i].a),
                             checkedIndex(switches[i].b),
                             switches[i].onOhms, switches[i].offOhms});
    }
    for (const auto &v : netlist_.voltageSources())
        sourceVolts_.push_back(v.volts);

    // The companion conductances with the expressions the matrix
    // stamps use, so each step's right-hand side has the same bits.
    for (const auto &c : netlist_.capacitors()) {
        caps_.push_back({checkedIndex(c.a), checkedIndex(c.b),
                         2.0 * c.farads / dt_});
        capVolts_.push_back(c.initialVolts);
    }
    capAmps_.assign(caps_.size(), 0.0);
    for (const auto &l : netlist_.inductors()) {
        inds_.push_back({checkedIndex(l.a), checkedIndex(l.b),
                         dt_ / (2.0 * l.henries)});
        indAmps_.push_back(l.initialAmps);
    }
    indVolts_.assign(inds_.size(), 0.0);
    for (const auto &r : netlist_.resistors())
        resistors_.push_back({checkedIndex(r.a), checkedIndex(r.b), r.ohms});
    for (const auto &e : netlist_.equalizers())
        equalizers_.push_back({checkedIndex(e.top), checkedIndex(e.mid),
                               checkedIndex(e.bottom), e.effOhms});
}

int
TransientSim::checkedIndex(NodeId node) const
{
    panicIfNot(node >= 0 && node <= numNodes_, "bad node id ", node);
    return node - 1;
}

void
TransientSim::setSwitch(int switchIdx, bool closed)
{
    panicIfNot(switchIdx >= 0 &&
               switchIdx < static_cast<int>(switches_.size()),
               "bad switch index ", switchIdx);
    const std::uint64_t bit = 1ull << switchIdx;
    const std::uint64_t key = closed ? switchKey_ | bit : switchKey_ & ~bit;
    if (key == switchKey_)
        return;
    switchKey_ = key;
    sparseNow_ = nullptr;
    denseNow_ = nullptr;
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
    std::vector<bool> closed(switches_.size());
    for (std::size_t i = 0; i < closed.size(); ++i)
        closed[i] = switchClosed(i);
    initFromDc(solveDc(netlist_, sourceAmps_, closed, solver_, pattern_));
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

    std::fill(rhs_.begin(), rhs_.end(), 0.0);

    // Load current sources: draw from 'from', return at 'to'.
    for (std::size_t i = 0; i < isrc_.size(); ++i) {
        inject(isrc_[i].a, -sourceAmps_[i]);
        inject(isrc_[i].b, sourceAmps_[i]);
    }

    // Capacitor companions.
    for (std::size_t i = 0; i < caps_.size(); ++i) {
        const double ieq = caps_[i].geq * capVolts_[i] + capAmps_[i];
        inject(caps_[i].a, ieq);
        inject(caps_[i].b, -ieq);
    }

    // Inductor companions.
    for (std::size_t i = 0; i < inds_.size(); ++i) {
        const double ieq = indAmps_[i] + inds_[i].geq * indVolts_[i];
        inject(inds_[i].a, -ieq);
        inject(inds_[i].b, ieq);
    }

    // Voltage source constraint rows (runtime setpoints).
    std::copy(sourceVolts_.begin(), sourceVolts_.end(),
              rhs_.begin() + numNodes_);

    subMark(obs::StageCircuitAssemble);
    const std::uint64_t buildsBefore = luBuilds_;
    if (solver_ == SolverKind::Sparse) {
        if (sparseNow_ == nullptr)
            sparseNow_ = &sparseFor(switchKey_);
        sparseNow_->solve(rhs_, solution_);
    } else {
        if (denseNow_ == nullptr)
            denseNow_ = &factorFor(switchKey_);
        solution_ = denseNow_->solve(rhs_);
    }
    subMark(buildsBefore != luBuilds_ ? obs::StageCircuitRefactor
                                      : obs::StageCircuitSolve);

    // Poisoning-NaN detection: a single corrupt setpoint or element
    // turns the whole solution vector non-finite within one step, so
    // this is where corruption is caught closest to its source.
    VSGPU_CHECK_ALL_FINITE(solution_, "transient MNA solution");

    // Update reactive element states from the new node voltages.
    for (std::size_t i = 0; i < caps_.size(); ++i) {
        const double geq = caps_[i].geq;
        const double ieqPrev = geq * capVolts_[i] + capAmps_[i];
        const double vNew =
            voltageAt(caps_[i].a) - voltageAt(caps_[i].b);
        capAmps_[i] = geq * vNew - ieqPrev;
        capVolts_[i] = vNew;
    }
    for (std::size_t i = 0; i < inds_.size(); ++i) {
        const double geq = inds_[i].geq;
        const double ieqPrev = indAmps_[i] + geq * indVolts_[i];
        const double vNew =
            voltageAt(inds_[i].a) - voltageAt(inds_[i].b);
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
TransientSim::totalResistivePower() const
{
    double watts = 0.0;
    for (const Conductor &r : resistors_) {
        const double v = voltageAt(r.a) - voltageAt(r.b);
        watts += v * v / r.ohms;
    }
    return watts;
}

double
TransientSim::totalSwitchPower() const
{
    double watts = 0.0;
    for (std::size_t i = 0; i < switches_.size(); ++i) {
        const double ohms = switchClosed(i) ? switches_[i].onOhms
                                            : switches_[i].offOhms;
        const double v =
            voltageAt(switches_[i].a) - voltageAt(switches_[i].b);
        watts += v * v / ohms;
    }
    return watts;
}

double
TransientSim::totalSourcePower() const
{
    double watts = 0.0;
    for (std::size_t k = 0; k < sourceVolts_.size(); ++k)
        watts += sourceVolts_[k] *
                 -solution_[static_cast<std::size_t>(numNodes_) + k];
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
    panicIfNot(eqIdx >= 0 &&
               eqIdx < static_cast<int>(equalizers_.size()),
               "bad equalizer index ", eqIdx);
    const EqualizerRow &e = equalizers_[static_cast<std::size_t>(eqIdx)];
    return (voltageAt(e.top) - 2.0 * voltageAt(e.mid) +
            voltageAt(e.bottom)) / e.effOhms;
}

double
TransientSim::equalizerPower(int eqIdx) const
{
    const double ix = equalizerCurrent(eqIdx);
    return equalizers_[static_cast<std::size_t>(eqIdx)].effOhms * ix * ix;
}

double
TransientSim::totalEqualizerPower() const
{
    double watts = 0.0;
    const int n = static_cast<int>(equalizers_.size());
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
