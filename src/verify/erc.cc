/**
 * @file
 * Electrical rule check (ERC) over a constructed netlist.
 *
 * The checks are deliberately independent of the transient and AC
 * engines: connectivity is computed with a union-find over DC-path
 * elements, and the passivity/SPD check re-assembles the trapezoidal
 * MNA conductance block from the element lists instead of reusing the
 * solver's stamping code, so a stamping bug in either place shows up
 * as a disagreement.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <sstream>
#include <vector>

#include "numeric/matrix.hh"
#include "verify/verify.hh"

namespace vsgpu::verify
{
namespace
{

/** Positive, finite element value? (zero/negative/NaN/Inf all fail) */
bool
validValue(double v)
{
    return std::isfinite(v) && v > 0.0;
}

std::string
nodeName(const Netlist &net, NodeId n)
{
    if (n == Netlist::ground)
        return "ground";
    const std::string &label = net.nodeLabel(n);
    std::ostringstream os;
    os << "node#" << n;
    if (!label.empty())
        os << " (" << label << ")";
    return os.str();
}

/** Union-find over node ids 0..numNodes (0 = ground). */
class UnionFind
{
  public:
    explicit UnionFind(int n) : parent_(static_cast<std::size_t>(n))
    {
        std::iota(parent_.begin(), parent_.end(), 0);
    }

    int
    find(int x)
    {
        while (parent_[static_cast<std::size_t>(x)] != x)
        {
            parent_[static_cast<std::size_t>(x)] =
                parent_[static_cast<std::size_t>(
                    parent_[static_cast<std::size_t>(x)])];
            x = parent_[static_cast<std::size_t>(x)];
        }
        return x;
    }

    void
    unite(int a, int b)
    {
        a = find(a);
        b = find(b);
        if (a != b)
            parent_[static_cast<std::size_t>(a)] = b;
    }

  private:
    std::vector<int> parent_;
};

std::string
pairName(const Netlist &net, NodeId a, NodeId b)
{
    return nodeName(net, a) + " -- " + nodeName(net, b);
}

/** Attempt an in-place Cholesky factorization; true on success. */
bool
choleskySpd(Matrix &m)
{
    const std::size_t n = m.rows();
    for (std::size_t j = 0; j < n; ++j)
    {
        double d = m(j, j);
        for (std::size_t k = 0; k < j; ++k)
            d -= m(j, k) * m(j, k);
        if (!(d > 0.0) || !std::isfinite(d))
            return false;
        const double root = std::sqrt(d);
        m(j, j) = root;
        for (std::size_t i = j + 1; i < n; ++i)
        {
            double s = m(i, j);
            for (std::size_t k = 0; k < j; ++k)
                s -= m(i, k) * m(j, k);
            m(i, j) = s / root;
        }
    }
    return true;
}

} // namespace

Report
ercAudit(const Netlist &net, const ErcOptions &opts)
{
    Report report;
    const int numNodes = net.numNodes();
    // Terminal count per node (all element kinds).
    std::vector<int> degree(static_cast<std::size_t>(numNodes) + 1, 0);
    const auto touch = [&degree](NodeId n) {
        degree[static_cast<std::size_t>(n)] += 1;
    };
    // DC connectivity: elements that carry DC current.  Capacitors are
    // DC-open and current sources enforce no potential, so neither
    // rescues a node from floating.
    UnionFind dc(numNodes + 1);

    bool valueError = false;
    const auto badValue = [&](const std::string &id,
                              const std::string &subject, double value,
                              const char *what) {
        std::ostringstream os;
        os << what << " value " << value
           << " must be positive and finite";
        report.add(id, Severity::Error, subject, os.str());
        valueError = true;
    };

    // Duplicate stamps: identical element type across the same
    // unordered node pair.  (Parallel resistors are a legal circuit,
    // but this model builds each physical element exactly once, so a
    // repeat is almost always a double-stamp bug.)
    std::map<std::tuple<char, NodeId, NodeId>, int> stampCount;
    const auto countStamp = [&stampCount](char kind, NodeId a, NodeId b) {
        const auto key = std::make_tuple(kind, std::min(a, b),
                                         std::max(a, b));
        return ++stampCount[key];
    };

    for (std::size_t i = 0; i < net.resistors().size(); ++i)
    {
        const auto &r = net.resistors()[i];
        const std::string subject =
            r.name.empty() ? "R#" + std::to_string(i) : "R " + r.name;
        touch(r.a);
        touch(r.b);
        if (!validValue(r.ohms))
            badValue("erc.nonpositive-resistance", subject, r.ohms,
                     "resistance");
        if (r.a == r.b)
            report.add("erc.self-loop", Severity::Warning, subject,
                       "both terminals on " + nodeName(net, r.a));
        else
        {
            dc.unite(r.a, r.b);
            if (countStamp('R', r.a, r.b) == 2)
                report.add("erc.duplicate-element", Severity::Warning,
                           subject,
                           "repeated resistor stamp across " +
                               pairName(net, r.a, r.b));
        }
    }

    for (std::size_t i = 0; i < net.capacitors().size(); ++i)
    {
        const auto &c = net.capacitors()[i];
        const std::string subject = "C#" + std::to_string(i);
        touch(c.a);
        touch(c.b);
        if (!validValue(c.farads))
            badValue("erc.nonpositive-capacitance", subject, c.farads,
                     "capacitance");
        if (c.a == c.b)
            report.add("erc.self-loop", Severity::Warning, subject,
                       "both terminals on " + nodeName(net, c.a));
        else if (countStamp('C', c.a, c.b) == 2)
            report.add("erc.duplicate-element", Severity::Warning, subject,
                       "repeated capacitor stamp across " +
                           pairName(net, c.a, c.b));
    }

    for (std::size_t i = 0; i < net.inductors().size(); ++i)
    {
        const auto &l = net.inductors()[i];
        const std::string subject = "L#" + std::to_string(i);
        touch(l.a);
        touch(l.b);
        if (!validValue(l.henries))
            badValue("erc.nonpositive-inductance", subject, l.henries,
                     "inductance");
        if (l.a == l.b)
            report.add("erc.self-loop", Severity::Warning, subject,
                       "both terminals on " + nodeName(net, l.a));
        else
        {
            dc.unite(l.a, l.b);
            if (countStamp('L', l.a, l.b) == 2)
                report.add("erc.duplicate-element", Severity::Warning,
                           subject,
                           "repeated inductor stamp across " +
                               pairName(net, l.a, l.b));
        }
    }

    std::map<std::pair<NodeId, NodeId>, int> vsourcePairs;
    for (std::size_t i = 0; i < net.voltageSources().size(); ++i)
    {
        const auto &v = net.voltageSources()[i];
        const std::string subject = "V#" + std::to_string(i);
        touch(v.plus);
        touch(v.minus);
        if (!std::isfinite(v.volts))
        {
            badValue("erc.nonfinite-source", subject, v.volts, "source");
        }
        if (v.plus == v.minus)
        {
            // The branch constraint degenerates to 0 = volts: singular
            // MNA even for volts == 0.
            report.add("erc.shorted-voltage-source", Severity::Error,
                       subject,
                       "both terminals on " + nodeName(net, v.plus));
            continue;
        }
        dc.unite(v.plus, v.minus);
        const auto key = std::make_pair(std::min(v.plus, v.minus),
                                        std::max(v.plus, v.minus));
        if (++vsourcePairs[key] == 2)
            report.add("erc.parallel-voltage-sources", Severity::Error,
                       subject,
                       "second ideal source across " +
                           pairName(net, v.plus, v.minus) +
                           " over-constrains the MNA system");
    }

    for (std::size_t i = 0; i < net.currentSources().size(); ++i)
    {
        const auto &s = net.currentSources()[i];
        const std::string subject =
            s.name.empty() ? "I#" + std::to_string(i) : "I " + s.name;
        touch(s.from);
        touch(s.to);
        if (!std::isfinite(s.amps))
            badValue("erc.nonfinite-source", subject, s.amps, "source");
        if (s.from == s.to)
            report.add("erc.self-loop", Severity::Warning, subject,
                       "both terminals on " + nodeName(net, s.from));
    }

    for (std::size_t i = 0; i < net.switches().size(); ++i)
    {
        const auto &sw = net.switches()[i];
        const std::string subject = "SW#" + std::to_string(i);
        touch(sw.a);
        touch(sw.b);
        if (!validValue(sw.onOhms) || !validValue(sw.offOhms))
            badValue("erc.nonpositive-switch-resistance", subject,
                     validValue(sw.onOhms) ? sw.offOhms : sw.onOhms,
                     "switch resistance");
        if (sw.a == sw.b)
            report.add("erc.self-loop", Severity::Warning, subject,
                       "both terminals on " + nodeName(net, sw.a));
        else
            // Both switch states are finite resistances, so a switch is
            // always a DC path.
            dc.unite(sw.a, sw.b);
    }

    for (std::size_t i = 0; i < net.equalizers().size(); ++i)
    {
        const auto &eq = net.equalizers()[i];
        const std::string subject =
            eq.name.empty() ? "EQ#" + std::to_string(i) : "EQ " + eq.name;
        touch(eq.top);
        touch(eq.mid);
        touch(eq.bottom);
        if (!validValue(eq.effOhms))
            badValue("erc.nonpositive-equalizer-resistance", subject,
                     eq.effOhms, "equalizer effective resistance");
        if (eq.top == eq.mid || eq.mid == eq.bottom ||
            eq.top == eq.bottom)
            report.add("erc.self-loop", Severity::Warning, subject,
                       "coincident terminals " +
                           nodeName(net, eq.top) + ", " +
                           nodeName(net, eq.mid) + ", " +
                           nodeName(net, eq.bottom));
        dc.unite(eq.top, eq.mid);
        dc.unite(eq.mid, eq.bottom);
    }

    // Connectivity findings per node.
    const int groundRoot = dc.find(Netlist::ground);
    for (NodeId n = 1; n <= numNodes; ++n)
    {
        const int deg = degree[static_cast<std::size_t>(n)];
        if (deg == 0)
        {
            report.add("erc.unused-node", Severity::Warning,
                       nodeName(net, n),
                       "allocated but no element terminal touches it");
            continue;
        }
        if (deg == 1)
            report.add("erc.dangling-node", Severity::Warning,
                       nodeName(net, n),
                       "only one element terminal touches it");
        if (dc.find(n) != groundRoot)
            report.add("erc.floating-node", Severity::Error,
                       nodeName(net, n),
                       "no DC path (resistor/inductor/voltage source/"
                       "switch/equalizer) to ground; the DC operating "
                       "point is singular");
    }

    // Passivity / SPD of the node-conductance block, assembled
    // independently with trapezoidal companion conductances.  Skipped
    // when an element value is already bad (the Cholesky failure would
    // only restate the nonpositive-value error) or a node floats (the
    // block is structurally singular, already reported).
    if (!valueError && !report.has("erc.floating-node") && numNodes > 0)
    {
        const double dt = opts.dt.raw();
        const auto ix = [](NodeId n) {
            return static_cast<std::size_t>(n - 1);
        };
        Matrix g(static_cast<std::size_t>(numNodes),
                 static_cast<std::size_t>(numNodes));
        const auto stamp = [&g, &ix](NodeId a, NodeId b, double cond) {
            if (a != Netlist::ground)
                g(ix(a), ix(a)) += cond;
            if (b != Netlist::ground)
                g(ix(b), ix(b)) += cond;
            if (a != Netlist::ground && b != Netlist::ground)
            {
                g(ix(a), ix(b)) -= cond;
                g(ix(b), ix(a)) -= cond;
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
            // Rank-one stamp (1/Reff) v v^T with v = (1, -2, 1) over
            // (top, mid, bottom); symmetric positive semidefinite.
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
                    g(ix(nodes[i]), ix(nodes[j])) +=
                        cond * weights[i] * weights[j];
                }
            }
        }
        if (!choleskySpd(g))
            report.add("erc.mna-not-spd", Severity::Error,
                       "MNA conductance block",
                       "re-assembled trapezoidal conductance matrix is "
                       "not symmetric positive definite: some stamp "
                       "injects energy (non-passive model)");
    }

    return report;
}

} // namespace vsgpu::verify
