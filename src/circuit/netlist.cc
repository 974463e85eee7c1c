#include "circuit/netlist.hh"

#include <set>
#include <utility>

#include "common/check.hh"
#include "common/logging.hh"

namespace vsgpu
{

NodeId
Netlist::allocNode(const std::string &label)
{
    ++numNodes_;
    labels_.push_back(label);
    return numNodes_;
}

const std::string &
Netlist::nodeLabel(NodeId node) const
{
    panicIfNot(node >= 0 && node <= numNodes_, "bad node id ", node);
    return labels_[static_cast<std::size_t>(node)];
}

void
Netlist::checkNode(NodeId n) const
{
    panicIfNot(n >= 0 && n <= numNodes_,
               "element references unknown node ", n);
}

int
Netlist::addResistor(NodeId a, NodeId b, Ohms resistance,
                     const std::string &name)
{
    checkNode(a);
    checkNode(b);
    panicIfNot(resistance.raw() > 0.0,
               "resistor must have positive resistance");
    VSGPU_CHECK_FINITE(resistance);
    resistors_.push_back({a, b, resistance.raw(), name});
    return static_cast<int>(resistors_.size()) - 1;
}

int
Netlist::addCapacitor(NodeId a, NodeId b, Farads capacitance,
                      Volts initialVoltage)
{
    checkNode(a);
    checkNode(b);
    panicIfNot(capacitance.raw() > 0.0,
               "capacitor must have positive capacitance");
    VSGPU_CHECK_FINITE(capacitance);
    VSGPU_CHECK_FINITE(initialVoltage);
    caps_.push_back({a, b, capacitance.raw(), initialVoltage.raw()});
    return static_cast<int>(caps_.size()) - 1;
}

int
Netlist::addInductor(NodeId a, NodeId b, Henries inductance,
                     Amps initialCurrent)
{
    checkNode(a);
    checkNode(b);
    panicIfNot(inductance.raw() > 0.0,
               "inductor must have positive inductance");
    VSGPU_CHECK_FINITE(inductance);
    VSGPU_CHECK_FINITE(initialCurrent);
    inductors_.push_back({a, b, inductance.raw(), initialCurrent.raw()});
    return static_cast<int>(inductors_.size()) - 1;
}

int
Netlist::addVoltageSource(NodeId plus, NodeId minus, Volts voltage)
{
    checkNode(plus);
    checkNode(minus);
    VSGPU_CHECK_FINITE(voltage);
    vsources_.push_back({plus, minus, voltage.raw()});
    return static_cast<int>(vsources_.size()) - 1;
}

int
Netlist::addCurrentSource(NodeId from, NodeId to, Amps current,
                          const std::string &name)
{
    checkNode(from);
    checkNode(to);
    isources_.push_back({from, to, current.raw(), name});
    return static_cast<int>(isources_.size()) - 1;
}

int
Netlist::addSwitch(NodeId a, NodeId b, Ohms onResistance,
                   Ohms offResistance, bool initiallyClosed)
{
    checkNode(a);
    checkNode(b);
    panicIfNot(onResistance.raw() > 0.0 &&
               offResistance.raw() > onResistance.raw(),
               "switch needs 0 < Ron < Roff");
    switches_.push_back({a, b, onResistance.raw(), offResistance.raw(),
                         initiallyClosed});
    return static_cast<int>(switches_.size()) - 1;
}

int
Netlist::addEqualizer(NodeId top, NodeId mid, NodeId bottom,
                      Ohms effResistance, const std::string &name)
{
    checkNode(top);
    checkNode(mid);
    checkNode(bottom);
    panicIfNot(effResistance.raw() > 0.0,
               "equalizer must have positive effective resistance");
    VSGPU_CHECK_FINITE(effResistance);
    equalizers_.push_back({top, mid, bottom, effResistance.raw(), name});
    return static_cast<int>(equalizers_.size()) - 1;
}

std::vector<NodeId>
Netlist::renumberMinDegree()
{
    // Vertices of the elimination graph: non-ground nodes first (the
    // ones being ordered), then one vertex per voltage source (its
    // MNA constraint row; always eliminated after all nodes, but its
    // edges contribute to node degrees).
    const int numVsrc = static_cast<int>(vsources_.size());
    const std::size_t nVerts =
        static_cast<std::size_t>(numNodes_ + numVsrc);
    std::vector<std::set<int>> adj(nVerts);
    const auto link = [&adj](int u, int v) {
        if (u == v)
            return;
        adj[static_cast<std::size_t>(u)].insert(v);
        adj[static_cast<std::size_t>(v)].insert(u);
    };
    const auto linkPair = [&](NodeId a, NodeId b) {
        if (a != ground && b != ground)
            link(a - 1, b - 1);
    };
    for (const Resistor &r : resistors_)
        linkPair(r.a, r.b);
    for (const Capacitor &c : caps_)
        linkPair(c.a, c.b);
    for (const Inductor &l : inductors_)
        linkPair(l.a, l.b);
    for (const Switch &s : switches_)
        linkPair(s.a, s.b);
    for (const Equalizer &e : equalizers_) {
        linkPair(e.top, e.mid);
        linkPair(e.mid, e.bottom);
        linkPair(e.top, e.bottom);
    }
    for (int k = 0; k < numVsrc; ++k) {
        const VoltageSource &v =
            vsources_[static_cast<std::size_t>(k)];
        if (v.plus != ground)
            link(v.plus - 1, numNodes_ + k);
        if (v.minus != ground)
            link(v.minus - 1, numNodes_ + k);
    }

    // Greedy minimum degree over the node vertices: repeatedly
    // eliminate the lowest-degree node (lowest old id on ties) and
    // turn its remaining neighbourhood into a clique, exactly
    // mirroring the fill Gaussian elimination would create.
    std::vector<bool> eliminated(nVerts, false);
    std::vector<NodeId> oldToNew(
        static_cast<std::size_t>(numNodes_) + 1, ground);
    for (int step = 0; step < numNodes_; ++step) {
        int bestV = -1;
        std::size_t bestDeg = nVerts + 1;
        for (int v = 0; v < numNodes_; ++v) {
            if (eliminated[static_cast<std::size_t>(v)])
                continue;
            const std::size_t deg =
                adj[static_cast<std::size_t>(v)].size();
            if (deg < bestDeg) {
                bestDeg = deg;
                bestV = v;
            }
        }
        oldToNew[static_cast<std::size_t>(bestV) + 1] = step + 1;
        eliminated[static_cast<std::size_t>(bestV)] = true;
        const std::set<int> &nbrSet =
            adj[static_cast<std::size_t>(bestV)];
        const std::vector<int> nbr(nbrSet.begin(), nbrSet.end());
        for (int u : nbr)
            adj[static_cast<std::size_t>(u)].erase(bestV);
        for (std::size_t i = 0; i < nbr.size(); ++i) {
            if (eliminated[static_cast<std::size_t>(nbr[i])])
                continue;
            for (std::size_t j = i + 1; j < nbr.size(); ++j) {
                if (eliminated[static_cast<std::size_t>(nbr[j])])
                    continue;
                link(nbr[i], nbr[j]);
            }
        }
    }

    // Remap every element's node references and the node labels.
    const auto remap = [&oldToNew](NodeId &node) {
        node = oldToNew[static_cast<std::size_t>(node)];
    };
    for (Resistor &r : resistors_) {
        remap(r.a);
        remap(r.b);
    }
    for (Capacitor &c : caps_) {
        remap(c.a);
        remap(c.b);
    }
    for (Inductor &l : inductors_) {
        remap(l.a);
        remap(l.b);
    }
    for (VoltageSource &v : vsources_) {
        remap(v.plus);
        remap(v.minus);
    }
    for (CurrentSource &i : isources_) {
        remap(i.from);
        remap(i.to);
    }
    for (Switch &s : switches_) {
        remap(s.a);
        remap(s.b);
    }
    for (Equalizer &e : equalizers_) {
        remap(e.top);
        remap(e.mid);
        remap(e.bottom);
    }
    std::vector<std::string> labels(labels_.size());
    for (std::size_t old = 0; old < labels_.size(); ++old)
        labels[static_cast<std::size_t>(
            oldToNew[old])] = std::move(labels_[old]);
    labels_ = std::move(labels);
    return oldToNew;
}

} // namespace vsgpu
