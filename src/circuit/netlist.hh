/**
 * @file
 * Circuit netlist description for the power-delivery-network models.
 *
 * The netlist is a passive RLC network plus ideal voltage sources,
 * time-varying current loads, and ideal switches (used by the detailed
 * switched-capacitor CR-IVR model).  It is consumed by two engines:
 * the transient simulator (trapezoidal integration, one GPU clock per
 * step) and the AC analyzer (complex phasor solve for the effective
 * impedance methodology of paper Section III-B).
 */

#ifndef VSGPU_CIRCUIT_NETLIST_HH
#define VSGPU_CIRCUIT_NETLIST_HH

#include <string>
#include <vector>

#include "common/quantity.hh"

namespace vsgpu
{

/** Node index type; node 0 is ground. */
using NodeId = int;

/**
 * Builder and container for circuit elements.
 *
 * Conventions: two-terminal elements connect (a, b); positive element
 * current flows from a to b through the element.  Current sources
 * model loads: a positive setpoint draws current from node a and
 * returns it at node b.
 *
 * The add* builders take dimensioned quantities so a unit mixup at a
 * call site is a compile error; the element structs store the raw SI
 * values because they are the solver engines' hot-loop inputs.
 */
class Netlist
{
  public:
    /** The ground node. */
    static constexpr NodeId ground = 0;

    /** A linear resistor. */
    struct Resistor
    {
        NodeId a;
        NodeId b;
        double ohms; // raw-ok(solver hot-loop storage)
        std::string name;
    };

    /** A linear capacitor. */
    struct Capacitor
    {
        NodeId a;
        NodeId b;
        double farads; // raw-ok(solver hot-loop storage)
        /// initial voltage across (a - b)
        double initialVolts; // raw-ok(solver storage)
    };

    /** A linear inductor. */
    struct Inductor
    {
        NodeId a;
        NodeId b;
        double henries; // raw-ok(solver hot-loop storage)
        /// initial current a -> b
        double initialAmps; // raw-ok(solver storage)
    };

    /** An ideal DC voltage source (a is +). */
    struct VoltageSource
    {
        NodeId plus;
        NodeId minus;
        double volts; // raw-ok(solver hot-loop storage)
    };

    /** A time-varying load current source (value set per step). */
    struct CurrentSource
    {
        NodeId from;
        NodeId to;
        /// default / initial value
        double amps; // raw-ok(solver storage)
        std::string name;
    };

    /** An ideal switch modeled as Ron/Roff resistor. */
    struct Switch
    {
        NodeId a;
        NodeId b;
        double onOhms; // raw-ok(solver hot-loop storage)
        double offOhms; // raw-ok(solver hot-loop storage)
        bool initiallyClosed;
    };

    /**
     * Averaged model of a two-phase switched-capacitor charge-recycling
     * cell spanning two series-stacked layers (top, mid) and (mid,
     * bottom).  The cell moves average current
     *   Ix = (Vt - 2 Vm + Vb) / Reff,     Reff = 1 / (fsw * Cfly),
     * out of the top and bottom nodes and into the middle node, which
     * equalizes the two layer voltages.  Its MNA stamp is the
     * symmetric positive-semidefinite rank-one form (1/Reff) v v^T
     * with v = (1, -2, 1) over (top, mid, bottom); the power it
     * dissipates equals the intrinsic SC charge-transfer loss
     * Reff * Ix^2.
     */
    struct Equalizer
    {
        NodeId top;
        NodeId mid;
        NodeId bottom;
        double effOhms; // raw-ok(solver hot-loop storage)
        std::string name;
    };

    /** Allocate a new circuit node. @return its id (>= 1). */
    NodeId allocNode(const std::string &label = "");

    /** @return number of non-ground nodes. */
    int numNodes() const { return numNodes_; }

    /** @return the label given to a node at allocation ("" for none). */
    const std::string &nodeLabel(NodeId node) const;

    /** Add a resistor. @return its index. */
    int addResistor(NodeId a, NodeId b, Ohms resistance,
                    const std::string &name = "");

    /** Add a capacitor with optional initial voltage. @return index. */
    int addCapacitor(NodeId a, NodeId b, Farads capacitance,
                     Volts initialVoltage = Volts{});

    /** Add an inductor with optional initial current. @return index. */
    int addInductor(NodeId a, NodeId b, Henries inductance,
                    Amps initialCurrent = Amps{});

    /** Add an ideal voltage source. @return its index. */
    int addVoltageSource(NodeId plus, NodeId minus, Volts voltage);

    /** Add a controllable load current source. @return its index. */
    int addCurrentSource(NodeId from, NodeId to, Amps current = Amps{},
                         const std::string &name = "");

    /** Add an ideal switch. @return its index. */
    int addSwitch(NodeId a, NodeId b, Ohms onResistance = Ohms{1e-3},
                  Ohms offResistance = Ohms{1e9},
                  bool initiallyClosed = false);

    /** Add an averaged charge-recycling equalizer. @return index. */
    int addEqualizer(NodeId top, NodeId mid, NodeId bottom,
                     Ohms effResistance, const std::string &name = "");

    /**
     * Renumber the non-ground nodes into a fill-reducing greedy
     * minimum-degree elimination order (ties broken by lowest old
     * id, so the result is deterministic).  MNA elimination follows
     * node numbering, so builders should call this once after the
     * last element is added: on the stacked PDN it cuts LU fill by
     * ~7x, which both the sparse and the dense solver benefit from.
     * Element indices are unchanged; only node ids move.
     *
     * @return the old-id -> new-id map (size numNodes()+1, ground
     * fixed at 0) so callers can remap any cached NodeIds.
     */
    std::vector<NodeId> renumberMinDegree();

    // Element accessors used by the engines.
    const std::vector<Resistor> &resistors() const { return resistors_; }
    const std::vector<Capacitor> &capacitors() const { return caps_; }
    const std::vector<Inductor> &inductors() const { return inductors_; }
    const std::vector<VoltageSource> &voltageSources() const
    {
        return vsources_;
    }
    const std::vector<CurrentSource> &currentSources() const
    {
        return isources_;
    }
    const std::vector<Switch> &switches() const { return switches_; }
    const std::vector<Equalizer> &equalizers() const
    {
        return equalizers_;
    }

  private:
    void checkNode(NodeId n) const;

    int numNodes_ = 0;
    std::vector<std::string> labels_{""}; // index 0 = ground
    std::vector<Resistor> resistors_;
    std::vector<Capacitor> caps_;
    std::vector<Inductor> inductors_;
    std::vector<VoltageSource> vsources_;
    std::vector<CurrentSource> isources_;
    std::vector<Switch> switches_;
    std::vector<Equalizer> equalizers_;
};

} // namespace vsgpu

#endif // VSGPU_CIRCUIT_NETLIST_HH
