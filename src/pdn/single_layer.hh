/**
 * @file
 * Single-layer (non-stacked) power-delivery networks used as the
 * paper's comparison baselines:
 *
 *   - Conventional PDS: a board-level VRM regulates down to 1 V and
 *     the full load current crosses board, package, and C4 parasitics.
 *     The on-chip ground return is folded into doubled supply-side
 *     parasitics (standard single-rail simplification), and the VRM
 *     conversion loss is accounted analytically in the efficiency
 *     models (src/ivr/efficiency.hh).
 *
 *   - Single-layer IVR PDS: an on-die switched-capacitor regulator
 *     converts at the point of load, so the regulated rail sees only
 *     package-local parasitics; board-side transport happens at 2 V
 *     and is again accounted analytically.
 */

#ifndef VSGPU_PDN_SINGLE_LAYER_HH
#define VSGPU_PDN_SINGLE_LAYER_HH

#include <vector>

#include "circuit/netlist.hh"
#include "circuit/transient.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "pdn/params.hh"

namespace vsgpu
{

/** Build-time options for a single-layer PDN. */
struct SingleLayerOptions
{
    PdnParams params = defaultPdnParams();

    /** Regulated rail voltage delivered to the chip. */
    Volts supplyVolts = config::smVoltage;

    /**
     * Place the regulated source at the package (true for the
     * single-layer IVR configuration; false routes through board and
     * package parasitics as in the conventional VRM configuration).
     */
    bool supplyAtPackage = false;

    /** Include the linearized per-SM load resistor. */
    bool includeLoadResistors = true;
};

/**
 * Owner of the single-layer netlist plus index maps.  SMs form a
 * 4-row x 4-column on-chip grid; column heads attach to the package
 * via C4.
 */
class SingleLayerPdn
{
  public:
    explicit SingleLayerPdn(const SingleLayerOptions &options = {});

    /** @return the underlying netlist. */
    const Netlist &netlist() const { return net_; }

    /** @return build options. */
    const SingleLayerOptions &options() const { return options_; }

    /** @return supply node of an SM. */
    NodeId
    smNode(int sm) const
    {
        panicIfNot(sm >= 0 && sm < config::numSMs, "bad SM index ",
                   sm);
        return smNode_[static_cast<std::size_t>(sm)];
    }

    /** @return current-source index driving the SM's load. */
    int smCurrentSource(int sm) const;

    /** @return the SM's rail voltage in a transient sim. */
    Volts
    smVoltage(const TransientSim &sim, int sm) const
    {
        return Volts{sim.nodeVoltage(smNode(sm))};
    }

    /** @return index of the supply voltage source. */
    int supplySource() const { return supplyIdx_; }

    /** @return indices of the linearized per-SM load resistors. */
    const std::vector<int> &loadResistorIndices() const
    {
        return loadResIdx_;
    }

  private:
    void build();

    SingleLayerOptions options_;
    Netlist net_;
    std::vector<NodeId> smNode_;
    std::vector<int> smSource_;
    std::vector<int> loadResIdx_;
    int supplyIdx_ = -1;
};

} // namespace vsgpu

#endif // VSGPU_PDN_SINGLE_LAYER_HH
