/**
 * @file
 * The 4x4 voltage-stacked power-delivery network (paper Fig. 1(c)).
 *
 * Sixteen SMs are arranged as four series-stacked voltage layers of
 * four columns each.  A single 4.1 V board supply feeds the top
 * boundary rail; the bottom boundary rail returns to ground.  Boundary
 * rails between layers exist only on chip.  Each SM is modeled as a
 * time-varying current source in parallel with a linearized load
 * resistance and a local decoupling capacitor.  Optional distributed
 * charge-recycling IVRs (averaged model) equalize adjacent layers in
 * every column.
 *
 * Layer indexing follows the paper: layer 0 is the top domain
 * (VDD to 3/4 VDD) holding SM0-3; layer 3 is the bottom domain
 * (1/4 VDD to GND) holding SM12-15.  SM index s maps to
 * layer = s / 4, column = s % 4.
 */

#ifndef VSGPU_PDN_VS_PDN_HH
#define VSGPU_PDN_VS_PDN_HH

#include <vector>

#include "circuit/netlist.hh"
#include "circuit/transient.hh"
#include "common/check.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "pdn/params.hh"

namespace vsgpu
{

/** Build-time options for the voltage-stacked PDN. */
struct VsPdnOptions
{
    PdnParams params = defaultPdnParams();

    /**
     * Stacking geometry.  The paper's system is 4 layers x 4 columns
     * of one SM each; other geometries (2x8, 8x2) are supported for
     * design-space ablations.  numLayers * numColumns SMs total.
     */
    int numLayers = config::numLayers;
    int numColumns = config::smsPerLayer;

    /**
     * Effective resistance of each distributed CR-IVR equalizer cell
     * (1 / (fsw * Cfly)); non-positive disables on-chip regulation.
     */
    Ohms crIvrEffOhms{};

    /**
     * Flying capacitance of each CR-IVR cell.  The flying caps
     * spend half of every switching period across each adjacent
     * layer, so they additionally act as Cfly/2 of decoupling on both
     * layers — this is what suppresses the global resonance peak in
     * paper Fig. 3(b).  Non-positive omits the effect.
     */
    Farads crIvrFlyCapF{};

    /** Include the linearized per-SM load resistor. */
    bool includeLoadResistors = true;

    /** Board supply voltage. */
    Volts supplyVolts = config::pcbVoltage;
};

/**
 * Owner of the voltage-stacked netlist plus the index maps needed to
 * drive and observe it.
 */
class VsPdn
{
  public:
    explicit VsPdn(const VsPdnOptions &options = {});

    /** @return the underlying netlist. */
    const Netlist &netlist() const { return net_; }

    /** @return build options. */
    const VsPdnOptions &options() const { return options_; }

    /** @return stacking layer count of this instance. */
    int layers() const { return options_.numLayers; }

    /** @return stacking column count of this instance. */
    int columns() const { return options_.numColumns; }

    /** @return total SM count of this instance. */
    int numSms() const { return layers() * columns(); }

    /** @return this instance's layer of an SM (0 = top domain). */
    int layerOf(int sm) const { return sm / columns(); }

    /** @return this instance's column of an SM. */
    int columnOf(int sm) const { return sm % columns(); }

    /** @return SM index for a (layer, column) pair (instance). */
    int
    smIndexAt(int layer, int column) const
    {
        return layer * columns() + column;
    }

    /** @return boundary-rail node at level (0..layers) and column. */
    NodeId boundaryNode(int level, int column) const;

    /** @return the SM's upper supply node. */
    NodeId smTopNode(int sm) const;

    /** @return the SM's lower supply node. */
    NodeId smBottomNode(int sm) const;

    /** @return current-source index driving the SM's load. */
    int smCurrentSource(int sm) const;

    /** @return stacking layer of an SM (0 = top domain). */
    static int
    smLayer(int sm)
    {
        VSGPU_REQUIRES(sm >= 0, "negative SM index ", sm);
        return sm / config::smsPerLayer;
    }

    /** @return stacking column of an SM. */
    static int
    smColumn(int sm)
    {
        VSGPU_REQUIRES(sm >= 0, "negative SM index ", sm);
        return sm % config::smsPerLayer;
    }

    /** @return SM index for a (layer, column) pair. */
    static int
    smAt(int layer, int column)
    {
        return layer * config::smsPerLayer + column;
    }

    /** @return the SM's local rail voltage in a transient sim. */
    Volts
    smVoltage(const TransientSim &sim, int sm) const
    {
        panicIfNot(sm >= 0 && sm < numSms(), "bad SM index ", sm);
        const SmRail &rail = smRail_[static_cast<std::size_t>(sm)];
        return Volts{sim.nodeVoltage(rail.top) -
                     sim.nodeVoltage(rail.bottom)};
    }

    /** @return index of the board supply voltage source. */
    int supplySource() const { return supplyIdx_; }

    /** @return equalizer element indices (empty without CR-IVR). */
    const std::vector<int> &equalizerIndices() const
    {
        return equalizerIdx_;
    }

    /** @return indices of the linearized per-SM load resistors (their
     *  dissipation is load power, not PDN loss). */
    const std::vector<int> &loadResistorIndices() const
    {
        return loadResIdx_;
    }

    /** @return nominal per-layer voltage (supply / layers). */
    Volts
    nominalLayerVolts() const
    {
        return options_.supplyVolts /
               static_cast<double>(options_.numLayers);
    }

  private:
    /** An SM's supply node pair. */
    struct SmRail
    {
        NodeId top;
        NodeId bottom;
    };

    void build();

    VsPdnOptions options_;
    Netlist net_;
    // boundary_[level][column], level 0 (chip ground rail) .. 4 (VDD).
    std::vector<std::vector<NodeId>> boundary_;
    // Per-SM rail nodes, resolved once the topology is final.
    std::vector<SmRail> smRail_;
    std::vector<int> smSource_;
    std::vector<int> loadResIdx_;
    std::vector<int> equalizerIdx_;
    int supplyIdx_ = -1;
};

} // namespace vsgpu

#endif // VSGPU_PDN_VS_PDN_HH
