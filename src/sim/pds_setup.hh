/**
 * @file
 * Shared, immutable per-configuration setup of a co-simulation run:
 * the built PDN netlist plus its DC operating point.
 *
 * Building a PDS means sizing the CR-IVR, assembling the netlist,
 * and LU-solving the DC operating point — work that depends only on
 * the electrical configuration, not on the workload or the
 * controller.  A sweep that runs many points against one PDN/IVR
 * configuration (threshold sweeps, workload sweeps, Monte Carlo
 * seeds) therefore does that work once and shares the result.
 *
 * PdsSetup is deeply immutable after construction, so one instance
 * can back any number of concurrent CoSimulator runs (each run has
 * its own TransientSim over the shared netlist).  exec::SetupCache
 * memoizes instances keyed by pdsSetupKey().
 */

#ifndef VSGPU_SIM_PDS_SETUP_HH
#define VSGPU_SIM_PDS_SETUP_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "circuit/stamping.hh"
#include "pdn/single_layer.hh"
#include "pdn/vs_pdn.hh"
#include "sim/cosim.hh"

namespace vsgpu
{

/** Where the co-simulation loop reads and drives one SM's rail. */
struct PdsRail
{
    NodeId top = Netlist::ground;    ///< upper supply node
    NodeId bottom = Netlist::ground; ///< lower node (ground unstacked)
    int source = -1;                 ///< load current-source index
};

/**
 * Immutable electrical setup shared across runs of one
 * configuration.  Exactly one of vs / sl is set, matching whether
 * the configuration is voltage-stacked.  The per-SM table below is
 * resolved from whichever is set, so the co-simulation loop reads
 * plain data and never asks which PDS it drives.
 */
struct PdsSetup
{
    bool stacked = false;
    std::shared_ptr<const VsPdn> vs;
    std::shared_ptr<const SingleLayerPdn> sl;

    /**
     * DC operating point of the netlist with the default (zero)
     * load currents and initial switch states, as returned by
     * solveDc(); feeds TransientSim::initFromDc().
     */
    std::vector<double> dcNodeVolts;

    /**
     * Symbolic sparse-assembly pattern of the netlist (the union
     * sparsity structure of the transient, DC and AC MNA systems and
     * every element's value slots).  Built once per configuration;
     * every TransientSim / AcAnalysis over this setup shares it, so
     * the symbolic work is memoized by the exec::SetupCache along
     * with everything else keyed off pdsSetupKey().  Always set,
     * even when a run selects the dense solver (the pattern is
     * solver-independent topology data).
     */
    std::shared_ptr<const MnaPattern> mnaPattern;

    /** Exact configuration key this setup was built for. */
    std::string key;

    /** ERC + numeric audit of the netlist (empty report when built
     *  with verifyModel off). */
    ModelAudit audit;

    /** Per-SM rail nodes and load sources.  An SM's rail voltage is
     *  nodeVoltage(top) - nodeVoltage(bottom); ground reads 0.0, so
     *  single-layer rails keep their bits. */
    std::array<PdsRail, config::numSMs> rails{};

    /** Linearized per-SM load resistors (their dissipation is load
     *  power, not PDN loss) and the resistance of each. */
    std::vector<int> loadResistors;
    Ohms loadOhms{};

    /** Nominal SM rail voltage (V): the layer voltage when stacked. */
    double nominalRail = 0.0;

    /** VRM source a remote-sense loop servos, and its initial setpoint
     *  (V); -1 when stacked, where no per-layer regulator exists. */
    int regulatorSource = -1;
    Volts regulatorVolts{};

    /** @return the shared netlist. */
    const Netlist &
    netlist() const
    {
        return stacked ? vs->netlist() : sl->netlist();
    }
};

/**
 * Exact-bytes key of every configuration field that shapes the
 * netlist or its DC operating point (PDS kind, CR-IVR area and
 * technology, PDN parasitics).  Two configs with equal keys build
 * bitwise-identical setups; controller and workload fields are
 * deliberately excluded.
 */
std::string pdsSetupKey(const CosimConfig &cfg);

/** Build the shared setup for a configuration (netlist + DC LU). */
std::shared_ptr<const PdsSetup> buildPdsSetup(const CosimConfig &cfg);

/**
 * @return cfg.setup, checked against the configuration's key, or a
 * fresh build when it is null.  Either way the netlist is immutable
 * and the DC point comes from the same solveDc() path, so a run's
 * results do not depend on which it got.
 */
std::shared_ptr<const PdsSetup> sharedPdsSetup(const CosimConfig &cfg);

} // namespace vsgpu

#endif // VSGPU_SIM_PDS_SETUP_HH
