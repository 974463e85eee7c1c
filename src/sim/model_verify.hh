/**
 * @file
 * Orchestration of the static model verifier (src/verify) over a
 * co-simulation configuration: which netlist to audit, which node to
 * probe, and how the per-layer boundary capacitance seen by the
 * control loop is derived from the PDN and CR-IVR sizing.
 *
 * Two call sites gate on these audits (fail-fast on Error findings,
 * CosimConfig::verifyModel to bypass) and keep the report:
 *   - buildPdsSetup() runs verifyPdsModel() before the DC solve
 *     (PdsSetup::audit);
 *   - CoSimulator runs verifyControlModel() before closing the
 *     smoothing loop (CosimResult::controlAudit).
 * The golden replay holds every scenario's kept Warnings to the
 * reviewed list tests/golden/audit_findings.txt.
 */

#ifndef VSGPU_SIM_MODEL_VERIFY_HH
#define VSGPU_SIM_MODEL_VERIFY_HH

#include "sim/cosim.hh"
#include "sim/pds_setup.hh"
#include "verify/verify.hh"

namespace vsgpu
{

/**
 * @return the per-column boundary-rail capacitance the control audit
 * assumes: the layer's SM decaps plus (for stacked configurations
 * with CR-IVR) the flying-cap decoupling contribution.  Conservative:
 * edge layers only see half a cell's flying cap, and that lower
 * bound is used for every layer.
 */
Farads controlBoundaryCap(const CosimConfig &cfg);

/**
 * ERC + numeric audit of a built PDS (paper's netlist layer), plus
 * the cross-layer current-rating sanity check:
 *   erc.crivr-undersized  worst-case single-SM imbalance current
 *                         through the CR-IVR equalizer Reff droops
 *                         more than the voltage margin and no
 *                         smoothing controller is enabled   [Warning]
 * The impedance scan probes SM0's supply rail.
 */
verify::Report verifyPdsModel(const PdsSetup &setup,
                              const CosimConfig &cfg);

/**
 * Control-loop audit of the configuration's smoothing controller
 * (only meaningful for cross-layer configurations, but runnable on
 * any: the controller config is audited as-is).
 */
verify::Report verifyControlModel(const CosimConfig &cfg);

/**
 * Full static verification of a configuration without running it:
 * builds the PDS (without the fail-fast gate, so every finding is
 * collected) and merges the PDS and control audits.
 */
verify::Report verifyModel(const CosimConfig &cfg);

} // namespace vsgpu

#endif // VSGPU_SIM_MODEL_VERIFY_HH
