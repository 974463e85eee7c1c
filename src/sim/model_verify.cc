#include "sim/model_verify.hh"

#include <algorithm>
#include <sstream>

#include "ivr/cr_ivr.hh"

namespace vsgpu
{

Farads
controlBoundaryCap(const CosimConfig &cfg)
{
    Farads cap =
        cfg.pdn.smDecapC * static_cast<double>(config::smsPerLayer);
    if (isVoltageStacked(cfg.pds.kind) &&
        cfg.pds.ivrAreaFraction > 0.0) {
        const CrIvrDesign design(cfg.pds.ivrArea(), cfg.pds.ivrTech);
        cap += design.flyCapPerCell() / 2.0 *
               static_cast<double>(config::smsPerLayer);
    }
    return cap;
}

verify::Report
verifyPdsModel(const PdsSetup &setup, const CosimConfig &cfg)
{
    verify::ErcOptions ercOpts;
    ercOpts.dt = config::clockPeriod;
    verify::Report report = verify::ercAudit(setup.netlist(), ercOpts);

    verify::NumericAuditOptions numOpts;
    numOpts.dt = config::clockPeriod;
    numOpts.probeNode = setup.rails[0].top;
    numOpts.mnaPattern = setup.mnaPattern;
    report.merge(verify::numericAudit(setup.netlist(), numOpts));

    // Current-rating sanity of the averaged CR-IVR: a worst-case
    // single-SM imbalance (one SM at peak power above an idle
    // neighbour layer) pushes its whole load current through the
    // column's equalizer Reff.  Without architectural smoothing the
    // resulting droop must fit inside the voltage margin — this is
    // exactly the sizing argument behind the paper's 912 mm^2
    // circuit-only design point.
    const bool smoothed = cfg.pds.kind == PdsKind::VsCrossLayer &&
                          cfg.pds.smoothingEnabled;
    if (setup.stacked && !smoothed &&
        !setup.vs->equalizerIndices().empty()) {
        double worstOhms = 0.0;
        for (int e : setup.vs->equalizerIndices()) {
            worstOhms = std::max(
                worstOhms,
                setup.netlist()
                    .equalizers()[static_cast<std::size_t>(e)]
                    .effOhms);
        }
        const Amps imbalance = config::peakSmPower / config::smVoltage;
        const Volts droop = imbalance * Ohms{worstOhms};
        if (droop > config::voltageMargin) {
            std::ostringstream oss;
            // Raw escapes: diagnostic message text.
            oss << "worst single-SM imbalance of " << imbalance.rawEscape()
                << " A through equalizer Reff = " << worstOhms
                << " ohm droops " << droop.rawEscape()
                << " V, above the " << config::voltageMargin.rawEscape()
                << " V margin, and no smoothing controller is "
                   "enabled";
            report.add("erc.crivr-undersized",
                       verify::Severity::Warning, "CR-IVR equalizers",
                       oss.str());
        }
    }
    return report;
}

verify::Report
verifyControlModel(const CosimConfig &cfg)
{
    verify::ControlAuditInputs in;
    in.controller = cfg.pds.controller;
    in.boundaryCap = controlBoundaryCap(cfg);
    in.numLayers = config::numLayers;
    in.smsPerLayer = config::smsPerLayer;
    return verify::controlAudit(in);
}

verify::Report
verifyModel(const CosimConfig &cfg)
{
    CosimConfig plain = cfg;
    plain.verifyModel = false; // collect findings, do not fail-fast
    plain.setup.reset();
    const std::shared_ptr<const PdsSetup> setup = buildPdsSetup(plain);
    verify::Report report = verifyPdsModel(*setup, plain);
    if (plain.pds.kind == PdsKind::VsCrossLayer &&
        plain.pds.smoothingEnabled) {
        report.merge(verifyControlModel(plain));
    }
    return report;
}

} // namespace vsgpu
