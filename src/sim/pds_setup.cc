#include "sim/pds_setup.hh"

#include <cstring>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "sim/model_verify.hh"

namespace vsgpu
{

namespace
{

/** Append a raw double's bytes to the key (exact, not hashed). */
void
appendBits(std::string &key, double value)
{
    char bytes[sizeof(double)];
    std::memcpy(bytes, &value, sizeof(double));
    key.append(bytes, sizeof(double));
}

void
appendBits(std::string &key, int value)
{
    char bytes[sizeof(int)];
    std::memcpy(bytes, &value, sizeof(int));
    key.append(bytes, sizeof(int));
}

} // namespace

std::string
pdsSetupKey(const CosimConfig &cfg)
{
    std::string key;
    key.reserve(192);
    appendBits(key, static_cast<int>(cfg.pds.kind));
    appendBits(key, cfg.pds.ivrAreaFraction);

    // CR-IVR technology (sizes the equalizers).
    const CrIvrTech &tech = cfg.pds.ivrTech;
    appendBits(key, tech.capDensity.raw());
    appendBits(key, tech.capAreaFraction);
    appendBits(key, tech.switchingHz.raw());
    appendBits(key, tech.switchingLossFraction);
    appendBits(key, tech.shuffleEfficiency);
    appendBits(key, tech.numCells);

    // PDN parasitics (shape the netlist and the DC point).
    const PdnParams &p = cfg.pdn;
    appendBits(key, p.boardR.raw());
    appendBits(key, p.boardL.raw());
    appendBits(key, p.bulkC.raw());
    appendBits(key, p.bulkEsr.raw());
    appendBits(key, p.packageR.raw());
    appendBits(key, p.packageL.raw());
    appendBits(key, p.packageC.raw());
    appendBits(key, p.packageEsr.raw());
    appendBits(key, p.c4R.raw());
    appendBits(key, p.c4L.raw());
    appendBits(key, p.gridR.raw());
    appendBits(key, p.smDecapC.raw());
    appendBits(key, p.smDecapEsr.raw());
    appendBits(key, p.smNominalPower.raw());
    appendBits(key, p.smNominalVoltage.raw());
    appendBits(key, p.smLoadAlpha);
    return key;
}

std::shared_ptr<const PdsSetup>
buildPdsSetup(const CosimConfig &cfg)
{
    auto setup = std::make_shared<PdsSetup>();
    setup->stacked = isVoltageStacked(cfg.pds.kind);
    setup->key = pdsSetupKey(cfg);

    if (setup->stacked) {
        VsPdnOptions options;
        options.params = cfg.pdn;
        if (cfg.pds.ivrAreaFraction > 0.0) {
            const CrIvrDesign design(cfg.pds.ivrArea(),
                                     cfg.pds.ivrTech);
            options.crIvrEffOhms = design.effOhmsPerCell();
            options.crIvrFlyCapF = design.flyCapPerCell();
        }
        auto pdn = std::make_shared<const VsPdn>(options);
        for (int sm = 0; sm < config::numSMs; ++sm)
            setup->rails[static_cast<std::size_t>(sm)] = {
                pdn->smTopNode(sm), pdn->smBottomNode(sm),
                pdn->smCurrentSource(sm)};
        setup->loadResistors = pdn->loadResistorIndices();
        setup->nominalRail = pdn->nominalLayerVolts().raw();
        setup->vs = std::move(pdn);
    } else {
        SingleLayerOptions options;
        options.params = cfg.pdn;
        options.supplyAtPackage =
            cfg.pds.kind == PdsKind::SingleLayerIvr;
        // Load-line compensation: the regulator output is set above
        // nominal so the rail stays near 1 V under the average IR
        // drop (further from the load = more compensation).
        options.supplyVolts =
            options.supplyAtPackage ? 1.03_V : 1.06_V;
        auto pdn = std::make_shared<const SingleLayerPdn>(options);
        for (int sm = 0; sm < config::numSMs; ++sm)
            setup->rails[static_cast<std::size_t>(sm)] = {
                pdn->smNode(sm), Netlist::ground,
                pdn->smCurrentSource(sm)};
        setup->loadResistors = pdn->loadResistorIndices();
        setup->nominalRail = config::smVoltage.raw();
        setup->regulatorSource = pdn->supplySource();
        setup->regulatorVolts = pdn->options().supplyVolts;
        setup->sl = std::move(pdn);
    }
    setup->loadOhms =
        setup->loadResistors.empty()
            ? cfg.pdn.smLoadOhms()
            : Ohms{setup->netlist()
                       .resistors()[static_cast<std::size_t>(
                           setup->loadResistors.front())]
                       .ohms};

    // One assembly pattern per configuration: the audit's impedance
    // scan, the DC solve and every run's transient engine share it.
    const Netlist &net = setup->netlist();
    {
        VSGPU_TRACE_SCOPE(obs::CatPhase, "pds.symbolic");
        setup->mnaPattern = MnaPattern::build(net);
    }

    // Static model verification (ERC + numeric audit) before the DC
    // solve: a malformed netlist would otherwise surface as a panic
    // deep inside the LU factorization with no hint of which element
    // caused it.
    setup->audit = {cfg.pds.kind, cfg.pds.ivrAreaFraction,
                    cfg.verifyModel ? verifyPdsModel(*setup, cfg)
                                    : verify::Report{}};
    if (setup->audit.report.hasErrors()) {
        fatal("PDS model verification failed for ",
              pdsName(cfg.pds.kind), " (see docs/model_verification.md, "
              "or set verifyModel = false to bypass):\n",
              verify::formatReport(setup->audit.report));
    }

    // DC operating point at the netlist's default source setpoints
    // and initial switch states — exactly what a fresh TransientSim
    // would compute in initToDc(), solved once per configuration.
    std::vector<double> amps;
    amps.reserve(net.currentSources().size());
    for (const auto &src : net.currentSources())
        amps.push_back(src.amps);
    std::vector<bool> closed;
    closed.reserve(net.switches().size());
    for (const auto &sw : net.switches())
        closed.push_back(sw.initiallyClosed);
    {
        VSGPU_TRACE_SCOPE(obs::CatPhase, "pds.dc_solve");
        setup->dcNodeVolts = solveDc(net, amps, closed,
                                     defaultSolver(),
                                     setup->mnaPattern);
    }
    return setup;
}

std::shared_ptr<const PdsSetup>
sharedPdsSetup(const CosimConfig &cfg)
{
    if (!cfg.setup)
        return buildPdsSetup(cfg);
    panicIfNot(cfg.setup->key == pdsSetupKey(cfg),
               "shared PDS setup built for a different electrical "
               "configuration");
    return cfg.setup;
}

} // namespace vsgpu
