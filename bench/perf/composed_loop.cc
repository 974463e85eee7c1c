#include "bench/perf/composed_loop.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "circuit/transient.hh"
#include "common/logging.hh"
#include "control/controller.hh"
#include "ivr/efficiency.hh"
#include "pdn/single_layer.hh"
#include "pdn/vs_pdn.hh"
#include "sim/model_verify.hh"
#include "sim/pds_setup.hh"
#include "workloads/generator.hh"

namespace vsgpu::perf
{

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

const char *
stageName(int stage)
{
    static const char *const names[numStages] = {
        "gpu",     "power",   "coupling",   "circuit",
        "observe", "control", "hypervisor", "bookkeeping",
    };
    panicIfNot(stage >= 0 && stage < numStages, "bad stage ", stage);
    return names[stage];
}

// The body below mirrors CoSimulator::runImpl (src/sim/cosim.cc) call
// for call: any change to the arithmetic or its order there must be
// made here too, or the benchmark's traced/untraced digest check
// fails.
CosimResult
runComposed(const CosimConfig &cfg, const WorkloadSpec &workload,
            PgGovernor *pg, VsAwareHypervisor *hv, StageTimes &times)
{
    panicIfNot(cfg.traceStride == 0 && cfg.waveStride == 0 &&
                   cfg.sampleEvery.raw() <= 0.0 &&
                   cfg.gateLayerAtSec < Seconds{},
               "composed loop: unsupported observability or "
               "layer-gating option");

    const std::int64_t initStartNs = nowNs();
    const bool stacked = isVoltageStacked(cfg.pds.kind);
    const bool smoothing = cfg.pds.kind == PdsKind::VsCrossLayer &&
                           cfg.pds.smoothingEnabled;
    const WorkloadFactory factory(workload);

    Gpu gpu(cfg.gpu);
    SmPowerModel powerModel(cfg.energy);
    const double peakSmPower = powerModel.peakPower().raw();

    const std::shared_ptr<const PdsSetup> &setup = cfg.setup;
    panicIfNot(setup && setup->key == pdsSetupKey(cfg),
               "composed loop: needs the shared PDS setup of its "
               "electrical configuration");
    const VsPdn *vsPdn = setup->vs.get();
    const SingleLayerPdn *slPdn = setup->sl.get();
    TransientSim tr(setup->netlist(), config::clockPeriod.raw(),
                    defaultSolver(), setup->mnaPattern);
    const std::vector<int> &loadResistors =
        stacked ? vsPdn->loadResistorIndices()
                : slPdn->loadResistorIndices();
    tr.initFromDc(setup->dcNodeVolts);

    const auto railVolts = [&](int sm) {
        return (stacked ? vsPdn->smVoltage(tr, sm)
                        : slPdn->smVoltage(tr, sm))
            .raw();
    };
    const auto smSource = [&](int sm) {
        return stacked ? vsPdn->smCurrentSource(sm)
                       : slPdn->smCurrentSource(sm);
    };

    std::unique_ptr<SmoothingController> controller;
    if (smoothing) {
        if (cfg.verifyModel) {
            const verify::Report report = verifyControlModel(cfg);
            if (report.hasErrors())
                fatal("control-model verification failed:\n",
                      verify::formatReport(report));
        }
        controller =
            std::make_unique<SmoothingController>(cfg.pds.controller);
    }

    const VrmModel vrm;
    const SingleIvrModel singleIvr;
    const VsOverheads overheads;
    const CrIvrTech ivrTech = cfg.pds.ivrTech;

    CosimResult result;
    const double dt = config::clockPeriod.raw();
    std::array<ReservoirSampler, config::numSMs> noise{};
    RunningStats pooledVolts;
    double minVoltage = 1e9;

    Histogram imbalance({0.0, 0.10, 0.20, 0.40, 10.0});
    std::array<double, config::numSMs> windowPower{};
    int windowFill = 0;

    const double loadOhms =
        loadResistors.empty()
            ? cfg.pdn.smLoadOhms().raw()
            : setup->netlist()
                  .resistors()[static_cast<std::size_t>(
                      loadResistors.front())]
                  .ohms;
    std::array<double, config::numSMs> dccAmps{};
    std::array<double, config::numSMs> smPower{};

    std::array<double, config::numSMs> vSlow{};
    const double nominalRail =
        (stacked ? vsPdn->nominalLayerVolts() : config::smVoltage)
            .raw();
    vSlow.fill(nominalRail);
    const double vSlowBeta = 0.01;

    double vrmSetVolts =
        stacked ? 0.0 : slPdn->options().supplyVolts.raw();

    Cycle lastHvUpdate = 0;
    std::uint64_t lastThrottled = 0;

    const std::uint64_t pgReqBase = pg ? pg->gateRequests() : 0;
    const std::uint64_t pgVetoBase = pg ? pg->vetoSkips() : 0;
    const std::uint64_t hvFreqBase = hv ? hv->freqRemaps() : 0;
    const std::uint64_t hvGateBase = hv ? hv->gatingDenials() : 0;

    gpu.memory().setL1HitRate(workload.l1HitRate);
    gpu.launch(factory);

    const std::int64_t loopStartNs = nowNs();
    times.initNs += loopStartNs - initStartNs;
    std::int64_t lastNs = loopStartNs;
    const auto mark = [&](int stage) {
        const std::int64_t t = nowNs();
        times.ns[static_cast<std::size_t>(stage)] += t - lastNs;
        lastNs = t;
    };

    while (!gpu.done() && gpu.cycle() < cfg.maxCycles) {
        const Cycle now = gpu.cycle();
        lastNs = nowNs();

        gpu.step();
        mark(StageGpu);

        double totalLoadPower = 0.0;
        double fakePower = 0.0;
        for (int sm = 0; sm < config::numSMs; ++sm) {
            const auto &events = gpu.smEvents(sm);
            const double watts =
                powerModel.cyclePower(events, gpu.sm(sm), now).raw();
            smPower[static_cast<std::size_t>(sm)] = watts;
            totalLoadPower += watts;
            fakePower += static_cast<double>(events.fakeIssued) *
                         cfg.energy.fakeEnergy.raw() / dt;
        }
        mark(StagePower);

        double electricalLoadWatts = 0.0;
        double dccDrawnWatts = 0.0;
        for (int sm = 0; sm < config::numSMs; ++sm) {
            const auto idx = static_cast<std::size_t>(sm);
            const double rail = railVolts(sm);
            vSlow[idx] += vSlowBeta * (rail - vSlow[idx]);
            const double v = std::clamp(vSlow[idx], 0.35, 1.6);
            const double knee = 0.6 * config::smVoltage.raw();
            const double foldback = std::clamp(v / knee, 0.0, 1.0);
            const double loadAmps =
                smPower[idx] / nominalRail * foldback - v / loadOhms;
            tr.setCurrent(smSource(sm), loadAmps + dccAmps[idx]);
            electricalLoadWatts +=
                rail * (loadAmps + rail / loadOhms);
            dccDrawnWatts += rail * dccAmps[idx];
        }
        mark(StageCoupling);

        tr.step();
        if (!stacked && cfg.vrmRemoteSense) {
            double railAvg = 0.0;
            for (int sm = 0; sm < config::numSMs; ++sm)
                railAvg += vSlow[static_cast<std::size_t>(sm)];
            railAvg /= static_cast<double>(config::numSMs);
            vrmSetVolts += cfg.remoteSenseGain *
                           (config::smVoltage.raw() - railAvg);
            vrmSetVolts = std::clamp(vrmSetVolts, 0.95, 1.15);
            tr.setSourceVolts(slPdn->supplySource(), vrmSetVolts);
        }
        mark(StageCircuit);

        double cycleMin = 1e9;
        double railSum = 0.0;
        for (int sm = 0; sm < config::numSMs; ++sm) {
            const double v = railVolts(sm);
            railSum += v;
            noise[static_cast<std::size_t>(sm)].add(v);
            pooledVolts.add(v);
            cycleMin = std::min(cycleMin, v);
        }
        if (!std::isfinite(railSum))
            panic("PDS solve produced a non-finite rail voltage at "
                  "cycle ", now);
        minVoltage = std::min(minVoltage, cycleMin);

        for (int sm = 0; sm < config::numSMs; ++sm)
            windowPower[static_cast<std::size_t>(sm)] +=
                smPower[static_cast<std::size_t>(sm)];
        if (++windowFill >= cfg.imbalanceWindow) {
            const double norm =
                static_cast<double>(cfg.imbalanceWindow) * peakSmPower;
            for (int c = 0; c < config::smsPerLayer; ++c) {
                for (int l = 0; l + 1 < config::numLayers; ++l) {
                    const double a = windowPower[static_cast<
                        std::size_t>(VsPdn::smAt(l, c))];
                    const double b = windowPower[static_cast<
                        std::size_t>(VsPdn::smAt(l + 1, c))];
                    imbalance.add(std::abs(a - b) / norm);
                }
            }
            windowPower.fill(0.0);
            windowFill = 0;
        }
        mark(StageObserve);

        if (controller) {
            std::array<double, config::numSMs> volts{};
            for (int sm = 0; sm < config::numSMs; ++sm)
                volts[static_cast<std::size_t>(sm)] = railVolts(sm);
            const CommandSet &commands = controller->step(volts);
            for (int sm = 0; sm < config::numSMs; ++sm) {
                const auto idx = static_cast<std::size_t>(sm);
                gpu.sm(sm).setIssueWidthLimit(
                    commands[idx].issueWidth);
                gpu.sm(sm).setFakeInjectRate(commands[idx].fakeRate);
                dccAmps[idx] = commands[idx].dccAmps.raw();
            }
        }
        mark(StageControl);

        if (pg) {
            if (hv && stacked && now - lastHvUpdate >= 512) {
                lastHvUpdate = now;
                GatingPlan wish{};
                for (int sm = 0; sm < config::numSMs; ++sm) {
                    for (int u = 0; u < numExecUnits; ++u) {
                        const auto &unit =
                            gpu.sm(sm).unit(static_cast<ExecUnitKind>(u));
                        wish[static_cast<std::size_t>(sm)]
                            [static_cast<std::size_t>(u)] =
                            unit.gated(now) ||
                            unit.idleCycles(now) >=
                                pg->config().idleDetect;
                    }
                }
                const GatingPlan plan =
                    hv->filterGating(wish, cfg.energy.unitLeakage);
                for (int sm = 0; sm < config::numSMs; ++sm) {
                    for (int u = 0; u < numExecUnits; ++u) {
                        const auto kind = static_cast<ExecUnitKind>(u);
                        const bool wanted =
                            wish[static_cast<std::size_t>(sm)]
                                [static_cast<std::size_t>(u)];
                        const bool allowed =
                            plan[static_cast<std::size_t>(sm)]
                                [static_cast<std::size_t>(u)];
                        pg->setVeto(sm, kind, wanted && !allowed);
                        auto &unit = gpu.sm(sm).unit(kind);
                        if (wanted && !allowed && unit.gated(now) &&
                            unit.gateRequested()) {
                            unit.ungate(now, cfg.gpu.sm.pgWakeLatency);
                        }
                    }
                }
            }
            pg->step(gpu, now);
        }
        if (hv && stacked && (now & 0xfff) == 0 && now > 0) {
            std::uint64_t throttled = 0;
            for (int sm = 0; sm < config::numSMs; ++sm)
                throttled += gpu.sm(sm).throttledCycles();
            const double rate =
                static_cast<double>(throttled - lastThrottled) /
                (4096.0 * config::numSMs);
            lastThrottled = throttled;
            hv->feedback(std::clamp(rate, 0.0, 1.0));
        }
        mark(StageHypervisor);

        result.energy.load += electricalLoadWatts * dt;
        result.energy.fake += fakePower * dt;

        const Netlist &net = setup->netlist();
        double loadResWatts = 0.0;
        for (int i : loadResistors) {
            const double amps = tr.resistorCurrent(i);
            loadResWatts +=
                amps * amps *
                net.resistors()[static_cast<std::size_t>(i)].ohms;
        }
        const double pdnWatts =
            std::max(0.0, tr.totalResistivePower() +
                              tr.totalSwitchPower() - loadResWatts);

        double overheadWatts = 0.0;
        double crIvrWatts = 0.0;
        double wallWatts = 0.0;
        double conversionWatts = 0.0;

        if (stacked) {
            const double eqWatts = tr.totalEqualizerPower();
            double transferWatts = 0.0;
            const int numEq =
                static_cast<int>(vsPdn->equalizerIndices().size());
            for (int e = 0; e < numEq; ++e)
                transferWatts += std::abs(tr.equalizerCurrent(e)) *
                                 config::smVoltage.raw();

            double layerPower[config::numLayers] = {};
            for (int sm = 0; sm < config::numSMs; ++sm)
                layerPower[VsPdn::smLayer(sm)] +=
                    smPower[static_cast<std::size_t>(sm)];
            const double avgLayer =
                totalLoadPower /
                static_cast<double>(config::numLayers);
            double shuffleWatts = 0.0;
            for (double lp : layerPower)
                shuffleWatts += std::abs(lp - avgLayer);

            crIvrWatts = eqWatts +
                         ivrTech.switchingLossFraction * transferWatts +
                         (1.0 - ivrTech.shuffleEfficiency) *
                             shuffleWatts;

            overheadWatts +=
                overheads.levelShifterFraction * totalLoadPower;
            if (controller) {
                overheadWatts += overheads.controllerPower.raw() +
                                 controller->detectorPower().raw();
                overheadWatts +=
                    cfg.pds.controller.dcc.leakageWatts.raw() *
                    static_cast<double>(config::numSMs);
            }
            overheadWatts += dccDrawnWatts;

            const double sourceWatts = tr.totalSourcePower();
            wallWatts = sourceWatts + crIvrWatts -
                        tr.totalEqualizerPower() + overheadWatts;
        } else if (cfg.pds.kind == PdsKind::ConventionalVrm) {
            const double chipWatts = tr.totalSourcePower();
            wallWatts = vrm.inputPower(Watts{chipWatts}).raw();
            conversionWatts = wallWatts - chipWatts;
        } else {
            const double chipWatts = tr.totalSourcePower();
            const double ivrInWatts =
                singleIvr.inputPower(Watts{chipWatts}).raw();
            conversionWatts = ivrInWatts - chipWatts;
            const double boardAmps =
                ivrInWatts / singleIvr.inputVolts().raw();
            const double boardLossWatts =
                boardAmps * boardAmps *
                (cfg.pdn.boardR + cfg.pdn.packageR).raw();
            wallWatts = ivrInWatts + boardLossWatts;
            conversionWatts += boardLossWatts;
        }

        result.energy.pdn += pdnWatts * dt;
        result.energy.conversion += conversionWatts * dt;
        result.energy.crIvr += crIvrWatts * dt;
        result.energy.overhead += overheadWatts * dt;
        result.energy.wall += wallWatts * dt;
        mark(StageBookkeeping);
    }
    times.loopNs += nowNs() - loopStartNs;

    result.cycles = gpu.cycle();
    result.finished = gpu.done();
    std::uint64_t instructions = 0;
    std::uint64_t throttled = 0;
    for (int sm = 0; sm < config::numSMs; ++sm) {
        instructions += gpu.sm(sm).retired();
        throttled += gpu.sm(sm).throttledCycles();
        result.smNoise[static_cast<std::size_t>(sm)] =
            noise[static_cast<std::size_t>(sm)].box();
    }
    result.instructions = instructions;
    result.minVoltage = minVoltage;
    result.meanVoltage = pooledVolts.mean();
    result.throttleRate =
        result.cycles > 0
            ? static_cast<double>(throttled) /
                  (static_cast<double>(result.cycles) * config::numSMs)
            : 0.0;
    if (controller && controller->totalDecisions() > 0) {
        result.triggerRate =
            static_cast<double>(controller->triggeredDecisions()) /
            static_cast<double>(controller->totalDecisions());
    }
    for (std::size_t b = 0; b < 4; ++b)
        result.imbalanceBins[b] = imbalance.fraction(b);

    CosimCounters &ctr = result.counters;
    ctr.cycles = result.cycles;
    ctr.instructions = instructions;
    ctr.throttledCycles = throttled;
    ctr.kernelLaunches = 1;
    for (int sm = 0; sm < config::numSMs; ++sm) {
        ctr.fakeInstructions += gpu.sm(sm).fakeIssuedTotal();
        for (std::uint64_t events : gpu.sm(sm).stats().gateEvents)
            ctr.gateEvents += events;
    }
    ctr.memAccesses = gpu.memory().accesses();
    ctr.l1Hits = gpu.memory().l1Hits();
    ctr.l2Hits = gpu.memory().l2Hits();
    ctr.dramAccesses = gpu.memory().dramAccesses();
    ctr.timesteps = tr.steps();
    ctr.luFactorizations = tr.luBuilds();
    ctr.sparseNnz = tr.patternNnz();
    ctr.sparseSymbolicReuses = tr.usedCachedPattern() ? 1 : 0;
    ctr.sparseRefactorizations = tr.refactorizations();
    if (controller) {
        ctr.ctlDecisions = controller->totalDecisions();
        ctr.ctlTriggered = controller->triggeredDecisions();
        ctr.detectorTrips = controller->detectorTrips();
        ctr.diwsEngagements = controller->diwsEngagements();
        ctr.fiiEngagements = controller->fiiEngagements();
        ctr.dccEngagements = controller->dccEngagements();
    }
    if (pg) {
        ctr.pgGateRequests = pg->gateRequests() - pgReqBase;
        ctr.pgVetoSkips = pg->vetoSkips() - pgVetoBase;
    }
    if (hv) {
        ctr.hvFreqRemaps = hv->freqRemaps() - hvFreqBase;
        ctr.hvGatingDenials = hv->gatingDenials() - hvGateBase;
    }
    return result;
}

} // namespace vsgpu::perf
