#include "sim/cosim.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "circuit/wave_writer.hh"
#include "common/check.hh"
#include "common/logging.hh"
#include "control/controller.hh"
#include "ivr/efficiency.hh"
#include "obs/flight_recorder.hh"
#include "obs/manifest.hh"
#include "obs/profile.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "pdn/single_layer.hh"
#include "pdn/vs_pdn.hh"
#include "sim/model_verify.hh"
#include "sim/pds_setup.hh"

namespace vsgpu
{

namespace
{

/** Clamp a measured rail voltage used in the P -> I conversion. */
double
usableVolts(double v)
{
    return std::clamp(v, 0.35, 1.6);
}

} // namespace

CoSimulator::CoSimulator(const CosimConfig &cfg)
    : cfg_(cfg)
{
}

CosimResult
CoSimulator::run(const WorkloadSpec &workload)
{
    WorkloadFactory factory(workload);
    return run(factory, workload.l1HitRate);
}

CosimResult
CoSimulator::run(const ProgramFactory &factory, double l1HitRate)
{
    return runImpl({&factory}, {l1HitRate});
}

CosimResult
CoSimulator::runSequence(const std::vector<WorkloadSpec> &kernels)
{
    panicIfNot(!kernels.empty(), "empty kernel sequence");
    std::vector<WorkloadFactory> factories;
    factories.reserve(kernels.size());
    std::vector<const ProgramFactory *> ptrs;
    std::vector<double> rates;
    for (const auto &kernel : kernels) {
        factories.emplace_back(kernel);
        rates.push_back(kernel.l1HitRate);
    }
    for (const auto &factory : factories)
        ptrs.push_back(&factory);
    return runImpl(ptrs, rates);
}

CosimResult
CoSimulator::runImpl(
    const std::vector<const ProgramFactory *> &kernels,
    const std::vector<double> &l1HitRates)
{
    panicIfNot(kernels.size() == l1HitRates.size() &&
               !kernels.empty(),
               "kernel/l1-rate size mismatch");
    const bool stacked = isVoltageStacked(cfg_.pds.kind);
    const bool smoothing = cfg_.pds.kind == PdsKind::VsCrossLayer &&
                           cfg_.pds.smoothingEnabled;

    VSGPU_TRACE_SCOPE(obs::CatPhase, "cosim.run");
    obs::ScopedSpan setupSpan(obs::CatPhase, "cosim.setup");

    // --- stage-cost profiling (obs/profile.hh; off by default) ---
    std::shared_ptr<obs::Profile> profile;
    std::int64_t runStartNs = 0;
    if (obs::profilingEnabled()) {
        profile = std::make_shared<obs::Profile>();
        profile->runs = 1;
        profile->strideCycles = obs::profilingStride();
        runStartNs = obs::profileNowNs();
    }
    obs::StageTimer stageTimer(
        profile.get(), profile ? profile->strideCycles : 1);
    const std::int64_t setupStartNs =
        profile ? obs::profileNowNs() : 0;

    // --- build the device and the PDS ---
    Gpu gpu(cfg_.gpu);

    SmPowerModel powerModel(cfg_.energy);
    const double peakSmPower = powerModel.peakPower().raw();

    // Shared electrical setup: use the caller's (sweep engines build
    // one per configuration and share it across points) or build our
    // own.  Either way the netlist is immutable and the DC operating
    // point comes from the same solveDc() path, so results do not
    // depend on which branch was taken.
    std::shared_ptr<const PdsSetup> setup = cfg_.setup;
    if (setup) {
        panicIfNot(setup->key == pdsSetupKey(cfg_),
                   "shared PDS setup built for a different "
                   "electrical configuration");
    } else {
        setup = buildPdsSetup(cfg_);
    }
    // Flight recorder: arm the crash dump with this run's identity
    // before anything downstream (verify gate, DC audit, solver) can
    // abort the process.
    obs::FlightRecorder &flight = obs::FlightRecorder::instance();
    if (obs::flightRecorderEnabled()) {
        obs::installFlightRecorderCrashDump();
        flight.beginRun(pdsName(cfg_.pds.kind),
                        obs::fnv1a64Hex(setup->key));
    }

    const VsPdn *vsPdn = setup->vs.get();
    const SingleLayerPdn *slPdn = setup->sl.get();
    auto tr = std::make_shared<TransientSim>(
        setup->netlist(), config::clockPeriod.raw(),
        defaultSolver(), setup->mnaPattern);
    if (profile)
        tr->attachProfiler(&stageTimer);
    const std::vector<int> &loadResistors =
        stacked ? vsPdn->loadResistorIndices()
                : slPdn->loadResistorIndices();
    tr->initFromDc(setup->dcNodeVolts);

    const auto smSource = [&](int sm) {
        return stacked ? vsPdn->smCurrentSource(sm)
                       : slPdn->smCurrentSource(sm);
    };

    // One rail snapshot per cycle (raw volts for the loop math), read
    // right after the circuit step.  Observe, control and the next
    // cycle's P -> I coupling all read it: nothing writes the solution
    // in between (setSourceVolts only changes the next right-hand
    // side).  Cycle 0's coupling reads the DC operating point.
    std::array<double, config::numSMs> railNow{};
    const auto snapshotRails = [&] {
        for (int sm = 0; sm < config::numSMs; ++sm)
            railNow[static_cast<std::size_t>(sm)] =
                (stacked ? vsPdn->smVoltage(*tr, sm)
                         : slPdn->smVoltage(*tr, sm))
                    .raw();
    };
    snapshotRails();

    // --- controller (cross-layer only) ---
    std::unique_ptr<SmoothingController> controller;
    if (smoothing) {
        // Static control-loop audit before closing the loop: reject
        // configurations whose discrete PI loop cannot work at all
        // (dead-band wider than the trigger margin, non-positive
        // period).  Stability *warnings* are expected for the paper's
        // nonlinear gain and are reviewed via tools/vsgpu_verify.
        if (cfg_.verifyModel) {
            const verify::Report report = verifyControlModel(cfg_);
            if (report.hasErrors()) {
                fatal("control-model verification failed (run "
                      "tools/vsgpu_verify, or set verifyModel = "
                      "false to bypass):\n",
                      verify::formatReport(report));
            }
        }
        controller =
            std::make_unique<SmoothingController>(cfg_.pds.controller);
    }

    // --- loss models ---
    const VrmModel vrm;
    const SingleIvrModel singleIvr;
    const VsOverheads overheads;
    const CrIvrTech ivrTech = cfg_.pds.ivrTech;

    // --- accumulators ---
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
            ? cfg_.pdn.smLoadOhms().raw()
            : (stacked ? vsPdn->netlist() : slPdn->netlist())
                  .resistors()[static_cast<std::size_t>(
                      loadResistors.front())]
                  .ohms;
    std::array<double, config::numSMs> dccAmps{};
    std::array<double, config::numSMs> smPower{};

    // Slow-filtered rail voltage used in the P -> I conversion: a
    // load is constant-power only on thermal/architectural
    // timescales; at nanosecond scale its current tracks voltage
    // (the +1/R conductance).  Using the instantaneous voltage here
    // would create a -P/V^2 negative conductance at the package
    // resonance and destabilize the PDN, which is unphysical.
    std::array<double, config::numSMs> vSlow{};
    const double nominalRail =
        (stacked ? vsPdn->nominalLayerVolts() : config::smVoltage)
            .raw();
    vSlow.fill(nominalRail);
    const double vSlowBeta = 0.01; // ~100-cycle time constant

    // Remote-sense VRM regulation state (single-layer configs).
    double vrmSetVolts =
        stacked ? 0.0 : slPdn->options().supplyVolts.raw();

    // Hypervisor/PG interplay bookkeeping.
    Cycle lastHvUpdate = 0;
    std::uint64_t lastThrottled = 0;

    // Governor counter baselines: attached governors are long-lived
    // and may serve several runs, so this run's counters are deltas.
    const std::uint64_t dfsBase = dfs_ ? dfs_->transitions() : 0;
    const std::uint64_t pgReqBase = pg_ ? pg_->gateRequests() : 0;
    const std::uint64_t pgVetoBase = pg_ ? pg_->vetoSkips() : 0;
    const std::uint64_t hvFreqBase =
        hypervisor_ ? hypervisor_->freqRemaps() : 0;
    const std::uint64_t hvGateBase =
        hypervisor_ ? hypervisor_->gatingDenials() : 0;

    // --- waveform capture (observability only) ---
    std::shared_ptr<WaveWriter> wave;
    if (cfg_.waveStride > 0) {
        wave = std::make_shared<WaveWriter>(*tr, cfg_.waveStride);
        for (int sm = 0; sm < config::numSMs; ++sm) {
            const std::string name = "sm" + std::to_string(sm) +
                                     "_rail";
            if (stacked) {
                wave->addSignal(name, vsPdn->smTopNode(sm),
                                vsPdn->smBottomNode(sm));
            } else {
                wave->addSignal(name, slPdn->smNode(sm));
            }
        }
    }

    // --- time-series telemetry (observability only) ---
    std::unique_ptr<obs::TimeSeriesRecorder> series;
    struct SeriesChannels
    {
        std::array<int, config::numSMs> railSm{};
        int railMin = -1;
        int railMax = -1;
        int powerLoad = -1;
        int luBuilds = -1;
        int ctlMargin = -1;
        int ctlTriggered = -1;
        int dfsFreq = -1;
        int pgGated = -1;
        int wallUs = -1;
    } chans;
    if (cfg_.sampleEvery.raw() > 0.0) {
        series = std::make_unique<obs::TimeSeriesRecorder>(
            config::clockPeriod.raw(), cfg_.sampleEvery.raw());
        // Dense channels (recorded every cycle from values the loop
        // already computes).
        chans.railMin = series->addChannel(
            "rail.min", "V", "minimum SM rail voltage this cycle");
        chans.railMax = series->addChannel(
            "rail.max", "V", "maximum SM rail voltage this cycle");
        // Strided channels (recorded on the recorder's deterministic
        // sampling stride).
        for (int sm = 0; sm < config::numSMs; ++sm) {
            chans.railSm[static_cast<std::size_t>(sm)] =
                series->addChannel(
                    "rail.sm" + std::to_string(sm), "V",
                    "rail voltage of SM " + std::to_string(sm));
        }
        chans.powerLoad = series->addChannel(
            "power.load", "W", "total SM load power");
        chans.luBuilds = series->addChannel(
            "circuit.lu_builds", "count",
            "cumulative LU factorizations built");
        if (smoothing) {
            chans.ctlMargin = series->addChannel(
                "ctl.margin", "V",
                "min rail voltage minus trigger threshold");
            chans.ctlTriggered = series->addChannel(
                "ctl.triggered", "count",
                "cumulative triggered control decisions");
        }
        if (dfs_) {
            chans.dfsFreq = series->addChannel(
                "hv.dfs_freq", "frac",
                "mean requested SM frequency fraction");
        }
        if (pg_) {
            chans.pgGated = series->addChannel(
                "hv.gated_units", "units",
                "execution units currently power-gated");
        }
        // Wall-clock channel: marked schedule-dependent, so default
        // dumps (and the jobs=1 vs jobs=N determinism gate) exclude
        // it, following the exec.pool.steals precedent.
        chans.wallUs = series->addChannel(
            "wall.sample_us", "us",
            "wall microseconds per sampled cycle",
            /*scheduleDependent=*/true);
    }

    setupSpan.end();
    if (profile)
        profile->stages[obs::StageSetup].add(
            static_cast<std::uint64_t>(obs::profileNowNs() -
                                       setupStartNs));

    const Cycle gateLayerAt =
        cfg_.gateLayerAtSec >= Seconds{}
            ? static_cast<Cycle>(cfg_.gateLayerAtSec.raw() / dt)
            : std::numeric_limits<Cycle>::max();

    // ================= main loop =================
    std::size_t kernelsLaunched = 0;
    bool budgetExhausted = false;
    std::int64_t lastSampleWallNs =
        series ? obs::profileNowNs() : 0;
    for (std::size_t k = 0; k < kernels.size() && !budgetExhausted;
         ++k) {
        // Kernel-boundary resynchronization: the previous kernel has
        // fully drained every SM before this launch.
        gpu.memory().setL1HitRate(l1HitRates[k]);
        gpu.launch(*kernels[k]);
        ++kernelsLaunched;
        if (obs::flightRecorderEnabled())
            flight.record("kernel.launch", tr->time(), gpu.cycle(),
                          static_cast<double>(k), 0.0);

        obs::ScopedSpan kernelSpan(obs::CatPhase, "cosim.kernel");
        if (kernelSpan.live())
            kernelSpan.setArg("kernel", std::to_string(k));

        // Transient work is traced as fixed-size chunks so long runs
        // show up as a sequence of spans rather than one opaque box.
        const bool tracePhases =
            obs::Tracer::enabledFor(obs::CatPhase);
        constexpr Cycle chunkCycles = 16384;
        Cycle chunkStartCycle = gpu.cycle();
        double chunkStartUs =
            tracePhases ? obs::Tracer::instance().nowUs() : 0.0;
        const auto emitChunk = [&](Cycle upTo) {
            obs::Tracer &tracer = obs::Tracer::instance();
            const double nowUs = tracer.nowUs();
            tracer.complete(
                obs::CatPhase, "cosim.transient_chunk",
                chunkStartUs, nowUs - chunkStartUs,
                {{"start_cycle", std::to_string(chunkStartCycle)},
                 {"cycles",
                  std::to_string(upTo - chunkStartCycle)}});
            chunkStartUs = nowUs;
            chunkStartCycle = upTo;
        };

    while (!gpu.done() && gpu.cycle() < cfg_.maxCycles) {
        const Cycle now = gpu.cycle();
        if (tracePhases && now - chunkStartCycle >= chunkCycles)
            emitChunk(now);

        stageTimer.beginCycle();

        // 1. GPU timing step.
        gpu.step();
        stageTimer.mark(obs::StageGpu);

        // 2. Per-SM power from the event trace.
        double totalLoadPower = 0.0;
        double fakePower = 0.0;
        for (int sm = 0; sm < config::numSMs; ++sm) {
            const auto &events = gpu.smEvents(sm);
            double watts =
                powerModel.cyclePower(events, gpu.sm(sm), now).raw();
            if (now >= gateLayerAt &&
                VsPdn::smLayer(sm) == cfg_.gatedLayer) {
                watts = cfg_.gatedLayerWatts.raw();
            }
            smPower[static_cast<std::size_t>(sm)] = watts;
            totalLoadPower += watts;
            fakePower += static_cast<double>(events.fakeIssued) *
                         cfg_.energy.fakeEnergy.raw() / dt;
        }

        // 3. Convert power to load currents and advance the PDS.
        // Following the paper, each SM is a time-varying ideal
        // current source: I = P(t) / V_nominal.  The linearized load
        // conductance already in the netlist supplies the small
        // positive dI/dV; the source covers the remainder.  Below the
        // brown-out knee the current folds back linearly (logic stops
        // switching), so a collapsed rail cannot demand unbounded
        // current in worst-case studies.
        double electricalLoadWatts = 0.0;
        double dccDrawnWatts = 0.0;
        for (int sm = 0; sm < config::numSMs; ++sm) {
            const auto idx = static_cast<std::size_t>(sm);
            const double rail = railNow[idx];
            vSlow[idx] += vSlowBeta * (rail - vSlow[idx]);
            const double v = usableVolts(vSlow[idx]);
            const double knee = 0.6 * config::smVoltage.raw();
            const double foldback =
                std::clamp(v / knee, 0.0, 1.0);
            const double loadAmps =
                smPower[idx] / nominalRail * foldback - v / loadOhms;
            tr->setCurrent(smSource(sm), loadAmps + dccAmps[idx]);
            // Book what the load actually draws electrically (source
            // plus linearized conductance), so load + losses = wall.
            electricalLoadWatts +=
                rail * (loadAmps + rail / loadOhms);
            dccDrawnWatts += rail * dccAmps[idx];
        }
        stageTimer.mark(obs::StagePower);
        tr->step();
        snapshotRails();
        if (wave)
            wave->sample();

        // 3b. Remote-sense load-line regulation: servo the VRM
        // output so the average die rail tracks nominal.
        if (!stacked && cfg_.vrmRemoteSense) {
            double railAvg = 0.0;
            for (int sm = 0; sm < config::numSMs; ++sm)
                railAvg += vSlow[static_cast<std::size_t>(sm)];
            railAvg /= static_cast<double>(config::numSMs);
            vrmSetVolts += cfg_.remoteSenseGain *
                           (config::smVoltage.raw() - railAvg);
            vrmSetVolts = std::clamp(vrmSetVolts, 0.95, 1.15);
            tr->setSourceVolts(slPdn->supplySource(), vrmSetVolts);
        }
        stageTimer.mark(obs::StageCircuit);

        // 4. Observability: noise statistics and traces.
        double cycleMin = 1e9;
        double cycleMax = -1e9;
        double railSum = 0.0;
        for (int sm = 0; sm < config::numSMs; ++sm) {
            const double v = railNow[static_cast<std::size_t>(sm)];
            // A non-finite rail voltage here means the PDS solve has
            // already gone unstable; fail fast in debug builds.
            VSGPU_CHECK_FINITE(v);
            railSum += v;
            noise[static_cast<std::size_t>(sm)].add(v);
            pooledVolts.add(v);
            cycleMin = std::min(cycleMin, v);
            cycleMax = std::max(cycleMax, v);
        }
        // Always-on solver/NaN guard (min/max comparisons let NaN
        // slip through, a finite sum cannot): abort the run instead
        // of integrating garbage, with the flight recorder dumping
        // the recent history from the crash hook.
        if (!std::isfinite(railSum)) {
            panic("PDS solve produced a non-finite rail voltage at "
                  "cycle ", now, " (t = ", tr->time(),
                  " s); flight-recorder dump of recent history "
                  "follows");
        }
        minVoltage = std::min(minVoltage, cycleMin);
        if (obs::flightRecorderEnabled())
            flight.record("rail", tr->time(), now, cycleMin,
                          cycleMax);

        if (cfg_.traceStride > 0 &&
            now % static_cast<Cycle>(cfg_.traceStride) == 0) {
            TraceSample sample;
            sample.timeSec = Seconds{tr->time()};
            sample.minSmVolts = Volts{cycleMin};
            sample.maxSmVolts = Volts{cycleMax};
            for (int layer = 0; layer < config::numLayers; ++layer)
                sample.layerVolts[static_cast<std::size_t>(layer)] =
                    railNow[static_cast<std::size_t>(
                        VsPdn::smAt(layer, 0))];
            result.trace.push_back(sample);
        }

        if (series) {
            // Dense channels come from values this loop already
            // computed; everything else records on the recorder's
            // deterministic stride to bound the overhead.
            series->recordDense(chans.railMin, cycleMin);
            series->recordDense(chans.railMax, cycleMax);
            if (series->sampleThisCycle()) {
                for (int sm = 0; sm < config::numSMs; ++sm) {
                    const auto idx = static_cast<std::size_t>(sm);
                    series->record(chans.railSm[idx], railNow[idx]);
                }
                series->record(chans.powerLoad, totalLoadPower);
                series->record(
                    chans.luBuilds,
                    static_cast<double>(tr->luBuilds()));
                if (chans.ctlMargin >= 0) {
                    series->record(
                        chans.ctlMargin,
                        cycleMin -
                            cfg_.pds.controller.vThreshold.raw());
                }
                if (chans.ctlTriggered >= 0) {
                    series->record(
                        chans.ctlTriggered,
                        static_cast<double>(
                            controller->triggeredDecisions()));
                }
                if (chans.dfsFreq >= 0) {
                    const auto &request = dfs_->requested();
                    double frac = 0.0;
                    for (int sm = 0; sm < config::numSMs; ++sm)
                        frac +=
                            request[static_cast<std::size_t>(sm)] /
                            config::smClockHz;
                    series->record(
                        chans.dfsFreq,
                        frac / static_cast<double>(config::numSMs));
                }
                if (chans.pgGated >= 0) {
                    int gated = 0;
                    for (int sm = 0; sm < config::numSMs; ++sm) {
                        for (int u = 0; u < numExecUnits; ++u) {
                            const auto kind =
                                static_cast<ExecUnitKind>(u);
                            if (gpu.sm(sm).unit(kind).gated(now))
                                ++gated;
                        }
                    }
                    series->record(chans.pgGated,
                                   static_cast<double>(gated));
                }
                // Wall cost per sampled cycle, amortized over the
                // stride (schedule-dependent channel).
                const std::int64_t wallNowNs = obs::profileNowNs();
                series->record(
                    chans.wallUs,
                    static_cast<double>(wallNowNs -
                                        lastSampleWallNs) *
                        1e-3 /
                        static_cast<double>(series->sampleStride()));
                lastSampleWallNs = wallNowNs;
            }
        }

        // 5. Imbalance histogram over an averaging window.
        for (int sm = 0; sm < config::numSMs; ++sm)
            windowPower[static_cast<std::size_t>(sm)] +=
                smPower[static_cast<std::size_t>(sm)];
        if (++windowFill >= cfg_.imbalanceWindow) {
            const double norm =
                static_cast<double>(cfg_.imbalanceWindow) *
                peakSmPower;
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
        stageTimer.mark(obs::StageObserve);

        // 6. Voltage-smoothing control loop.
        if (controller) {
            const std::uint64_t trippedBefore =
                obs::Tracer::enabledFor(obs::CatCtl)
                    ? controller->triggeredDecisions()
                    : 0;
            const CommandSet &commands = controller->step(railNow);
            if (obs::Tracer::enabledFor(obs::CatCtl) &&
                controller->triggeredDecisions() > trippedBefore) {
                VSGPU_TRACE_INSTANT(obs::CatCtl, "ctl.trigger");
            }
            for (int sm = 0; sm < config::numSMs; ++sm) {
                const auto idx = static_cast<std::size_t>(sm);
                gpu.sm(sm).setIssueWidthLimit(
                    commands[idx].issueWidth);
                gpu.sm(sm).setFakeInjectRate(commands[idx].fakeRate);
                dccAmps[idx] = commands[idx].dccAmps.raw();
            }
        }
        stageTimer.mark(obs::StageControl);

        // 7. Higher-level power management.
        if (dfs_) {
            const std::uint64_t dfsBefore =
                obs::Tracer::enabledFor(obs::CatHv)
                    ? dfs_->transitions()
                    : 0;
            dfs_->step(gpu);
            if (obs::Tracer::enabledFor(obs::CatHv) &&
                dfs_->transitions() > dfsBefore) {
                VSGPU_TRACE_INSTANT(obs::CatHv, "dfs.transition");
            }
            auto request = dfs_->requested();
            if (hypervisor_ && stacked)
                request = hypervisor_->filterFrequencies(request);
            for (int sm = 0; sm < config::numSMs; ++sm)
                gpu.setSmFrequencyFraction(
                    sm, request[static_cast<std::size_t>(sm)] /
                            config::smClockHz);
        }
        if (pg_) {
            if (hypervisor_ && stacked &&
                now - lastHvUpdate >= 512) {
                lastHvUpdate = now;
                // Build the gating wish list: currently gated blocks
                // plus blocks idle beyond the detect window.
                GatingPlan wish{};
                for (int sm = 0; sm < config::numSMs; ++sm) {
                    for (int u = 0; u < numExecUnits; ++u) {
                        const auto kind =
                            static_cast<ExecUnitKind>(u);
                        const auto &unit = gpu.sm(sm).unit(kind);
                        wish[static_cast<std::size_t>(sm)]
                            [static_cast<std::size_t>(u)] =
                            unit.gated(now) ||
                            unit.idleCycles(now) >=
                                pg_->config().idleDetect;
                    }
                }
                const std::uint64_t denialsBefore =
                    obs::Tracer::enabledFor(obs::CatHv)
                        ? hypervisor_->gatingDenials()
                        : 0;
                const GatingPlan plan = hypervisor_->filterGating(
                    wish, cfg_.energy.unitLeakage);
                if (obs::Tracer::enabledFor(obs::CatHv) &&
                    hypervisor_->gatingDenials() > denialsBefore) {
                    VSGPU_TRACE_INSTANT(obs::CatHv,
                                        "hv.gating_denial");
                }
                for (int sm = 0; sm < config::numSMs; ++sm) {
                    for (int u = 0; u < numExecUnits; ++u) {
                        const auto kind =
                            static_cast<ExecUnitKind>(u);
                        const bool wanted =
                            wish[static_cast<std::size_t>(sm)]
                                [static_cast<std::size_t>(u)];
                        const bool allowed =
                            plan[static_cast<std::size_t>(sm)]
                                [static_cast<std::size_t>(u)];
                        pg_->setVeto(sm, kind, wanted && !allowed);
                        auto &unit = gpu.sm(sm).unit(kind);
                        if (wanted && !allowed && unit.gated(now) &&
                            unit.gateRequested()) {
                            unit.ungate(now,
                                        cfg_.gpu.sm.pgWakeLatency);
                        }
                    }
                }
            }
            pg_->step(gpu, now);
        }
        if (hypervisor_ && stacked && (now & 0xfff) == 0 &&
            now > 0) {
            std::uint64_t throttled = 0;
            for (int sm = 0; sm < config::numSMs; ++sm)
                throttled += gpu.sm(sm).throttledCycles();
            const double rate =
                static_cast<double>(throttled - lastThrottled) /
                (4096.0 * config::numSMs);
            lastThrottled = throttled;
            hypervisor_->feedback(std::clamp(rate, 0.0, 1.0));
        }
        stageTimer.mark(obs::StageHypervisor);

        // 8. Energy bookkeeping.
        result.energy.load += electricalLoadWatts * dt;
        result.energy.fake += fakePower * dt;

        // PDN resistive loss excludes the linearized load resistors.
        const Netlist &net =
            stacked ? vsPdn->netlist() : slPdn->netlist();
        double loadResWatts = 0.0;
        for (int i : loadResistors) {
            const double amps = tr->resistorCurrent(i);
            loadResWatts +=
                amps * amps *
                net.resistors()[static_cast<std::size_t>(i)].ohms;
        }
        const double pdnWatts =
            std::max(0.0, tr->totalResistivePower() +
                              tr->totalSwitchPower() - loadResWatts);

        double overheadWatts = 0.0;
        double crIvrWatts = 0.0;
        double wallWatts = 0.0;
        double conversionWatts = 0.0;

        if (stacked) {
            // One evaluation of each equalizer current gives both the
            // charge-transfer loss (summed in totalEqualizerPower()'s
            // order) and the transferred power that sets the
            // switching overhead.
            double eqWatts = 0.0;
            double transferWatts = 0.0;
            const auto &equalizers = net.equalizers();
            for (std::size_t e = 0; e < equalizers.size(); ++e) {
                const double ix =
                    tr->equalizerCurrent(static_cast<int>(e));
                eqWatts += equalizers[e].effOhms * ix * ix;
                transferWatts +=
                    std::abs(ix) * config::smVoltage.raw();
            }

            // Shuffle tax: inter-layer imbalance power is processed
            // by the SC ladder at its shuffle efficiency; the
            // averaged Reff only models the conduction part.
            double layerPower[config::numLayers] = {};
            for (int sm = 0; sm < config::numSMs; ++sm)
                layerPower[VsPdn::smLayer(sm)] +=
                    smPower[static_cast<std::size_t>(sm)];
            const double avgLayer = totalLoadPower /
                                    static_cast<double>(
                                        config::numLayers);
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
                    cfg_.pds.controller.dcc.leakageWatts.raw() *
                    static_cast<double>(config::numSMs);
            }
            // DCC compensation currents flow through the netlist and
            // are part of the measured source power; book them as
            // overhead, not load.
            overheadWatts += dccDrawnWatts;

            const double sourceWatts = tr->totalSourcePower();
            wallWatts =
                sourceWatts + crIvrWatts - eqWatts + overheadWatts;
        } else if (cfg_.pds.kind == PdsKind::ConventionalVrm) {
            const double chipWatts = tr->totalSourcePower();
            wallWatts = vrm.inputPower(Watts{chipWatts}).raw();
            conversionWatts = wallWatts - chipWatts;
        } else { // SingleLayerIvr
            const double chipWatts = tr->totalSourcePower();
            const double ivrInWatts =
                singleIvr.inputPower(Watts{chipWatts}).raw();
            conversionWatts = ivrInWatts - chipWatts;
            // Board transport at 2 V to the on-die regulator.
            const double boardAmps =
                ivrInWatts / singleIvr.inputVolts().raw();
            const double boardLossWatts =
                boardAmps * boardAmps *
                (cfg_.pdn.boardR + cfg_.pdn.packageR).raw();
            wallWatts = ivrInWatts + boardLossWatts;
            conversionWatts += boardLossWatts;
        }

        result.energy.pdn += pdnWatts * dt;
        result.energy.conversion += conversionWatts * dt;
        result.energy.crIvr += crIvrWatts * dt;
        result.energy.overhead += overheadWatts * dt;
        result.energy.wall += wallWatts * dt;
        stageTimer.mark(obs::StageBookkeeping);
        stageTimer.endCycle();
        if (series)
            series->endCycle();
    }

        if (tracePhases && gpu.cycle() > chunkStartCycle)
            emitChunk(gpu.cycle());
        if (gpu.cycle() >= cfg_.maxCycles)
            budgetExhausted = true;
    }
    // ================= end main loop =================
    const std::int64_t finalizeStartNs =
        profile ? obs::profileNowNs() : 0;

    result.cycles = gpu.cycle();
    result.finished =
        gpu.done() && kernelsLaunched == kernels.size();
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
                  (static_cast<double>(result.cycles) *
                   config::numSMs)
            : 0.0;
    if (controller && controller->totalDecisions() > 0) {
        result.triggerRate =
            static_cast<double>(controller->triggeredDecisions()) /
            static_cast<double>(controller->totalDecisions());
    }
    for (std::size_t b = 0; b < 4; ++b)
        result.imbalanceBins[b] = imbalance.fraction(b);

    // --- event counters for the obs stats registry ---
    CosimCounters &ctr = result.counters;
    ctr.cycles = result.cycles;
    ctr.instructions = instructions;
    ctr.throttledCycles = throttled;
    ctr.kernelLaunches = kernelsLaunched;
    for (int sm = 0; sm < config::numSMs; ++sm) {
        ctr.fakeInstructions += gpu.sm(sm).fakeIssuedTotal();
        const SmStats smStats = gpu.sm(sm).stats();
        for (std::uint64_t events : smStats.gateEvents)
            ctr.gateEvents += events;
    }
    ctr.memAccesses = gpu.memory().accesses();
    ctr.l1Hits = gpu.memory().l1Hits();
    ctr.l2Hits = gpu.memory().l2Hits();
    ctr.dramAccesses = gpu.memory().dramAccesses();
    ctr.timesteps = tr->steps();
    ctr.luFactorizations = tr->luBuilds();
    ctr.sparseNnz = tr->patternNnz();
    ctr.sparseSymbolicReuses = tr->usedCachedPattern() ? 1 : 0;
    ctr.sparseRefactorizations = tr->refactorizations();
    if (controller) {
        ctr.ctlDecisions = controller->totalDecisions();
        ctr.ctlTriggered = controller->triggeredDecisions();
        ctr.detectorTrips = controller->detectorTrips();
        ctr.diwsEngagements = controller->diwsEngagements();
        ctr.fiiEngagements = controller->fiiEngagements();
        ctr.dccEngagements = controller->dccEngagements();
    }
    if (dfs_)
        ctr.dfsTransitions = dfs_->transitions() - dfsBase;
    if (pg_) {
        ctr.pgGateRequests = pg_->gateRequests() - pgReqBase;
        ctr.pgVetoSkips = pg_->vetoSkips() - pgVetoBase;
    }
    if (hypervisor_) {
        ctr.hvFreqRemaps = hypervisor_->freqRemaps() - hvFreqBase;
        ctr.hvGatingDenials =
            hypervisor_->gatingDenials() - hvGateBase;
    }

    if (wave) {
        result.wave = wave;
        result.waveSim = tr;
        result.waveSetup = setup;
    }
    if (series)
        result.timeSeries = series->finish();
    if (profile) {
        const std::int64_t endNs = obs::profileNowNs();
        profile->stages[obs::StageFinalize].add(
            static_cast<std::uint64_t>(endNs - finalizeStartNs));
        profile->wallNs +=
            static_cast<std::uint64_t>(endNs - runStartNs);
        result.profile = profile;
    }
    return result;
}

} // namespace vsgpu
