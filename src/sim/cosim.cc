#include "sim/cosim.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hh"
#include "common/logging.hh"
#include "control/controller.hh"
#include "obs/profile.hh"
#include "obs/trace.hh"
#include "pdn/vs_pdn.hh"
#include "sim/bookkeeping.hh"
#include "sim/model_verify.hh"
#include "sim/observers.hh"
#include "sim/pds_setup.hh"
#include "sim/stats_export.hh"

namespace vsgpu
{

namespace
{

bool
smoothingOn(const CosimConfig &cfg)
{
    return cfg.pds.kind == PdsKind::VsCrossLayer &&
           cfg.pds.smoothingEnabled;
}

/** The smoothing controller of a cross-layer run, else null.  A
 *  static audit first rejects loops that cannot work at all
 *  (dead-band wider than the trigger margin, non-positive period);
 *  its stability *warnings* are expected for the paper's nonlinear
 *  gain, so they are kept in @p audit for the golden replay to hold
 *  to its reviewed list. */
std::unique_ptr<SmoothingController>
makeController(const CosimConfig &cfg, ModelAudit &audit)
{
    if (!smoothingOn(cfg))
        return nullptr;
    if (cfg.verifyModel) {
        audit = {cfg.pds.kind, cfg.pds.ivrAreaFraction,
                 verifyControlModel(cfg)};
        if (audit.report.hasErrors()) {
            fatal("control-model verification failed (see "
                  "docs/model_verification.md, or set verifyModel = "
                  "false to bypass):\n", verify::formatReport(audit.report));
        }
    }
    return std::make_unique<SmoothingController>(cfg.pds.controller);
}

/**
 * One run: its state, and the per-cycle stages over it.  The stages
 * read the PDS only through the setup's per-SM table, the loss split
 * is chosen once by the Bookkeeper, and the hypervisor is null on
 * single-layer PDSs, so no stage asks which PDS it drives.
 */
class CosimRun
{
  public:
    CosimRun(const CosimConfig &cfg,
             std::shared_ptr<const PdsSetup> setup, DfsGovernor *dfs,
             PgGovernor *pg, VsAwareHypervisor *hv,
             obs::StageTimer &timer)
        : cfg_(cfg), setup_(std::move(setup)), timer_(timer),
          gpu_(cfg.gpu), powerModel_(cfg.energy),
          tr_(setup_->netlist(), dt, defaultSolver(),
              setup_->mnaPattern),
          observers_(makeObservers(cfg, *setup_, tr_, smoothingOn(cfg),
                                   dfs, pg, hv)),
          controller_(makeController(cfg, controlAudit_)),
          book_(cfg, *setup_, controller_.get(),
                powerModel_.peakPower().raw()),
          manager_(dfs, pg, hv, cfg.energy.unitLeakage,
                   cfg.gpu.sm.pgWakeLatency),
          view_{gpu_, tr_, railNow_, controller_.get(), dfs, hv,
                0, 0.0, 0.0, 0.0}
    {
        tr_.attachProfiler(&timer_);
        tr_.initFromDc(setup_->dcNodeVolts);
        snapshotRails(); // cycle 0's coupling reads the DC point
        vSlow_.fill(setup_->nominalRail);
    }

    CosimRun(const CosimRun &) = delete; // view_ refers to members
    CosimRun &operator=(const CosimRun &) = delete;

    /** Launch a kernel and run it to completion or the cycle cap.
     *  @return false once the cycle budget is spent. */
    bool
    runKernel(std::size_t index, const ProgramFactory &kernel,
              double l1HitRate)
    {
        // Kernel-boundary resynchronization: the previous kernel has
        // fully drained every SM before this launch.
        gpu_.memory().setL1HitRate(l1HitRate);
        gpu_.launch(kernel);
        for (const auto &o : observers_)
            o->kernelLaunched(index, view_);
        while (!gpu_.done() && gpu_.cycle() < cfg_.maxCycles) {
            const Cycle now = gpu_.cycle();
            timer_.beginCycle();
            gpu_.step();
            timer_.mark(obs::StageGpu);
            power(now);
            timer_.mark(obs::StagePower);
            circuit();
            timer_.mark(obs::StageCircuit);
            observe(now);
            timer_.mark(obs::StageObserve);
            control();
            timer_.mark(obs::StageControl);
            manager_.step(gpu_, now);
            timer_.mark(obs::StageHypervisor);
            book_.book(tr_, load_, dt, result_.energy);
            timer_.mark(obs::StageBookkeeping);
            timer_.endCycle();
        }
        return gpu_.cycle() < cfg_.maxCycles;
    }

    /** Close the observers and reduce the run into its result. */
    CosimResult finish(std::size_t kernelsLaunched, bool allLaunched);

  private:
    static constexpr double dt = config::clockPeriod.raw();

    /** One rail snapshot per cycle, right after the circuit step.
     *  Observe, control and the next cycle's coupling all read it:
     *  nothing writes the solution in between (setSourceVolts only
     *  changes the next right-hand side). */
    void
    snapshotRails()
    {
        for (std::size_t sm = 0; sm < config::numSMs; ++sm)
            railNow_[sm] = tr_.nodeVoltage(setup_->rails[sm].top) -
                           tr_.nodeVoltage(setup_->rails[sm].bottom);
    }

    /**
     * Per-SM power from the event trace, then P -> I coupling.
     * Following the paper, each SM is a time-varying ideal current
     * source, I = P(t) / V_nominal; the linearized load conductance in
     * the netlist supplies the small positive dI/dV.  Below the
     * brown-out knee the current folds back linearly (logic stops
     * switching), so a collapsed rail cannot demand unbounded
     * current.  The conversion reads a slow-filtered rail: a load is
     * constant-power only on thermal timescales, and the
     * instantaneous voltage would create a -P/V^2 negative
     * conductance at the package resonance.
     */
    void
    power(Cycle now)
    {
        // The sums build in locals: stores into the per-SM arrays and
        // the solver may alias members, which would force every add
        // through memory.
        double total = 0.0;
        double fake = 0.0;
        for (int sm = 0; sm < config::numSMs; ++sm) {
            // A stalled or drained SM has no dynamic or fake energy,
            // so its power is the model's idle value for its gating.
            const bool stalled = gpu_.smStalled(sm);
            double watts = 0.0;
            if (stalled || gpu_.smDrained(sm)) {
                watts = powerModel_
                            .idlePower(stalled,
                                       gpu_.sm(sm).gatedMask(now))
                            .raw();
            } else {
                const auto &events = gpu_.smEvents(sm);
                watts = powerModel_.cyclePower(events, gpu_.sm(sm), now)
                            .raw();
                fake += static_cast<double>(events.fakeIssued) *
                        cfg_.energy.fakeEnergy.raw() / dt;
            }
            if (now >= gateLayerAt_ &&
                VsPdn::smLayer(sm) == cfg_.gatedLayer)
                watts = cfg_.gatedLayerWatts.raw();
            load_.sm[static_cast<std::size_t>(sm)] = watts;
            total += watts;
        }
        load_.total = total;
        load_.fake = fake;

        const double loadOhms = setup_->loadOhms.raw();
        const double nominalRail = setup_->nominalRail;
        const auto &rails = setup_->rails;
        double electrical = 0.0;
        double dccDrawn = 0.0;
        for (std::size_t sm = 0; sm < config::numSMs; ++sm) {
            const double rail = railNow_[sm];
            vSlow_[sm] += 0.01 * (rail - vSlow_[sm]); // ~100 cycles
            const double v = std::clamp(vSlow_[sm], 0.35, 1.6);
            const double knee = 0.6 * config::smVoltage.raw();
            const double foldback = std::clamp(v / knee, 0.0, 1.0);
            const double loadAmps =
                load_.sm[sm] / nominalRail * foldback - v / loadOhms;
            tr_.setCurrent(rails[sm].source, loadAmps + dccAmps_[sm]);
            // Book what the load draws electrically (source plus
            // linearized conductance), so load + losses = wall.
            electrical += rail * (loadAmps + rail / loadOhms);
            dccDrawn += rail * dccAmps_[sm];
        }
        load_.electrical = electrical;
        load_.dccDrawn = dccDrawn;
    }

    /** Advance the PDS one clock period; remote sense then servos
     *  the VRM so the average die rail tracks nominal. */
    void
    circuit()
    {
        tr_.step();
        snapshotRails();
        if (!remoteSense_)
            return;
        double railAvg = 0.0;
        for (double v : vSlow_)
            railAvg += v;
        railAvg /= static_cast<double>(config::numSMs);
        vrmSetVolts_ += cfg_.remoteSenseGain *
                        (config::smVoltage.raw() - railAvg);
        vrmSetVolts_ = std::clamp(vrmSetVolts_, 0.95, 1.15);
        tr_.setSourceVolts(setup_->regulatorSource, vrmSetVolts_);
    }

    /** Rail statistics (with the always-on NaN guard), the
     *  observers, and the imbalance window. */
    void
    observe(Cycle now)
    {
        const RailSummary rails = book_.rails(railNow_);
        // Min/max let NaN slip through, a finite sum cannot: abort
        // rather than integrate garbage; the flight recorder's crash
        // hook dumps the recent history.
        if (!std::isfinite(rails.sum)) {
            panic("PDS solve produced a non-finite rail voltage at "
                  "cycle ", now, " (t = ", tr_.time(),
                  " s); flight-recorder dump of recent history "
                  "follows");
        }
        view_.cycle = now;
        view_.railMin = rails.min;
        view_.railMax = rails.max;
        view_.load = load_.total;
        for (const auto &o : observers_)
            o->observe(view_);
        book_.imbalance(load_.sm);
    }

    /** The voltage-smoothing control loop. */
    void
    control()
    {
        if (!controller_)
            return;
        const CommandSet &commands = controller_->step(railNow_);
        for (int sm = 0; sm < config::numSMs; ++sm) {
            const auto &cmd = commands[static_cast<std::size_t>(sm)];
            gpu_.sm(sm).setIssueWidthLimit(cmd.issueWidth);
            gpu_.sm(sm).setFakeInjectRate(cmd.fakeRate);
            dccAmps_[static_cast<std::size_t>(sm)] = cmd.dccAmps.raw();
        }
    }

    const CosimConfig &cfg_;
    std::shared_ptr<const PdsSetup> setup_;
    obs::StageTimer &timer_;
    Gpu gpu_;
    SmPowerModel powerModel_;
    TransientSim tr_;
    std::array<double, config::numSMs> railNow_{};
    CycleObservers observers_;
    ModelAudit controlAudit_; // filled by makeController()
    std::unique_ptr<SmoothingController> controller_;
    Bookkeeper book_;
    PowerManager manager_;
    CycleView view_;

    const bool remoteSense_ =
        cfg_.vrmRemoteSense && setup_->regulatorSource >= 0;
    const Cycle gateLayerAt_ =
        cfg_.gateLayerAtSec >= Seconds{}
            ? static_cast<Cycle>(cfg_.gateLayerAtSec.raw() / dt)
            : std::numeric_limits<Cycle>::max();
    double vrmSetVolts_ = setup_->regulatorVolts.raw();
    CycleLoad load_;
    std::array<double, config::numSMs> vSlow_{};
    std::array<double, config::numSMs> dccAmps_{};
    CosimResult result_;
};

CosimResult
CosimRun::finish(std::size_t kernelsLaunched, bool allLaunched)
{
    for (const auto &o : observers_)
        o->finish(view_, result_);
    CosimResult &r = result_;
    CosimCounters &ctr = r.counters;
    collectCounters(gpu_, tr_, controller_.get(), ctr);
    ctr.kernelLaunches = kernelsLaunched;
    const PowerManagerCounts pm = manager_.counts();
    ctr.dfsTransitions = pm.dfsTransitions;
    ctr.pgGateRequests = pm.pgGateRequests;
    ctr.pgVetoSkips = pm.pgVetoSkips;
    ctr.hvFreqRemaps = pm.hvFreqRemaps;
    ctr.hvGatingDenials = pm.hvGatingDenials;

    book_.fill(r);
    r.controlAudit = std::move(controlAudit_);
    r.cycles = ctr.cycles;
    r.finished = gpu_.done() && allLaunched;
    r.instructions = ctr.instructions;
    r.throttleRate =
        r.cycles > 0 ? static_cast<double>(ctr.throttledCycles) /
                           (static_cast<double>(r.cycles) * config::numSMs)
                     : 0.0;
    if (ctr.ctlDecisions > 0)
        r.triggerRate = static_cast<double>(ctr.ctlTriggered) /
                        static_cast<double>(ctr.ctlDecisions);
    return std::move(result_);
}

} // namespace

CosimResult
CoSimulator::run(const WorkloadSpec &workload)
{
    return run(WorkloadFactory(workload), workload.l1HitRate);
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
    const std::vector<WorkloadFactory> factories(kernels.begin(),
                                                 kernels.end());
    std::vector<const ProgramFactory *> ptrs;
    std::vector<double> rates;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        ptrs.push_back(&factories[k]);
        rates.push_back(kernels[k].l1HitRate);
    }
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
    panicIfNot(cfg_.gateLayerAtSec < Seconds{} ||
                   (cfg_.gatedLayer >= 0 &&
                    cfg_.gatedLayer < config::numLayers),
               "gated layer ", cfg_.gatedLayer, " is outside [0, ",
               config::numLayers, ")");

    VSGPU_TRACE_SCOPE(obs::CatPhase, "cosim.run");
    obs::ScopedSpan setupSpan(obs::CatPhase, "cosim.setup");

    // Stage-cost profiling (obs/profile.hh; off by default).
    std::shared_ptr<obs::Profile> profile;
    std::int64_t runStartNs = 0;
    if (obs::profilingEnabled()) {
        profile = std::make_shared<obs::Profile>();
        profile->runs = 1;
        profile->strideCycles = obs::profilingStride();
        runStartNs = obs::profileNowNs();
    }
    obs::StageTimer timer(profile.get(),
                          profile ? profile->strideCycles : 1);

    // The hypervisor filters DFS/PG on voltage-stacked PDSs only.
    CosimRun run(cfg_, sharedPdsSetup(cfg_), dfs_, pg_,
                 isVoltageStacked(cfg_.pds.kind) ? hypervisor_
                                                 : nullptr,
                 timer);
    setupSpan.end();
    if (profile)
        profile->stages[obs::StageSetup].add(
            static_cast<std::uint64_t>(obs::profileNowNs() -
                                       runStartNs));

    std::size_t launched = 0;
    for (bool budgetLeft = true;
         budgetLeft && launched < kernels.size(); ++launched)
        budgetLeft = run.runKernel(launched, *kernels[launched],
                                   l1HitRates[launched]);

    const std::int64_t finalizeStartNs =
        profile ? obs::profileNowNs() : 0;
    CosimResult result =
        run.finish(launched, launched == kernels.size());
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
