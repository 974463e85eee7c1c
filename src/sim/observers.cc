#include "sim/observers.hh"

#include <optional>
#include <string>

#include "circuit/wave_writer.hh"
#include "control/controller.hh"
#include "obs/flight_recorder.hh"
#include "obs/manifest.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "pdn/vs_pdn.hh"
#include "sim/pds_setup.hh"

namespace vsgpu
{

namespace
{

/** Every traceStride-th cycle: min/max and one rail per layer. */
class TraceSampler final : public CycleObserver
{
  public:
    explicit TraceSampler(int stride) : stride_(stride) {}

    void
    observe(const CycleView &v) override
    {
        if (v.cycle % stride_ != 0)
            return;
        TraceSample &s = samples_.emplace_back();
        s.timeSec = Seconds{v.sim.time()};
        s.minSmVolts = Volts{v.railMin};
        s.maxSmVolts = Volts{v.railMax};
        for (int layer = 0; layer < config::numLayers; ++layer)
            s.layerVolts[static_cast<std::size_t>(layer)] =
                v.rails[static_cast<std::size_t>(VsPdn::smAt(layer, 0))];
    }

    void
    finish(const CycleView &, CosimResult &result) override
    {
        result.trace = std::move(samples_);
    }

  private:
    Cycle stride_;
    std::vector<TraceSample> samples_;
};

/** Per-SM rail waveforms (result.wave). */
class WaveCapture final : public CycleObserver
{
  public:
    WaveCapture(const PdsSetup &setup, const TransientSim &sim,
                int stride)
        : wave_(std::make_shared<WaveWriter>(stride))
    {
        for (std::size_t sm = 0; sm < config::numSMs; ++sm)
            wave_->addSignal(sim, "sm" + std::to_string(sm) + "_rail",
                             setup.rails[sm].top, setup.rails[sm].bottom);
    }

    void observe(const CycleView &v) override { wave_->sample(v.sim); }

    void
    finish(const CycleView &, CosimResult &result) override
    {
        result.wave = wave_;
    }

  private:
    std::shared_ptr<WaveWriter> wave_;
};

/** Windowed time-series telemetry (result.timeSeries). */
class SeriesRecorder final : public CycleObserver
{
  public:
    SeriesRecorder(const CosimConfig &cfg, bool smoothing, bool dfs,
                   bool pg)
        : series_(config::clockPeriod.rawEscape(), cfg.sampleEvery.rawEscape()), // the recorder takes plain doubles
          vThreshold_(cfg.pds.controller.vThreshold.rawEscape()) // margin channel of plain-double rails
    {
        const auto add = [this](const std::string &name,
                                const char *unit, const std::string &desc) {
            return series_.addChannel(name, unit, desc);
        };
        // Dense channels record every cycle, the rest on the
        // recorder's deterministic sampling stride.
        railMin_ = add("rail.min", "V", "minimum SM rail voltage this cycle");
        railMax_ = add("rail.max", "V", "maximum SM rail voltage this cycle");
        for (int sm = 0; sm < config::numSMs; ++sm)
            railSm_[static_cast<std::size_t>(sm)] =
                add("rail.sm" + std::to_string(sm), "V",
                    "rail voltage of SM " + std::to_string(sm));
        powerLoad_ = add("power.load", "W", "total SM load power");
        luBuilds_ = add("circuit.lu_builds", "count",
                        "cumulative LU factorizations built");
        if (smoothing) {
            ctlMargin_ = add("ctl.margin", "V",
                             "min rail voltage minus trigger threshold");
            ctlTriggered_ = add("ctl.triggered", "count",
                                "cumulative triggered control decisions");
        }
        if (dfs)
            dfsFreq_ = add("hv.dfs_freq", "frac",
                           "mean requested SM frequency fraction");
        if (pg)
            pgGated_ = add("hv.gated_units", "units",
                           "execution units currently power-gated");
    }

    void
    observe(const CycleView &v) override
    {
        series_.recordDense(railMin_, v.railMin);
        series_.recordDense(railMax_, v.railMax);
        if (series_.sampleThisCycle())
            sample(v);
        series_.endCycle();
    }

    void
    finish(const CycleView &, CosimResult &result) override
    {
        result.timeSeries = series_.finish();
    }

  private:
    void
    sample(const CycleView &v)
    {
        for (std::size_t sm = 0; sm < config::numSMs; ++sm)
            series_.record(railSm_[sm], v.rails[sm]);
        series_.record(powerLoad_, v.load);
        series_.record(luBuilds_, static_cast<double>(v.sim.luBuilds()));
        if (ctlMargin_ >= 0) {
            series_.record(ctlMargin_, v.railMin - vThreshold_);
            series_.record(ctlTriggered_,
                           static_cast<double>(
                               v.controller->triggeredDecisions()));
        }
        if (dfsFreq_ >= 0) {
            double frac = 0.0;
            for (Hertz hz : v.dfs->requested())
                frac += hz / config::smClockHz;
            series_.record(dfsFreq_,
                           frac / static_cast<double>(config::numSMs));
        }
        if (pgGated_ >= 0) {
            int gated = 0;
            for (int sm = 0; sm < config::numSMs; ++sm)
                for (int u = 0; u < numExecUnits; ++u)
                    gated += v.gpu.sm(sm)
                                 .unit(static_cast<ExecUnitKind>(u))
                                 .gated(v.cycle);
            series_.record(pgGated_, static_cast<double>(gated));
        }
    }

    obs::TimeSeriesRecorder series_;
    double vThreshold_;
    std::array<int, config::numSMs> railSm_{};
    int railMin_, railMax_, powerLoad_, luBuilds_;
    int ctlMargin_ = -1;
    int ctlTriggered_ = -1;
    int dfsFreq_ = -1;
    int pgGated_ = -1;
};

/** Kernel launches and per-cycle rail extremes into this thread's
 *  flight recorder, whose crash dump it arms for its own lifetime. */
class FlightLog final : public CycleObserver
{
  public:
    FlightLog(const CosimConfig &cfg, const PdsSetup &setup)
    {
        obs::installFlightRecorderCrashDump();
        flight_.beginRun(pdsName(cfg.pds.kind),
                         obs::fnv1a64Hex(setup.key));
    }

    ~FlightLog() override { flight_.endRun(); }
    FlightLog(const FlightLog &) = delete;
    FlightLog &operator=(const FlightLog &) = delete;

    void
    kernelLaunched(std::size_t index, const CycleView &v) override
    {
        flight_.record("kernel.launch", v.sim.time(), v.gpu.cycle(),
                       static_cast<double>(index), 0.0);
    }

    void
    observe(const CycleView &v) override
    {
        flight_.record("rail", v.sim.time(), v.cycle, v.railMin,
                       v.railMax);
    }

  private:
    obs::FlightRecorder &flight_ = obs::FlightRecorder::instance();
};

/**
 * Tracer channel: a span per kernel, its transient work as
 * fixed-size chunk spans (so long runs show up as a sequence of
 * spans, not one opaque box), and an instant for each cycle in which
 * the controller triggered, DFS changed a step, or the hypervisor
 * denied a gating request.  The instants come from counter deltas
 * between observe points; finish() catches the last cycle's.
 */
class TracerChannel final : public CycleObserver
{
  public:
    static constexpr Cycle chunkCycles = 16384;

    TracerChannel(const DfsGovernor *dfs, const VsAwareHypervisor *hv)
        : lastDfs_(dfs ? dfs->transitions() : 0),
          lastDenials_(hv ? hv->gatingDenials() : 0) {}

    void
    kernelLaunched(std::size_t index, const CycleView &v) override
    {
        closeKernel(v);
        kernel_.emplace(obs::CatPhase, "cosim.kernel");
        if (kernel_->live())
            kernel_->setArg("kernel", std::to_string(index));
        chunkStartCycle_ = v.gpu.cycle();
        chunkStartUs_ = phases_ ? obs::Tracer::instance().nowUs() : 0.0;
    }

    void
    observe(const CycleView &v) override
    {
        if (phases_ && v.gpu.cycle() - chunkStartCycle_ >= chunkCycles)
            emitChunk(v.gpu.cycle());
        instant(v.controller, lastTriggered_, obs::CatCtl,
                "ctl.trigger", &SmoothingController::triggeredDecisions);
        instant(v.dfs, lastDfs_, obs::CatHv, "dfs.transition",
                &DfsGovernor::transitions);
        instant(v.hypervisor, lastDenials_, obs::CatHv,
                "hv.gating_denial", &VsAwareHypervisor::gatingDenials);
    }

    void
    finish(const CycleView &v, CosimResult &) override
    {
        observe(v);
        closeKernel(v);
    }

  private:
    /** One instant when @p source's counter moved since last time. */
    template <typename Source>
    static void
    instant(const Source *source, std::uint64_t &last,
            std::uint32_t cat, const char *name,
            std::uint64_t (Source::*counter)() const)
    {
        if (!source)
            return;
        const std::uint64_t n = (source->*counter)();
        if (n > last)
            VSGPU_TRACE_INSTANT(cat, name);
        last = n;
    }

    void
    closeKernel(const CycleView &v)
    {
        if (phases_ && kernel_ && v.gpu.cycle() > chunkStartCycle_)
            emitChunk(v.gpu.cycle());
        kernel_.reset();
    }

    void
    emitChunk(Cycle upTo)
    {
        obs::Tracer &tracer = obs::Tracer::instance();
        const double nowUs = tracer.nowUs();
        tracer.complete(
            obs::CatPhase, "cosim.transient_chunk", chunkStartUs_,
            nowUs - chunkStartUs_,
            {{"start_cycle", std::to_string(chunkStartCycle_)},
             {"cycles", std::to_string(upTo - chunkStartCycle_)}});
        chunkStartUs_ = nowUs;
        chunkStartCycle_ = upTo;
    }

    const bool phases_ = obs::Tracer::enabledFor(obs::CatPhase);
    std::optional<obs::ScopedSpan> kernel_;
    Cycle chunkStartCycle_ = 0;
    double chunkStartUs_ = 0.0;
    std::uint64_t lastTriggered_ = 0;
    std::uint64_t lastDfs_;
    std::uint64_t lastDenials_;
};

} // namespace

CycleObservers
makeObservers(const CosimConfig &cfg, const PdsSetup &setup,
              const TransientSim &sim, bool smoothing,
              const DfsGovernor *dfs, const PgGovernor *pg,
              const VsAwareHypervisor *hypervisor)
{
    CycleObservers observers;
    if (obs::flightRecorderEnabled())
        observers.push_back(std::make_unique<FlightLog>(cfg, setup));
    if (cfg.traceStride > 0)
        observers.push_back(
            std::make_unique<TraceSampler>(cfg.traceStride));
    if (cfg.sampleEvery > Seconds{})
        observers.push_back(std::make_unique<SeriesRecorder>(
            cfg, smoothing, dfs != nullptr, pg != nullptr));
    if (cfg.waveStride > 0)
        observers.push_back(
            std::make_unique<WaveCapture>(setup, sim, cfg.waveStride));
    if (obs::Tracer::enabledFor(obs::CatPhase | obs::CatCtl | obs::CatHv))
        observers.push_back(
            std::make_unique<TracerChannel>(dfs, hypervisor));
    return observers;
}

} // namespace vsgpu
