/**
 * @file
 * The integrated hybrid co-simulator (paper Section V).  Every clock
 * cycle runs one stage list: GPU step, per-SM power and P -> I
 * coupling, PDS circuit step, observe, smoothing control, power
 * management (PowerManager), bookkeeping (sim/bookkeeping.hh).  The
 * stages read the PDS through the per-SM table of sim/pds_setup.hh,
 * and every observation channel sits on one CycleObserver list
 * (sim/observers.hh) that never feeds back into the run.
 */

#ifndef VSGPU_SIM_COSIM_HH
#define VSGPU_SIM_COSIM_HH

#include <memory>
#include <vector>

#include "gpu/gpu.hh"
#include "pdn/params.hh"
#include "hypervisor/dfs.hh"
#include "hypervisor/pg.hh"
#include "hypervisor/vs_hypervisor.hh"
#include "power/power_model.hh"
#include "sim/metrics.hh"
#include "sim/pds.hh"
#include "workloads/generator.hh"

namespace vsgpu
{

struct PdsSetup;

/** Co-simulation configuration. */
struct CosimConfig
{
    PdsOptions pds = defaultPds(PdsKind::VsCrossLayer);
    GpuConfig gpu;
    EnergyParams energy;
    PdnParams pdn = defaultPdnParams();

    /** Hard cap on simulated cycles. */
    Cycle maxCycles = 200000;

    /** Record a TraceSample every this many cycles (0 = off). */
    int traceStride = 0;

    /**
     * Capture per-SM rail-voltage waveforms every this many cycles
     * into result.wave (0 = off; see circuit/wave_writer.hh and the
     * vsgpu_cli --wave-out flag).  Observability only: not part of
     * pdsSetupKey() and never feeds back into the run.
     */
    int waveStride = 0;

    /**
     * Sample windowed time-series telemetry every this many
     * *simulated* seconds into result.timeSeries (<= 0 disables; see
     * obs/timeseries.hh).  The cadence derives from simulated time
     * only, so dumps are bitwise identical across --jobs counts.
     * Observability only: not part of pdsSetupKey() and never feeds
     * back into the run.
     */
    Seconds sampleEvery{0.0};

    /** Worst-case scenario: halt one layer's SMs ("manually turn
     *  off", paper Fig. 9, at 3 us) from this time on (< 0 disables).
     *  Halted SMs stop issuing but keep clock-tree and leakage power,
     *  like an SM idled by the driver. */
    Seconds gateLayerAtSec{-1.0};
    int gatedLayer = 0;
    Watts gatedLayerWatts{2.6};

    /** Averaging window for the imbalance histogram (cycles).
     *  Short enough to see burst imbalance, long enough to skip
     *  single-cycle issue jitter the decaps absorb entirely. */
    int imbalanceWindow = 16;

    /**
     * Remote-sense / load-line regulation for the single-layer
     * configurations: the VRM slowly servos its output so the mean
     * die rail sits at the nominal 1 V across load levels (adaptive
     * voltage positioning; paper Section II-C's answer to static
     * IR drop).  Disabled for the voltage-stacked configurations,
     * which have no per-layer regulator to servo.
     */
    bool vrmRemoteSense = true;

    /** Remote-sense integrator gain (volts per volt-cycle). */
    double remoteSenseGain = 0.002;

    /**
     * Run the static model verifier (netlist ERC + numeric audit
     * before the DC solve, control-loop audit before closing the
     * smoothing loop) and fail fast on any Error-severity finding.
     * The vsgpu_cli --no-verify flag clears this; fault-injection
     * studies that build deliberately broken models should too.
     * Not part of pdsSetupKey(): verification never changes results.
     */
    bool verifyModel = true;

    /**
     * Optional shared electrical setup (pre-built PDN + DC operating
     * point, see sim/pds_setup.hh).  When set it must have been
     * built for an electrically identical configuration
     * (pdsSetupKey() match is enforced); when null the simulator
     * builds its own.  Results are bitwise-identical either way —
     * sharing only removes redundant setup work from sweeps.
     */
    std::shared_ptr<const PdsSetup> setup;
};

/**
 * Runs workloads against one PDS configuration.
 */
class CoSimulator
{
  public:
    explicit CoSimulator(const CosimConfig &cfg = {}) : cfg_(cfg) {}

    /** Attach an optional DFS governor (non-owning). */
    void attachDfs(DfsGovernor *dfs) { dfs_ = dfs; }

    /** Attach an optional PG governor (non-owning).  Remember to set
     *  cfg.gpu.sm.scheduler = SchedulerKind::Gates for GATES. */
    void attachPg(PgGovernor *pg) { pg_ = pg; }

    /** Attach the VS-aware hypervisor (non-owning; filters DFS/PG on
     *  voltage-stacked configurations). */
    void attachHypervisor(VsAwareHypervisor *hv) { hypervisor_ = hv; }

    /** Run a workload described by a spec (builds the factory and
     *  applies its L1 hit rate). */
    CosimResult run(const WorkloadSpec &workload);

    /** Run with an explicit program factory. */
    CosimResult run(const ProgramFactory &factory, double l1HitRate);

    /**
     * Run a sequence of kernels back to back on one PDS instance.
     * Each kernel launch naturally resynchronizes the SMs (all SMs
     * drain before the next launch), exactly like successive kernel
     * launches on a real GPU; electrical and controller state carry
     * across the boundaries.  Metrics aggregate over the sequence.
     */
    CosimResult runSequence(const std::vector<WorkloadSpec> &kernels);

    /** @return the configuration. */
    const CosimConfig &config() const { return cfg_; }

  private:
    CosimResult runImpl(
        const std::vector<const ProgramFactory *> &kernels,
        const std::vector<double> &l1HitRates);

    CosimConfig cfg_;
    DfsGovernor *dfs_ = nullptr;
    PgGovernor *pg_ = nullptr;
    VsAwareHypervisor *hypervisor_ = nullptr;
};

} // namespace vsgpu

#endif // VSGPU_SIM_COSIM_HH
