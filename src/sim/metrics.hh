/**
 * @file
 * Result records of a co-simulation run: the quantities every paper
 * table and figure is built from.
 */

#ifndef VSGPU_SIM_METRICS_HH
#define VSGPU_SIM_METRICS_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/units.hh"
#include "sim/pds.hh"
#include "verify/verify.hh"

namespace vsgpu
{

class WaveWriter;

namespace obs
{
struct Profile;
struct TimeSeriesRun;
} // namespace obs

/**
 * Schedule-independent event counts of one run, for the obs stats
 * registry.  All integers: cross-task aggregation (add()) is exact,
 * commutative and associative, so a sweep's summed counters are
 * bitwise identical for --jobs 1 and --jobs N regardless of pool
 * scheduling (docs/parallel_exec.md).
 */
struct CosimCounters
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t fakeInstructions = 0;
    std::uint64_t throttledCycles = 0;
    std::uint64_t kernelLaunches = 0;

    // Memory system.
    std::uint64_t memAccesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t dramAccesses = 0;

    // Circuit engine (fixed-step linear solver: timesteps and LU
    // factorization builds are its cost counters).
    std::uint64_t timesteps = 0;
    std::uint64_t luFactorizations = 0;

    // Sparse MNA engine (docs/sparse_solver.md): structural nonzeros
    // of the assembly pattern, runs that reused a cached symbolic
    // pattern, and numeric refactorizations performed.
    std::uint64_t sparseNnz = 0;
    std::uint64_t sparseSymbolicReuses = 0;
    std::uint64_t sparseRefactorizations = 0;

    // Smoothing controller.
    std::uint64_t ctlDecisions = 0;
    std::uint64_t ctlTriggered = 0;
    std::uint64_t detectorTrips = 0;
    std::uint64_t diwsEngagements = 0;
    std::uint64_t fiiEngagements = 0;
    std::uint64_t dccEngagements = 0;

    // Hypervisor-level power management.
    std::uint64_t dfsTransitions = 0;
    std::uint64_t pgGateRequests = 0;
    std::uint64_t pgVetoSkips = 0;
    std::uint64_t gateEvents = 0;
    std::uint64_t hvFreqRemaps = 0;
    std::uint64_t hvGatingDenials = 0;

    /** Element-wise accumulate (exact integer sums). */
    void add(const CosimCounters &o);
};

/** Energy breakdown of one run (J). */
struct EnergyBreakdown
{
    double load = 0.0;       ///< delivered to SM loads (incl. fake)
    double fake = 0.0;       ///< part of load spent on FII
    double pdn = 0.0;        ///< resistive PDN loss
    double conversion = 0.0; ///< VRM / single-layer IVR loss
    double crIvr = 0.0;      ///< CR-IVR charge-transfer + switching
    double overhead = 0.0;   ///< detectors, controller, DCC, shifters
    double wall = 0.0;       ///< total drawn from the board supply

    /** @return power delivery efficiency: load / wall. */
    double
    pde() const
    {
        return wall > 0.0 ? load / wall : 0.0;
    }

    /** @return total PDS loss (everything that is not load). */
    double
    pdsLoss() const
    {
        return wall - load;
    }
};

/** One voltage-trace sample (for Fig. 9-style waveforms). */
struct TraceSample
{
    Seconds timeSec{};
    Volts minSmVolts{};
    Volts maxSmVolts{};
    std::array<double, config::numLayers> layerVolts{};
};

/** Static-audit findings (src/verify) kept from a setup or a run,
 *  with the PDS kind and CR-IVR area fraction they were computed on;
 *  the golden replay checks them (tests/golden/audit_findings.txt). */
struct ModelAudit
{
    PdsKind kind = PdsKind::VsCrossLayer;
    double ivrAreaFraction = 0.0;
    verify::Report report;
};

/** Complete result of a co-simulation run. */
struct CosimResult
{
    Cycle cycles = 0;               ///< execution time (core cycles)
    std::uint64_t instructions = 0; ///< real instructions retired
    bool finished = false;          ///< workload drained before cap

    EnergyBreakdown energy;

    /** Per-SM rail-voltage distribution (box data for Fig. 11). */
    std::array<BoxStats, config::numSMs> smNoise{};

    /** Pooled min/typical voltage stats across SMs. */
    double minVoltage = 0.0;
    double meanVoltage = 0.0;

    /** Fraction of cycles DIWS throttling was in effect. */
    double throttleRate = 0.0;

    /** Fraction of control decisions that triggered smoothing. */
    double triggerRate = 0.0;

    /** Vertical-pair current-imbalance distribution (Fig. 17 bins:
     *  0-10%, 10-20%, 20-40%, >40% of peak SM current). */
    std::array<double, 4> imbalanceBins{};

    /** Optional voltage trace (when tracing was enabled). */
    std::vector<TraceSample> trace;

    /** Event counts for the obs stats registry. */
    CosimCounters counters;

    /** The control-loop audit of the run's smoothing controller
     *  (empty without a controller or with verifyModel off). */
    ModelAudit controlAudit;

    /**
     * Optional full-resolution waveform capture (cfg.waveStride > 0):
     * per-SM rail voltages, dumpable as VCD or CSV.
     */
    std::shared_ptr<WaveWriter> wave;

    /**
     * Optional windowed time-series telemetry (cfg.sampleEvery > 0);
     * the label is assigned by the sweep frontend.  Deterministic:
     * identical across --jobs counts by construction.
     */
    std::shared_ptr<obs::TimeSeriesRun> timeSeries;

    /** Optional stage-cost profile (obs::profilingEnabled() during
     *  the run).  Wall-clock derived — never determinism-gated. */
    std::shared_ptr<obs::Profile> profile;

    /** @return average load power over the run (W). */
    double
    avgLoadPower() const
    {
        const double t = static_cast<double>(cycles) *
                         config::clockPeriod.rawEscape(); // plain-double stats surface
        return t > 0.0 ? energy.load / t : 0.0;
    }
};

} // namespace vsgpu

#endif // VSGPU_SIM_METRICS_HH
