/**
 * @file
 * The VS-aware power-management hypervisor (paper Algorithm 2).
 *
 * Sits between higher-level power optimizers (DFS, PG) and the GPU:
 * it remaps their per-SM commands so that the frequency and gated-
 * leakage spread *within each stacking column* stays inside a power-
 * imbalance budget, because imbalanced commands would translate
 * directly into layer current imbalance the CR-IVR/smoothing layer
 * must then absorb.  The budget adapts to observed voltage-smoothing
 * throttle pressure: when smoothing is busy, the hypervisor tightens
 * the allowed spread.  PowerManager is the co-simulation stage that
 * steps DFS and PG and routes their commands through it.
 */

#ifndef VSGPU_HYPERVISOR_VS_HYPERVISOR_HH
#define VSGPU_HYPERVISOR_VS_HYPERVISOR_HH

#include <array>
#include <cstdint>

#include "common/units.hh"
#include "gpu/exec_unit.hh"

namespace vsgpu
{

class DfsGovernor;
class Gpu;
class PgGovernor;

/** Hypervisor configuration. */
struct HypervisorConfig
{
    /** Initial max frequency spread within a stacking column. */
    Hertz freqThresholdHz = 100.0_MHz;

    /** Initial max gated-leakage spread within a column. */
    Watts leakThresholdW = 0.40_W;

    /** Bounds for the adaptive budget. */
    Hertz freqThresholdMinHz = 50.0_MHz;
    Hertz freqThresholdMaxHz = 400.0_MHz;
    Watts leakThresholdMinW = 0.15_W;
    Watts leakThresholdMaxW = 1.2_W;

    /** Throttle-rate setpoint driving the adaptation. */
    double throttleSetpoint = 0.05;

    /** Frequency quantization step for remapped commands. */
    Hertz stepHz = 50.0_MHz;
};

/** Per-SM gating permissions emitted by the hypervisor. */
using GatingPlan =
    std::array<std::array<bool, numExecUnits>, config::numSMs>;

/**
 * Algorithm 2: command mapping for DFS and PG requests.
 */
class VsAwareHypervisor
{
  public:
    explicit VsAwareHypervisor(const HypervisorConfig &cfg = {});

    /**
     * Remap requested per-SM frequencies so each stacking column's
     * spread stays within the current budget (low outliers are pulled
     * up toward the column maximum).
     */
    std::array<Hertz, config::numSMs>
    filterFrequencies(std::array<Hertz, config::numSMs> requested)
        const;

    /**
     * Remap a gating request: permits gating only while the resulting
     * gated-leakage spread within each column stays inside the
     * budget.
     *
     * @param requested  per-(SM, unit) gating wishes.
     * @param unitLeakW  leakage saved by gating each unit kind.
     */
    GatingPlan
    filterGating(const GatingPlan &requested,
                 const std::array<Watts, numExecUnits> &unitLeakW)
        const;

    /**
     * One power-gating policy tick: wish to gate every block that is
     * gated now or idle past @p pg's detect window, admit the wishes
     * filterGating() allows, veto the rest in @p pg, and wake any
     * denied block that is already gated.
     *
     * @param wakeLatency wake-up cycles of a block ungated here.
     */
    void gate(Gpu &gpu, PgGovernor &pg, Cycle now,
              const std::array<Watts, numExecUnits> &unitLeakW,
              Cycle wakeLatency) const;

    /**
     * Adapt the budgets from the observed voltage-smoothing throttle
     * rate (fraction of cycles affected by smoothing).
     */
    void feedback(double throttleRate);

    /** @return current frequency budget. */
    Hertz freqThresholdHz() const { return freqThresholdHz_; }

    /** @return current leakage budget. */
    Watts leakThresholdW() const { return leakThresholdW_; }

    /** @return DFS requests pulled up to the column budget. */
    std::uint64_t freqRemaps() const { return freqRemaps_; }

    /** @return gating requests denied by the imbalance budget. */
    std::uint64_t gatingDenials() const { return gatingDenials_; }

  private:
    HypervisorConfig cfg_;
    Hertz freqThresholdHz_;
    Watts leakThresholdW_;

    // The filter methods are logically const (pure command
    // remapping); the counters only observe how often they act.
    mutable std::uint64_t freqRemaps_ = 0;
    mutable std::uint64_t gatingDenials_ = 0;
};

/** What the attached optimizers did. */
struct PowerManagerCounts
{
    std::uint64_t dfsTransitions = 0;
    std::uint64_t pgGateRequests = 0;
    std::uint64_t pgVetoSkips = 0;
    std::uint64_t hvFreqRemaps = 0;
    std::uint64_t hvGatingDenials = 0;
};

/**
 * Drives the attached optimizers through one run.  Any of them may
 * be null; the hypervisor must be null on single-layer PDSs, which
 * it does not filter.  The optimizers are long-lived and may serve
 * several runs, so counts() reports this run's share.
 */
class PowerManager
{
  public:
    PowerManager(DfsGovernor *dfs, PgGovernor *pg, VsAwareHypervisor *hv,
                 const std::array<Watts, numExecUnits> &unitLeakW,
                 Cycle wakeLatency);

    /**
     * One cycle: step DFS and apply its (filtered) requests to the SM
     * clocks; step PG, with a hypervisor gating pass every 512
     * cycles; and every 4096 cycles feed the smoothing throttle rate
     * back into the hypervisor's budget.
     */
    void step(Gpu &gpu, Cycle now);

    /** @return what the optimizers did since construction. */
    PowerManagerCounts counts() const;

  private:
    DfsGovernor *dfs_;
    PgGovernor *pg_;
    VsAwareHypervisor *hv_;
    std::array<Watts, numExecUnits> unitLeakW_;
    Cycle wakeLatency_;
    PowerManagerCounts base_{};
    Cycle lastGating_ = 0;
    std::uint64_t lastThrottled_ = 0;
};

} // namespace vsgpu

#endif // VSGPU_HYPERVISOR_VS_HYPERVISOR_HH
