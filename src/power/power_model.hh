/**
 * @file
 * Per-cycle SM power evaluation (the GPUWattch role in the paper's
 * hybrid infrastructure): converts one cycle's micro-architectural
 * events into watts that the PDN co-simulation consumes.
 */

#ifndef VSGPU_POWER_POWER_MODEL_HH
#define VSGPU_POWER_POWER_MODEL_HH

#include "power/energy_model.hh"

namespace vsgpu
{

/**
 * Stateless evaluator of SM power from cycle events.
 */
class SmPowerModel
{
  public:
    explicit SmPowerModel(const EnergyParams &params = {});

    /** @return dynamic energy of one cycle's events. */
    Joules dynamicEnergy(const SmCycleEvents &events) const;

    /**
     * @return leakage power of an SM given its gating state.
     * @param now current cycle (gating is time-dependent).
     */
    Watts leakagePower(const Sm &sm, Cycle now) const;

    /**
     * @return total SM power for one cycle: dynamic energy over
     * the clock period, clock-tree power when clocked, and leakage.
     */
    Watts cyclePower(const SmCycleEvents &events, const Sm &sm,
                     Cycle now) const;

    /**
     * @return cyclePower() of a stalled cycle (Sm::stalledCycle) on
     * an SM with no gated block: clock-tree power plus every block's
     * leakage.
     */
    Watts stalledPower() const
    {
        return params_.clockPower + allUngatedLeakage_;
    }

    /** @return the parameter set. */
    const EnergyParams &params() const { return params_; }

    /** @return nominal peak SM power implied by the parameters. */
    Watts peakPower() const;

  private:
    EnergyParams params_;
    /** leakagePower() with no block gated, summed in its order. */
    Watts allUngatedLeakage_;
};

} // namespace vsgpu

#endif // VSGPU_POWER_POWER_MODEL_HH
