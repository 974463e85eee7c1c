/**
 * @file
 * Per-cycle SM power evaluation (the GPUWattch role in the paper's
 * hybrid infrastructure): converts one cycle's micro-architectural
 * events into watts that the PDN co-simulation consumes.
 */

#ifndef VSGPU_POWER_POWER_MODEL_HH
#define VSGPU_POWER_POWER_MODEL_HH

#include <array>
#include <cstddef>

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
     * @return cyclePower() of a cycle with no real or fake issue:
     * clock-tree power if @p clockRuns, plus the leakage of the
     * blocks outside @p gatedMask (Sm::gatedMask).
     */
    Watts
    idlePower(bool clockRuns, unsigned gatedMask) const
    {
        return idlePower_[clockRuns ? 1 : 0][gatedMask];
    }

    /** @return the parameter set. */
    const EnergyParams &params() const { return params_; }

    /** @return nominal peak SM power implied by the parameters. */
    Watts peakPower() const;

  private:
    static constexpr std::size_t numGatedMasks = 1u << numExecUnits;

    EnergyParams params_;
    /** leakagePower() per Sm::gatedMask, summed in block order. */
    std::array<Watts, numGatedMasks> leakage_{};
    /** idlePower() per clock state and Sm::gatedMask. */
    std::array<std::array<Watts, numGatedMasks>, 2> idlePower_{};
};

} // namespace vsgpu

#endif // VSGPU_POWER_POWER_MODEL_HH
