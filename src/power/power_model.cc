#include "power/power_model.hh"

#include "common/units.hh"

namespace vsgpu
{

SmPowerModel::SmPowerModel(const EnergyParams &params)
    : params_(params)
{
    for (std::size_t mask = 0; mask < numGatedMasks; ++mask) {
        Watts watts = params_.baseLeakage;
        for (std::size_t u = 0; u < params_.unitLeakage.size(); ++u) {
            if (((mask >> u) & 1u) == 0)
                watts += params_.unitLeakage[u];
        }
        leakage_[mask] = watts;
        // An idle cycle's full sum: 0 J over the period is +0.0, and
        // +0.0 plus a positive power is that power, bit for bit.
        idlePower_[0][mask] = Watts{} + watts;
        idlePower_[1][mask] = params_.clockPower + watts;
    }
}

Joules
SmPowerModel::dynamicEnergy(const SmCycleEvents &events) const
{
    Joules joules{};
    double avgLanes = 1.0;
    const int total = events.totalIssued();
    if (total > 0) {
        avgLanes = static_cast<double>(events.lanesActive) /
                   (static_cast<double>(total) *
                    static_cast<double>(config::threadsPerWarp));
    }
    const double laneScale =
        (1.0 - params_.laneFraction) + params_.laneFraction * avgLanes;

    for (int op = 0; op < numOpClasses; ++op) {
        const int n = events.issued[static_cast<std::size_t>(op)];
        if (n == 0)
            continue;
        joules += static_cast<double>(n) *
                  (params_.opEnergy[static_cast<std::size_t>(op)] *
                       laneScale +
                   params_.issueEnergy);
    }
    joules += static_cast<double>(events.fakeIssued) *
              params_.fakeEnergy;
    return joules;
}

Watts
SmPowerModel::leakagePower(const Sm &sm, Cycle now) const
{
    return leakage_[sm.gatedMask(now)];
}

Watts
SmPowerModel::cyclePower(const SmCycleEvents &events, const Sm &sm,
                         Cycle now) const
{
    const bool clockRuns = events.clocked && events.active;
    const unsigned gated = sm.gatedMask(now);
    if (events.totalIssued() == 0 && events.fakeIssued == 0)
        return idlePower(clockRuns, gated);
    Watts watts = dynamicEnergy(events) / config::clockPeriod;
    if (clockRuns)
        watts += params_.clockPower;
    watts += leakage_[gated];
    return watts;
}

Watts
SmPowerModel::peakPower() const
{
    // Two FP instructions per cycle at full lanes plus clock and
    // un-gated leakage.
    Watts leak = params_.baseLeakage;
    for (Watts l : params_.unitLeakage)
        leak += l;
    const Watts dyn =
        2.0 * (params_.opEnergy[static_cast<std::size_t>(
                   OpClass::FpAlu)] +
               params_.issueEnergy) /
        config::clockPeriod;
    return dyn + params_.clockPower + leak;
}

} // namespace vsgpu
