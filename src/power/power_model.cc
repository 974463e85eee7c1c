#include "power/power_model.hh"

#include "common/units.hh"

namespace vsgpu
{

SmPowerModel::SmPowerModel(const EnergyParams &params)
    : params_(params), allUngatedLeakage_(params_.baseLeakage)
{
    for (Watts l : params_.unitLeakage)
        allUngatedLeakage_ += l;
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
    Watts watts = params_.baseLeakage;
    for (int u = 0; u < numExecUnits; ++u) {
        const auto kind = static_cast<ExecUnitKind>(u);
        if (!sm.unit(kind).gated(now))
            watts += params_.unitLeakage[static_cast<std::size_t>(u)];
    }
    return watts;
}

Watts
SmPowerModel::cyclePower(const SmCycleEvents &events, const Sm &sm,
                         Cycle now) const
{
    const bool clockRuns = events.clocked && events.active;
    if (events.totalIssued() == 0 && events.fakeIssued == 0 &&
        !sm.anyGated(now)) {
        // No dynamic energy: the full sum below starts from 0 J over
        // the period, +0.0, so skipping it leaves the same bits.
        return (clockRuns ? params_.clockPower : Watts{}) +
               allUngatedLeakage_;
    }
    Watts watts = dynamicEnergy(events) / config::clockPeriod;
    if (clockRuns)
        watts += params_.clockPower;
    watts += leakagePower(sm, now);
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
