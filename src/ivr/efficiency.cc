#include "ivr/efficiency.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "common/logging.hh"

namespace vsgpu
{

namespace
{

/**
 * Shared efficiency curve: peak efficiency at ~60% of rated power,
 * with quadratic degradation toward light load (fixed switching
 * losses dominate) and overload (conduction losses dominate).
 */
double
curve(double peak, Watts rated, Watts output)
{
    if (output <= Watts{})
        return peak * 0.5;
    const double x = output / rated;
    const double eff = peak - 0.08 * (x - 0.6) * (x - 0.6);
    return std::clamp(eff, 0.5, peak);
}

} // namespace
VrmModel::VrmModel(double peakEfficiency, Watts rated)
    : peak_(peakEfficiency), rated_(rated)
{
    VSGPU_REQUIRES(peak_ > 0.0 && peak_ < 1.0,
                   "VRM efficiency in (0,1)");
    VSGPU_REQUIRES(rated_ > Watts{}, "VRM rated power must be positive");
}

double
VrmModel::efficiency(Watts output) const
{
    return curve(peak_, rated_, output);
}

Watts
VrmModel::inputPower(Watts output) const
{
    return output / efficiency(output);
}

Watts
VrmModel::conversionLoss(Watts output) const
{
    return inputPower(output) - output;
}
SingleIvrModel::SingleIvrModel(double peakEfficiency, Watts rated)
    : peak_(peakEfficiency), rated_(rated)
{
    VSGPU_REQUIRES(peak_ > 0.0 && peak_ < 1.0,
                   "IVR efficiency in (0,1)");
    VSGPU_REQUIRES(rated_ > Watts{}, "IVR rated power must be positive");
}

double
SingleIvrModel::efficiency(Watts output) const
{
    return curve(peak_, rated_, output);
}

Watts
SingleIvrModel::inputPower(Watts output) const
{
    return output / efficiency(output);
}

} // namespace vsgpu
