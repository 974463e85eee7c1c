#include "control/dcc.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"

namespace vsgpu
{

Amps
DccDac::quantize(Amps amps, Amps lsb) const
{
    VSGPU_REQUIRES(lsb == lsbAmps(), "quantize grid is not the DAC LSB");
    const Amps clamped = std::clamp(amps, Amps{}, fullScaleAmps);
    return std::round(clamped / lsb) * lsb;
}

} // namespace vsgpu
