/**
 * @file
 * Dynamic current compensation (DCC) hardware model: a binary-
 * weighted current-ladder DAC per SM position, digitally controlled
 * at single-cycle granularity (paper Section IV-C).
 */

#ifndef VSGPU_CONTROL_DCC_HH
#define VSGPU_CONTROL_DCC_HH

#include "common/units.hh"

namespace vsgpu
{

/**
 * Binary-weighted current DAC.
 */
struct DccDac
{
    /** DAC resolution (bits). */
    int bits = 6;

    /** Full-scale compensation current. */
    Amps fullScaleAmps = 3.0_A;

    /** Static leakage of one DAC macro. */
    Watts leakageWatts = 0.015_W;

    /** Die area of one DAC macro. */
    Area area = 0.12_mm2;

    /** @return LSB current step. */
    Amps
    lsbAmps() const
    {
        return fullScaleAmps / static_cast<double>((1 << bits) - 1);
    }

    /** @return unit power of the LSB at the layer voltage,
     *  the Pd0 of paper eq. (9). */
    Watts
    lsbPowerWatts(Volts layerVolts = config::smVoltage) const
    {
        return lsbAmps() * layerVolts;
    }

    /** @return the requested current quantized to the DAC grid and
     *  clamped to [0, full scale]. */
    Amps quantize(Amps amps) const { return quantize(amps, lsbAmps()); }

    /** quantize() on a grid of @p lsb, which must be lsbAmps(); lets a
     *  caller quantizing many currents divide once. */
    Amps quantize(Amps amps, Amps lsb) const;
};

} // namespace vsgpu

#endif // VSGPU_CONTROL_DCC_HH
