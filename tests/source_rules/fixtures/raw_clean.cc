// Compile fixture: the counterpart of raw_violate.cc, built the same
// way, must compile.  Quantity arithmetic, the numeric guards and the
// named escape never touch the deprecated accessor, and v.raw() in a
// comment or a string is not a call.
#include "common/check.hh"
#include "common/quantity.hh"

using namespace vsgpu::literals;

double
escapeByDot(vsgpu::Volts v)
{
    VSGPU_CHECK_FINITE(v);
    return v.rawEscape(); // fixture: the named escape
}

double
typedEndToEnd(vsgpu::Volts a, vsgpu::Amps i)
{
    const vsgpu::Ohms r = abs(a - 1.0_V) / i;
    const char *label = "ratio without .raw()";
    (void)label;
    return r * i / a;
}
