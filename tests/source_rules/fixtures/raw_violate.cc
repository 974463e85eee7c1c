// Compile-fail fixture: Quantity::raw() outside the numeric core.
// tests/CMakeLists.txt compiles this file the way the checked src/
// libraries are compiled (VSGPU_RAW_ESCAPE_CHECKED plus
// -Werror=deprecated-declarations); raw_violate_compile expects the
// build to fail on both calls below.
#include "common/quantity.hh"

double
leakByDot(vsgpu::Volts v)
{
    return v.raw();
}

double
leakByArrow(const vsgpu::Volts *v)
{
    return v->raw();
}
