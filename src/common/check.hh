/**
 * @file
 * Debug-mode numeric invariant guards.
 *
 * Floating-point corruption (a NaN load current, an Inf node voltage)
 * propagates silently through the MNA solver and poisons every
 * downstream figure.  These macros make such corruption abort at its
 * source in checked builds and compile to nothing in release builds,
 * so the solver inner loop stays free of branches when it matters.
 *
 * Checked builds are those without NDEBUG (CMake Debug) — override
 * with -DVSGPU_DEBUG_CHECKS=0/1.  The guards accept raw doubles and
 * any Quantity alike.
 *
 *   VSGPU_CHECK_FINITE(x)            abort if x is NaN or Inf
 *   VSGPU_CHECK_RANGE(x, lo, hi)     abort unless lo <= x <= hi
 *   VSGPU_CHECK_ALL_FINITE(xs, what) abort if any element is not
 *                                    finite; 'what' names the context
 *
 * Function contracts make interface obligations explicit:
 *
 *   VSGPU_REQUIRES(cond, ...)  precondition; abort in checked builds
 *   VSGPU_ENSURES(cond, ...)   postcondition; abort in checked builds
 *
 * In release builds every guard compiles to a name-check of its
 * operands.  The guards read a Quantity through rawEscape(), so they
 * compile in translation units where .raw() is deprecated
 * (common/quantity.hh).
 */

#ifndef VSGPU_COMMON_CHECK_HH
#define VSGPU_COMMON_CHECK_HH

#include <cmath>
#include <cstddef>

#include "common/logging.hh"
#include "common/quantity.hh"

#if !defined(VSGPU_DEBUG_CHECKS)
#if defined(NDEBUG)
#define VSGPU_DEBUG_CHECKS 0
#else
#define VSGPU_DEBUG_CHECKS 1
#endif
#endif

namespace vsgpu
{
namespace checkdetail
{

constexpr double
rawOf(double v)
{
    return v;
}

template <int M, int KG, int S, int A>
constexpr double
rawOf(Quantity<M, KG, S, A> q)
{
    return q.rawEscape();
}

/** @return index of the first non-finite element, or -1 if all ok. */
template <typename Container>
std::ptrdiff_t
firstNonFinite(const Container &xs)
{
    std::ptrdiff_t i = 0;
    for (const auto &x : xs) {
        if (!std::isfinite(rawOf(x)))
            return i;
        ++i;
    }
    return -1;
}

} // namespace checkdetail
} // namespace vsgpu

#if VSGPU_DEBUG_CHECKS

#define VSGPU_CHECK_FINITE(x)                                           \
    do {                                                                \
        const double vsgpuCheckVal_ = ::vsgpu::checkdetail::rawOf(x);   \
        if (!std::isfinite(vsgpuCheckVal_))                             \
            ::vsgpu::panic(__FILE__, ":", __LINE__,                     \
                           ": numeric invariant violated: " #x " = ",   \
                           vsgpuCheckVal_);                             \
    } while (0)

#define VSGPU_CHECK_RANGE(x, lo, hi)                                    \
    do {                                                                \
        const double vsgpuCheckVal_ = ::vsgpu::checkdetail::rawOf(x);   \
        const double vsgpuCheckLo_ = ::vsgpu::checkdetail::rawOf(lo);   \
        const double vsgpuCheckHi_ = ::vsgpu::checkdetail::rawOf(hi);   \
        if (!(vsgpuCheckVal_ >= vsgpuCheckLo_ &&                        \
              vsgpuCheckVal_ <= vsgpuCheckHi_))                         \
            ::vsgpu::panic(__FILE__, ":", __LINE__,                     \
                           ": range invariant violated: " #x " = ",     \
                           vsgpuCheckVal_, " not in [", vsgpuCheckLo_,  \
                           ", ", vsgpuCheckHi_, "]");                   \
    } while (0)

#define VSGPU_CHECK_ALL_FINITE(xs, what)                                \
    do {                                                                \
        const std::ptrdiff_t vsgpuCheckIdx_ =                           \
            ::vsgpu::checkdetail::firstNonFinite(xs);                   \
        if (vsgpuCheckIdx_ >= 0)                                        \
            ::vsgpu::panic(__FILE__, ":", __LINE__,                     \
                           ": non-finite value in ", what,              \
                           " at index ", vsgpuCheckIdx_);               \
    } while (0)

#define VSGPU_REQUIRES(cond, ...)                                       \
    do {                                                                \
        if (!(cond))                                                    \
            ::vsgpu::panic(__FILE__, ":", __LINE__,                     \
                           ": precondition violated: " #cond            \
                           __VA_OPT__(, ": ", __VA_ARGS__));            \
    } while (0)

#define VSGPU_ENSURES(cond, ...)                                        \
    do {                                                                \
        if (!(cond))                                                    \
            ::vsgpu::panic(__FILE__, ":", __LINE__,                     \
                           ": postcondition violated: " #cond           \
                           __VA_OPT__(, ": ", __VA_ARGS__));            \
    } while (0)

#else

// Release: evaluate nothing, but keep the operands name-checked so a
// guard cannot silently rot (sizeof does not evaluate its operand).
#define VSGPU_CHECK_FINITE(x)                                           \
    ((void)sizeof(::vsgpu::checkdetail::rawOf(x)))
#define VSGPU_CHECK_RANGE(x, lo, hi)                                    \
    ((void)sizeof(::vsgpu::checkdetail::rawOf(x)),                      \
     (void)sizeof(::vsgpu::checkdetail::rawOf(lo)),                     \
     (void)sizeof(::vsgpu::checkdetail::rawOf(hi)))
#define VSGPU_CHECK_ALL_FINITE(xs, what)                                \
    ((void)sizeof(&(xs)), (void)sizeof(what))
#define VSGPU_REQUIRES(cond, ...)                                       \
    ((void)sizeof((cond) ? 1 : 0))
#define VSGPU_ENSURES(cond, ...)                                        \
    ((void)sizeof((cond) ? 1 : 0))

#endif // VSGPU_DEBUG_CHECKS

#endif // VSGPU_COMMON_CHECK_HH
