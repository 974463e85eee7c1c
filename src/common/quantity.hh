/**
 * @file
 * Zero-runtime-cost dimensional analysis for the physical model.
 *
 * Quantity<M, KG, S, A> wraps one double tagged with its SI dimension
 * as exponents of (metre, kilogram, second, ampere).  Every unit the
 * PDN/IVR/power stack handles — volts, amps, ohms, siemens, farads,
 * henries, watts, joules, seconds, hertz, square metres — is an alias
 * of this template, so mixing units (passing watts where volts are
 * expected, adding ohms to farads) is a compile error while the
 * generated code is bit-identical to raw-double arithmetic.
 *
 * Conventions:
 *   - Construction from a raw double is explicit; prefer the literals
 *     in vsgpu::literals (1.0_V, 80.0_mOhm, 700.0_MHz, ...).
 *   - Dimensions cancel to plain double: Volts / Volts is a double,
 *     so ratios, efficiencies, and normalized values need no casts.
 *   - .raw() is the way back to double inside the numeric core (the
 *     MNA solver, the verifier).  Everywhere else in src/ the build
 *     defines VSGPU_RAW_ESCAPE_CHECKED, which makes .raw() deprecated
 *     and the warning an error; a deliberate conversion there is
 *     spelled .rawEscape() with a comment naming the boundary.
 *   - All values are SI at unit scale (ohms not milliohms, square
 *     metres not mm^2).  Express display scaling as a division by a
 *     literal: area / 1.0_mm2 yields the mm^2 count as a double.
 */

#ifndef VSGPU_COMMON_QUANTITY_HH
#define VSGPU_COMMON_QUANTITY_HH

#include <cmath>
#include <ostream>
#include <type_traits>

namespace vsgpu
{

/**
 * One double carrying SI dimension exponents (m^M kg^KG s^S A^A).
 *
 * Arithmetic is constexpr and inline; with optimization on, a
 * Quantity compiles to exactly the double it wraps (verified by
 * bench/perf_microbench against the raw-double baseline).
 */
template <int M, int KG, int S, int A>
class Quantity
{
  public:
    constexpr Quantity() = default;

    /** Tag a raw SI value with this dimension (explicit on purpose). */
    constexpr explicit Quantity(double raw) : v_(raw) {}

    /** The raw SI value, for the numeric core. */
#ifdef VSGPU_RAW_ESCAPE_CHECKED
    [[deprecated("outside the numeric core, convert with rawEscape() "
                 "and a comment naming the boundary")]]
#endif
    constexpr double raw() const { return v_; }

    /** The raw SI value at a named boundary outside the numeric core
     *  (never deprecated; every call carries its reason). */
    constexpr double rawEscape() const { return v_; }

    constexpr Quantity operator-() const { return Quantity{-v_}; }
    constexpr Quantity operator+() const { return *this; }

    constexpr Quantity &
    operator+=(Quantity other)
    {
        v_ += other.v_;
        return *this;
    }

    constexpr Quantity &
    operator-=(Quantity other)
    {
        v_ -= other.v_;
        return *this;
    }

    constexpr Quantity &
    operator*=(double scale)
    {
        v_ *= scale;
        return *this;
    }

    constexpr Quantity &
    operator/=(double scale)
    {
        v_ /= scale;
        return *this;
    }

    constexpr auto operator<=>(const Quantity &) const = default;

    friend constexpr Quantity
    operator+(Quantity x, Quantity y)
    {
        return Quantity{x.v_ + y.v_};
    }

    friend constexpr Quantity
    operator-(Quantity x, Quantity y)
    {
        return Quantity{x.v_ - y.v_};
    }

    friend constexpr Quantity
    operator*(Quantity x, double scale)
    {
        return Quantity{x.v_ * scale};
    }

    friend constexpr Quantity
    operator*(double scale, Quantity x)
    {
        return Quantity{scale * x.v_};
    }

    friend constexpr Quantity
    operator/(Quantity x, double scale)
    {
        return Quantity{x.v_ / scale};
    }

    friend constexpr Quantity<-M, -KG, -S, -A>
    operator/(double num, Quantity x)
    {
        return Quantity<-M, -KG, -S, -A>{num / x.v_};
    }

    friend std::ostream &
    operator<<(std::ostream &os, Quantity q)
    {
        return os << q.v_;
    }

  private:
    double v_ = 0.0;
};

/**
 * Product of two quantities: dimensions add; a fully cancelled result
 * collapses to plain double so ratios read naturally.
 */
template <int M1, int K1, int S1, int A1, int M2, int K2, int S2, int A2>
constexpr auto
operator*(Quantity<M1, K1, S1, A1> x, Quantity<M2, K2, S2, A2> y)
{
    if constexpr (M1 + M2 == 0 && K1 + K2 == 0 && S1 + S2 == 0 &&
                  A1 + A2 == 0)
        return x.rawEscape() * y.rawEscape();
    else
        return Quantity<M1 + M2, K1 + K2, S1 + S2, A1 + A2>{
            x.rawEscape() * y.rawEscape()};
}

/** Quotient of two quantities: dimensions subtract (same collapse). */
template <int M1, int K1, int S1, int A1, int M2, int K2, int S2, int A2>
constexpr auto
operator/(Quantity<M1, K1, S1, A1> x, Quantity<M2, K2, S2, A2> y)
{
    if constexpr (M1 - M2 == 0 && K1 - K2 == 0 && S1 - S2 == 0 &&
                  A1 - A2 == 0)
        return x.rawEscape() / y.rawEscape();
    else
        return Quantity<M1 - M2, K1 - K2, S1 - S2, A1 - A2>{
            x.rawEscape() / y.rawEscape()};
}

/** Magnitude with the dimension preserved. */
template <int M, int KG, int S, int A>
constexpr Quantity<M, KG, S, A>
abs(Quantity<M, KG, S, A> q)
{
    const double v = q.rawEscape();
    return Quantity<M, KG, S, A>{v < 0.0 ? -v : v};
}

// ---------------------------------------------------------------------
// Named units (SI exponents of m, kg, s, A).

using Seconds = Quantity<0, 0, 1, 0>;
using Hertz = Quantity<0, 0, -1, 0>;
using Amps = Quantity<0, 0, 0, 1>;
using Coulombs = Quantity<0, 0, 1, 1>;
using Volts = Quantity<2, 1, -3, -1>;
using Ohms = Quantity<2, 1, -3, -2>;
using Siemens = Quantity<-2, -1, 3, 2>;
using Farads = Quantity<-2, -1, 4, 2>;
using Henries = Quantity<2, 1, -2, -2>;
using Watts = Quantity<2, 1, -3, 0>;
using Joules = Quantity<2, 1, -2, 0>;
using Area = Quantity<2, 0, 0, 0>;
using FaradsPerArea = Quantity<-4, -1, 4, 2>;

// Controller gain: watts of power correction per volt of deviation.
// Dimensionally this is Amps (W/V = A); the alias keeps control-code
// signatures self-describing.
using WattsPerVolt = decltype(Watts{} / Volts{});

// Derived-unit identities: if any alias above is wrong these fail to
// compile, so the algebra is proven once, here.
static_assert(std::is_same_v<decltype(Watts{} / Amps{}), Volts>);
static_assert(std::is_same_v<decltype(Volts{} / Amps{}), Ohms>);
static_assert(std::is_same_v<decltype(Volts{} * Amps{}), Watts>);
static_assert(std::is_same_v<decltype(Volts{} / Ohms{}), Amps>);
static_assert(std::is_same_v<decltype(Farads{} * Ohms{}), Seconds>);
static_assert(std::is_same_v<decltype(Farads{} * Volts{}), Coulombs>);
static_assert(std::is_same_v<decltype(Henries{} / Ohms{}), Seconds>);
static_assert(std::is_same_v<decltype(Watts{} * Seconds{}), Joules>);
static_assert(std::is_same_v<decltype(1.0 / Seconds{}), Hertz>);
static_assert(std::is_same_v<decltype(1.0 / Ohms{}), Siemens>);
static_assert(std::is_same_v<decltype(Farads{} / Area{}), FaradsPerArea>);
static_assert(std::is_same_v<decltype(Volts{} / Volts{}), double>);
static_assert(std::is_same_v<WattsPerVolt, Amps>);
static_assert(
    std::is_same_v<decltype(WattsPerVolt{} * Volts{}), Watts>);

inline namespace literals
{

// One literal per (unit, scale) pair the codebase actually uses; both
// floating (1.0_V) and integral (80_mOhm) spellings are accepted.
#define VSGPU_QUANTITY_LITERAL(suffix, type, scale)                     \
    constexpr type operator""_##suffix(long double v)                   \
    {                                                                   \
        return type{static_cast<double>(v) * (scale)};                  \
    }                                                                   \
    constexpr type operator""_##suffix(unsigned long long v)            \
    {                                                                   \
        return type{static_cast<double>(v) * (scale)};                  \
    }

VSGPU_QUANTITY_LITERAL(V, Volts, 1.0)
VSGPU_QUANTITY_LITERAL(mV, Volts, 1e-3)
VSGPU_QUANTITY_LITERAL(A, Amps, 1.0)
VSGPU_QUANTITY_LITERAL(mA, Amps, 1e-3)
VSGPU_QUANTITY_LITERAL(Ohm, Ohms, 1.0)
VSGPU_QUANTITY_LITERAL(mOhm, Ohms, 1e-3)
VSGPU_QUANTITY_LITERAL(uOhm, Ohms, 1e-6)
VSGPU_QUANTITY_LITERAL(F, Farads, 1.0)
VSGPU_QUANTITY_LITERAL(uF, Farads, 1e-6)
VSGPU_QUANTITY_LITERAL(nF, Farads, 1e-9)
VSGPU_QUANTITY_LITERAL(pF, Farads, 1e-12)
VSGPU_QUANTITY_LITERAL(H, Henries, 1.0)
VSGPU_QUANTITY_LITERAL(nH, Henries, 1e-9)
VSGPU_QUANTITY_LITERAL(pH, Henries, 1e-12)
VSGPU_QUANTITY_LITERAL(W, Watts, 1.0)
VSGPU_QUANTITY_LITERAL(mW, Watts, 1e-3)
VSGPU_QUANTITY_LITERAL(J, Joules, 1.0)
VSGPU_QUANTITY_LITERAL(nJ, Joules, 1e-9)
VSGPU_QUANTITY_LITERAL(s, Seconds, 1.0)
VSGPU_QUANTITY_LITERAL(ms, Seconds, 1e-3)
VSGPU_QUANTITY_LITERAL(us, Seconds, 1e-6)
VSGPU_QUANTITY_LITERAL(ns, Seconds, 1e-9)
VSGPU_QUANTITY_LITERAL(ps, Seconds, 1e-12)
VSGPU_QUANTITY_LITERAL(Hz, Hertz, 1.0)
VSGPU_QUANTITY_LITERAL(kHz, Hertz, 1e3)
VSGPU_QUANTITY_LITERAL(MHz, Hertz, 1e6)
VSGPU_QUANTITY_LITERAL(GHz, Hertz, 1e9)
VSGPU_QUANTITY_LITERAL(m2, Area, 1.0)
VSGPU_QUANTITY_LITERAL(mm2, Area, 1e-6)
VSGPU_QUANTITY_LITERAL(um2, Area, 1e-12)

#undef VSGPU_QUANTITY_LITERAL

} // namespace literals

} // namespace vsgpu

#endif // VSGPU_COMMON_QUANTITY_HH
