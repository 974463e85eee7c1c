#include "common/random.hh"

#include "common/logging.hh"

namespace vsgpu
{

namespace
{

/** splitmix64 step used to expand the seed into generator state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
    // Guard against the all-zero state, which is a fixed point.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

double
Rng::normal()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spare_;
    }
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double two_pi = 6.283185307179586;
    spare_ = mag * std::sin(two_pi * u2);
    hasSpare_ = true;
    return mag * std::cos(two_pi * u2);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

int
Rng::geometric(double p)
{
    panicIfNot(p > 0.0 && p <= 1.0, "geometric: p out of (0, 1]");
    if (p >= 1.0)
        return 1;
    double u = 0.0;
    do {
        u = uniform();
    } while (u <= 0.0);
    const int trials = 1 + static_cast<int>(std::log(u) / std::log1p(-p));
    return trials < 1 ? 1 : trials;
}

} // namespace vsgpu
