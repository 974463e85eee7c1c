/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Workload generation must be reproducible across runs and platforms,
 * so we implement a fixed algorithm (xoshiro256**) rather than rely on
 * the standard library's unspecified distributions.
 */

#ifndef VSGPU_COMMON_RANDOM_HH
#define VSGPU_COMMON_RANDOM_HH

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.hh"

namespace vsgpu
{

/**
 * xoshiro256** generator with splitmix64 seeding.  Deterministic for a
 * given seed on every platform.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** @return next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);

        return result;
    }

    /** @return uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits -> double in [0, 1); the shifted value fits a
        // double mantissa exactly, so the conversion is lossless.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** @return uniform integer in [lo, hi] inclusive. */
    int
    uniformInt(int lo, int hi)
    {
        panicIfNot(hi >= lo, "uniformInt: hi < lo");
        const std::uint64_t span = static_cast<std::uint64_t>(hi) -
                                   static_cast<std::uint64_t>(lo) + 1;
        return lo + static_cast<int>(next() % span);
    }

    /** @return standard normal variate (Box-Muller, cached pair). */
    double normal();

    /** @return normal variate with the given mean and stddev. */
    double normal(double mean, double stddev);

    /** @return true with probability p. */
    bool bernoulli(double p) { return uniform() < p; }

    /**
     * @return geometric variate >= 1 with success probability p
     * (number of trials up to and including the first success).
     */
    int geometric(double p);

  private:
    std::uint64_t s_[4];
    bool hasSpare_ = false;
    double spare_ = 0.0;
};

} // namespace vsgpu

#endif // VSGPU_COMMON_RANDOM_HH
