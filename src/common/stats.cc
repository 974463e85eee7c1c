#include "common/stats.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "common/check.hh"
#include "common/logging.hh"

namespace vsgpu
{

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double nTotal = na + nb;
    mean_ += delta * nb / nTotal;
    m2_ += other.m2_ + delta * delta * na * nb / nTotal;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
RunningStats::reset()
{
    *this = RunningStats();
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

namespace
{

/** Inputs below this size sort with std::sort: the radix sort's
 *  8 x 256 digit histogram would cost more than it saves. */
constexpr std::size_t radixMinSamples = 256;

/**
 * @return a 64-bit key whose unsigned order is the numeric order of
 * non-NaN doubles: negatives have every bit flipped, non-negatives
 * only the sign bit.  -0.0 keys just below +0.0, one of the orders
 * std::sort may give two zeros that compare equal.
 */
std::uint64_t
orderedKey(double x)
{
    const auto bits = std::bit_cast<std::uint64_t>(x);
    return (bits >> 63) != 0 ? ~bits : bits | (1ull << 63);
}

/** Inverse of orderedKey(). */
double
fromOrderedKey(std::uint64_t key)
{
    return std::bit_cast<double>((key >> 63) != 0 ? key & ~(1ull << 63)
                                                  : ~key);
}

/**
 * Sort keys ascending: an LSD radix sort over 8-bit digits that skips
 * every pass whose digit is the same for all keys (for rail voltages
 * in [0.5, 1) V the top byte, sign and high exponent bits, never
 * varies).  Equal keys are identical bits, so the result matches
 * std::sort exactly.
 */
void
sortKeys(std::vector<std::uint64_t> &keys,
         std::vector<std::uint64_t> &scratch)
{
    const std::size_t n = keys.size();
    // The digit counts are 32-bit: 64-bit counts could alias the keys
    // stored by the scatter loop, forcing a reload per key.
    if (n < radixMinSamples ||
        n > std::numeric_limits<std::uint32_t>::max()) {
        std::sort(keys.begin(), keys.end());
        return;
    }
    constexpr int digits = 8;
    std::array<std::array<std::uint32_t, 256>, digits> counts{};
    for (std::uint64_t key : keys) {
        for (int d = 0; d < digits; ++d)
            ++counts[static_cast<std::size_t>(d)][(key >> (8 * d)) &
                                                  0xffu];
    }
    scratch.resize(n);
    for (int d = 0; d < digits; ++d) {
        auto &offsets = counts[static_cast<std::size_t>(d)];
        const int shift = 8 * d;
        if (offsets[(keys.front() >> shift) & 0xffu] == n)
            continue;
        std::uint32_t sum = 0;
        for (std::uint32_t &slot : offsets) {
            const std::uint32_t count = slot;
            slot = sum;
            sum += count;
        }
        for (std::uint64_t key : keys)
            scratch[offsets[(key >> shift) & 0xffu]++] = key;
        keys.swap(scratch);
    }
}

/** The sort's key and scratch buffers, kept per thread: a run's
 *  box statistics sort one sample set per SM, and fresh buffers of
 *  that size are fresh pages that fault in on every sort. */
struct SortBuffers
{
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> scratch;
};

SortBuffers &
sortBuffers()
{
    thread_local SortBuffers buffers;
    return buffers;
}

/** A sample set sorted ascending, held as order-preserving keys in
 *  this thread's sort buffers (one SortedSamples at a time). */
class SortedSamples
{
  public:
    explicit SortedSamples(const std::vector<double> &samples)
        : keys_(sortBuffers().keys)
    {
        VSGPU_CHECK_ALL_FINITE(samples, "statistics sample set");
        keys_.clear();
        for (double x : samples)
            keys_.push_back(orderedKey(x));
        sortKeys(keys_, sortBuffers().scratch);
    }

    std::size_t size() const { return keys_.size(); }

    double
    operator[](std::size_t i) const
    {
        return fromOrderedKey(keys_[i]);
    }

    /** @return the linear-interpolation quantile q in [0, 1]. */
    double
    quantile(double q) const
    {
        const double pos = q * static_cast<double>(size() - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, size() - 1);
        const double frac = pos - static_cast<double>(lo);
        return (*this)[lo] * (1.0 - frac) + (*this)[hi] * frac;
    }

  private:
    std::vector<std::uint64_t> &keys_;
};

} // namespace

double
quantile(const std::vector<double> &samples, double q)
{
    VSGPU_REQUIRES(!samples.empty(), "quantile of empty sample set");
    VSGPU_REQUIRES(q >= 0.0 && q <= 1.0, "quantile q out of [0,1]");
    return SortedSamples(samples).quantile(q);
}

BoxStats
boxStats(const std::vector<double> &samples)
{
    BoxStats b;
    if (samples.empty())
        return b;
    const SortedSamples sorted(samples);
    const std::size_t n = sorted.size();
    b.min = sorted[0];
    b.q1 = sorted.quantile(0.25);
    b.median = sorted.quantile(0.5);
    b.q3 = sorted.quantile(0.75);
    b.max = sorted[n - 1];
    // Summed in ascending order.
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        sum += sorted[i];
    b.mean = sum / static_cast<double>(n);
    b.count = n;
    return b;
}

ReservoirSampler::ReservoirSampler(std::size_t capacity)
    : capacity_(capacity), state_(0x853c49e6748fea9bull)
{
    panicIfNot(capacity_ > 0, "reservoir capacity must be positive");
    samples_.reserve(capacity_);
}

void
ReservoirSampler::replace(double x)
{
    // xorshift64 for the replacement index; determinism matters more
    // than statistical perfection here.
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    const std::size_t idx = static_cast<std::size_t>(state_ % seen_);
    if (idx < capacity_)
        samples_[idx] = x;
}

Histogram::Histogram(std::vector<double> edges)
    : edges_(std::move(edges))
{
    panicIfNot(edges_.size() >= 2, "histogram needs at least 2 edges");
    for (std::size_t i = 1; i < edges_.size(); ++i)
        panicIfNot(edges_[i] > edges_[i - 1],
                   "histogram edges must be ascending");
    counts_.assign(edges_.size() - 1, 0);
}

void
Histogram::add(double x)
{
    ++total_;
    if (x < edges_.front()) {
        ++counts_.front();
        return;
    }
    if (x >= edges_.back()) {
        ++counts_.back();
        return;
    }
    const auto it =
        std::upper_bound(edges_.begin(), edges_.end(), x);
    const std::size_t bin =
        static_cast<std::size_t>(it - edges_.begin()) - 1;
    ++counts_[std::min(bin, counts_.size() - 1)];
}

double
Histogram::fraction(std::size_t i) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_.at(i)) /
           static_cast<double>(total_);
}

std::string
Histogram::binLabel(std::size_t i) const
{
    std::ostringstream oss;
    oss << edges_.at(i) << "-" << edges_.at(i + 1);
    return oss.str();
}

} // namespace vsgpu
