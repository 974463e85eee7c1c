/**
 * @file
 * Streaming and batch statistics used throughout the evaluation:
 * running mean/variance/extrema, quantile summaries for box plots
 * (paper Fig. 11), and fixed-bin histograms (paper Fig. 17).
 */

#ifndef VSGPU_COMMON_STATS_HH
#define VSGPU_COMMON_STATS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace vsgpu
{

/**
 * Streaming mean / variance / min / max accumulator (Welford).
 * O(1) memory; suitable for multi-million-sample voltage traces.
 */
class RunningStats
{
  public:
    /** Add one sample. */
    void
    add(double x)
    {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

    /** Reset to the empty state. */
    void reset();

    /** @return number of samples added. */
    std::size_t count() const { return n_; }

    /** @return sample mean (0 when empty). */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** @return population variance (0 when fewer than 2 samples). */
    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;
    }

    /** @return population standard deviation. */
    double stddev() const;

    /** @return minimum sample (+inf when empty). */
    double min() const { return min_; }

    /** @return maximum sample (-inf when empty). */
    double max() const { return max_; }

    /** @return sum of all samples. */
    double sum() const { return mean_ * static_cast<double>(n_); }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Five-number summary for box plots: min, q1, median, q3, max, plus
 * mean and count.  Computed from a retained sample vector.
 */
struct BoxStats
{
    double min = 0.0;
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    double max = 0.0;
    double mean = 0.0;
    std::size_t count = 0;
};

/**
 * Linear-interpolation quantile of a sample vector.
 *
 * @param samples finite sample values (not required to be sorted).
 * @param q       quantile in [0, 1].
 */
double quantile(const std::vector<double> &samples, double q);

/**
 * Compute the five-number summary of a finite sample vector.  The
 * samples are sorted with a radix sort (std::sort below 256 samples);
 * both give the same ascending order, and the mean is summed in it.
 */
BoxStats boxStats(const std::vector<double> &samples);

/**
 * Reservoir sampler: retains a uniform random subset of a stream so
 * box statistics stay cheap on very long traces.
 */
class ReservoirSampler
{
  public:
    /** @param capacity maximum retained samples. */
    ReservoirSampler(std::size_t capacity = 65536);

    /** Offer one sample to the reservoir. */
    void
    add(double x)
    {
        ++seen_;
        if (samples_.size() < capacity_)
            samples_.push_back(x);
        else
            replace(x);
    }

    /** @return retained samples (order unspecified). */
    const std::vector<double> &samples() const { return samples_; }

    /** @return number of samples offered so far. */
    std::size_t seen() const { return seen_; }

    /** Compute box statistics over the retained samples. */
    BoxStats box() const { return boxStats(samples_); }

  private:
    /** The full reservoir's step: keep @p x with probability
     *  capacity / seen, in place of a random sample. */
    void replace(double x);

    std::size_t capacity_;
    std::size_t seen_ = 0;
    std::uint64_t state_;
    std::vector<double> samples_;
};

/**
 * Histogram over fixed, caller-supplied bin edges.  A sample x falls in
 * bin i when edges[i] <= x < edges[i+1]; samples outside the range are
 * clamped into the first/last bin (matching the paper's ">40%" bucket).
 */
class Histogram
{
  public:
    /** @param edges ascending bin edges; defines edges.size()-1 bins. */
    explicit Histogram(std::vector<double> edges);

    /** Add one sample. */
    void add(double x);

    /** @return raw count of bin i. */
    std::size_t binCount(std::size_t i) const { return counts_.at(i); }

    /** @return number of bins. */
    std::size_t numBins() const { return counts_.size(); }

    /** @return total samples. */
    std::size_t total() const { return total_; }

    /** @return fraction of samples in bin i (0 when empty). */
    double fraction(std::size_t i) const;

    /** @return human-readable label "lo-hi" for bin i. */
    std::string binLabel(std::size_t i) const;

  private:
    std::vector<double> edges_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
};

} // namespace vsgpu

#endif // VSGPU_COMMON_STATS_HH
