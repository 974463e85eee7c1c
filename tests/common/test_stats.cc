/**
 * @file
 * Unit and property tests for the statistics helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hh"
#include "common/random.hh"
#include "common/stats.hh"

namespace vsgpu
{
namespace
{

TEST(RunningStats, EmptyDefaults)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_TRUE(std::isinf(s.min()));
    EXPECT_TRUE(std::isinf(s.max()));
}

TEST(RunningStats, SingleSample)
{
    RunningStats s;
    s.add(3.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSingleStream)
{
    Rng rng(5);
    RunningStats all, a, b;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(2.0, 3.0);
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity)
{
    RunningStats a, empty;
    a.add(1.0);
    a.add(2.0);
    const double mean = a.mean();
    a.merge(empty);
    EXPECT_DOUBLE_EQ(a.mean(), mean);
    EXPECT_EQ(a.count(), 2u);

    RunningStats b;
    b.merge(a);
    EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(RunningStats, ResetClearsState)
{
    RunningStats s;
    s.add(10.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(Quantile, MedianOfOddSet)
{
    EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Quantile, InterpolatesBetweenSamples)
{
    EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.25), 2.5);
}

TEST(Quantile, Extremes)
{
    std::vector<double> v = {5.0, -1.0, 3.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), -1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
}

TEST(BoxStatsTest, FiveNumberSummary)
{
    std::vector<double> v;
    for (int i = 1; i <= 101; ++i)
        v.push_back(static_cast<double>(i));
    const BoxStats b = boxStats(v);
    EXPECT_DOUBLE_EQ(b.min, 1.0);
    EXPECT_DOUBLE_EQ(b.median, 51.0);
    EXPECT_DOUBLE_EQ(b.max, 101.0);
    EXPECT_DOUBLE_EQ(b.q1, 26.0);
    EXPECT_DOUBLE_EQ(b.q3, 76.0);
    EXPECT_DOUBLE_EQ(b.mean, 51.0);
    EXPECT_EQ(b.count, 101u);
}

TEST(BoxStatsTest, EmptyIsZeroed)
{
    const BoxStats b = boxStats({});
    EXPECT_EQ(b.count, 0u);
    EXPECT_EQ(b.median, 0.0);
}

/** Property: quartiles are ordered for arbitrary data. */
TEST(BoxStatsTest, QuartilesOrdered)
{
    Rng rng(9);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> v;
        const int n = 1 + rng.uniformInt(0, 300);
        for (int i = 0; i < n; ++i)
            v.push_back(rng.normal(0.0, 5.0));
        const BoxStats b = boxStats(v);
        EXPECT_LE(b.min, b.q1);
        EXPECT_LE(b.q1, b.median);
        EXPECT_LE(b.median, b.q3);
        EXPECT_LE(b.q3, b.max);
    }
}

// ---- bit-exactness against a std::sort reference ----
//
// boxStats() and quantile() sort with a radix sort above 256 samples
// and std::sort below.  These cases recompute both from a std::sort
// of the same samples and compare every field bit for bit, across the
// size threshold and on inputs whose sign/exponent bytes vary (no
// radix pass skipped) or stay fixed (passes skipped).

constexpr double denormMin = std::numeric_limits<double>::denorm_min();

/** @return true when @p a and @p b have identical bits. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Linear-interpolation quantile of an ascending vector. */
double
sortedQuantile(const std::vector<double> &sorted, double q)
{
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

BoxStats
referenceBox(std::vector<double> v)
{
    BoxStats b;
    if (v.empty())
        return b;
    std::sort(v.begin(), v.end());
    b.min = v.front();
    b.q1 = sortedQuantile(v, 0.25);
    b.median = sortedQuantile(v, 0.5);
    b.q3 = sortedQuantile(v, 0.75);
    b.max = v.back();
    double sum = 0.0;
    for (double x : v)
        sum += x;
    b.mean = sum / static_cast<double>(v.size());
    b.count = v.size();
    return b;
}

void
expectSameBox(const BoxStats &got, const BoxStats &want)
{
    EXPECT_TRUE(sameBits(got.min, want.min)) << got.min << " " << want.min;
    EXPECT_TRUE(sameBits(got.q1, want.q1)) << got.q1 << " " << want.q1;
    EXPECT_TRUE(sameBits(got.median, want.median))
        << got.median << " " << want.median;
    EXPECT_TRUE(sameBits(got.q3, want.q3)) << got.q3 << " " << want.q3;
    EXPECT_TRUE(sameBits(got.max, want.max)) << got.max << " " << want.max;
    EXPECT_TRUE(sameBits(got.mean, want.mean))
        << got.mean << " " << want.mean;
    EXPECT_EQ(got.count, want.count);
}

/** Deterministic Fisher-Yates shuffle. */
void
shuffle(std::vector<double> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(i) - 1));
        std::swap(v[i - 1], v[j]);
    }
}

/**
 * Mixed-sign samples: 40% negatives, then a few -0.0/+0.0, then
 * positives, drawn from normals, subnormals, values either side of
 * the exponent boundaries at 0.5 / 1.0 / 2.0, extremes and repeats.
 * Signed zeros compare equal, so std::sort may order them either way;
 * they sit at ranks 0.40-0.41, where no summary field or tested
 * quantile reads.
 */
std::vector<double>
mixedSamples(std::size_t n, Rng &rng)
{
    const double boundary[] = {
        0.5, std::nextafter(0.5, 0.0), 1.0, std::nextafter(1.0, 0.0),
        std::nextafter(1.0, 2.0), 2.0, std::nextafter(2.0, 0.0),
        1e-300, 1e300, denormMin, 37.0 * denormMin,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max()};
    const auto draw = [&]() {
        switch (rng.uniformInt(0, 3)) {
          case 0:
            return std::abs(rng.normal(0.0, 3.0)) + denormMin;
          case 1:
            return static_cast<double>(rng.uniformInt(1, 1000)) *
                   denormMin;
          case 2:
            return boundary[rng.uniformInt(
                0, static_cast<int>(std::size(boundary)) - 1)];
          default:
            // A repeat of a small grid value.
            return static_cast<double>(rng.uniformInt(1, 8)) * 0.125;
        }
    };
    const std::size_t negatives = n * 2 / 5;
    const std::size_t zeros = n >= 255 ? std::max<std::size_t>(2, n / 200)
                                       : 0;
    std::vector<double> v;
    v.reserve(n);
    for (std::size_t i = 0; i < negatives; ++i)
        v.push_back(-draw());
    for (std::size_t i = 0; i < zeros; ++i)
        v.push_back(i % 2 == 0 ? -0.0 : 0.0);
    while (v.size() < n)
        v.push_back(draw());
    shuffle(v, rng);
    return v;
}

/** Rail-like samples in [lo, hi), optionally on a coarse grid (the
 *  low mantissa bytes then never vary either). */
std::vector<double>
railSamples(std::size_t n, double lo, double hi, bool gridded, Rng &rng)
{
    std::vector<double> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        double x = rng.uniform(lo, hi);
        if (gridded)
            x = std::min(std::floor(x * 4096.0) / 4096.0, hi);
        v.push_back(x);
    }
    return v;
}

const std::size_t kSizes[] = {0, 1, 2, 255, 256, 257, 5000, 70000};

/** Every fixture family at every size. */
std::vector<std::vector<double>>
allFixtures()
{
    Rng rng(2024);
    std::vector<std::vector<double>> out;
    for (std::size_t n : kSizes) {
        out.push_back(mixedSamples(n, rng));
        // Sign and exponent bytes fixed: the top passes are skipped.
        out.push_back(railSamples(n, 0.5, 1.0, false, rng));
        out.push_back(railSamples(n, 0.5, 1.0, true, rng));
        // Straddles the exponent boundary at 1.0.
        out.push_back(railSamples(n, 0.9, 1.1, false, rng));
    }
    return out;
}

TEST(BoxStatsBitExact, MatchesStdSortReference)
{
    for (const std::vector<double> &v : allFixtures()) {
        SCOPED_TRACE(v.size());
        expectSameBox(boxStats(v), referenceBox(v));
    }
}

TEST(BoxStatsBitExact, QuantileMatchesStdSortReference)
{
    for (const std::vector<double> &v : allFixtures()) {
        if (v.empty())
            continue;
        SCOPED_TRACE(v.size());
        std::vector<double> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        for (double q : {0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.75, 0.9,
                         0.999, 1.0}) {
            const double got = quantile(v, q);
            const double want = sortedQuantile(sorted, q);
            EXPECT_TRUE(sameBits(got, want))
                << "q " << q << ": " << got << " vs " << want;
        }
    }
}

TEST(BoxStatsBitExact, DuplicatesOnly)
{
    for (std::size_t n : kSizes) {
        const std::vector<double> v(n, -0.75);
        expectSameBox(boxStats(v), referenceBox(v));
    }
}

TEST(BoxStatsBitExact, InfinitiesFailTheFiniteCheckOrSortToTheEnds)
{
    Rng rng(31);
    for (std::size_t n : {std::size_t{40}, std::size_t{5000}}) {
        std::vector<double> v = mixedSamples(n, rng);
        v[3] = std::numeric_limits<double>::infinity();
        v[17] = -std::numeric_limits<double>::infinity();
#if VSGPU_DEBUG_CHECKS
        EXPECT_DEATH(boxStats(v), "non-finite value");
#else
        const BoxStats b = boxStats(v);
        EXPECT_EQ(b.min, -std::numeric_limits<double>::infinity());
        EXPECT_EQ(b.max, std::numeric_limits<double>::infinity());
        expectSameBox(b, referenceBox(v));
#endif
    }
}

TEST(ReservoirSamplerTest, KeepsEverythingUnderCapacity)
{
    ReservoirSampler r(100);
    for (int i = 0; i < 50; ++i)
        r.add(static_cast<double>(i));
    EXPECT_EQ(r.samples().size(), 50u);
    EXPECT_EQ(r.seen(), 50u);
}

TEST(ReservoirSamplerTest, CapsAtCapacity)
{
    ReservoirSampler r(64);
    for (int i = 0; i < 10000; ++i)
        r.add(static_cast<double>(i));
    EXPECT_EQ(r.samples().size(), 64u);
    EXPECT_EQ(r.seen(), 10000u);
}

TEST(ReservoirSamplerTest, RetainedMeanApproximatesStream)
{
    ReservoirSampler r(4096);
    Rng rng(77);
    for (int i = 0; i < 200000; ++i)
        r.add(rng.uniform());
    const BoxStats b = r.box();
    EXPECT_NEAR(b.mean, 0.5, 0.05);
    EXPECT_NEAR(b.median, 0.5, 0.05);
}

TEST(HistogramTest, BinAssignment)
{
    Histogram h({0.0, 1.0, 2.0, 3.0});
    h.add(0.5);
    h.add(1.5);
    h.add(1.7);
    h.add(2.5);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(1), 2u);
    EXPECT_EQ(h.binCount(2), 1u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(HistogramTest, OutOfRangeClampsToEdges)
{
    Histogram h({0.0, 1.0, 2.0});
    h.add(-5.0);
    h.add(99.0);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(1), 1u);
}

TEST(HistogramTest, LowerEdgeInclusiveUpperExclusive)
{
    Histogram h({0.0, 1.0, 2.0});
    h.add(0.0);
    h.add(1.0);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(1), 1u);
}

TEST(HistogramTest, FractionsSumToOne)
{
    Histogram h({0.0, 0.1, 0.2, 0.4, 10.0});
    Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        h.add(rng.uniform());
    double sum = 0.0;
    for (std::size_t b = 0; b < h.numBins(); ++b)
        sum += h.fraction(b);
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(HistogramTest, EmptyFractionIsZero)
{
    Histogram h({0.0, 1.0});
    EXPECT_EQ(h.fraction(0), 0.0);
}

TEST(HistogramTest, BinLabels)
{
    Histogram h({0.0, 0.5, 1.0});
    EXPECT_EQ(h.binLabel(0), "0-0.5");
    EXPECT_EQ(h.binLabel(1), "0.5-1");
}

} // namespace
} // namespace vsgpu
