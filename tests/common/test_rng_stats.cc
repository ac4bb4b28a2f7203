#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/stats.hh"
#include "test_util.hh"

namespace vattn
{
namespace
{

TEST(Rng, DeterministicForSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += a.next() == b.next();
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const i64 v = rng.uniformInt(3, 8);
        ASSERT_GE(v, 3);
        ASSERT_LE(v, 8);
        saw_lo |= v == 3;
        saw_hi |= v == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntUnbiasedChiSquare)
{
    // Pins the Lemire rejection sampling fix: a plain next() % span
    // over-represents low residues; the rejection sampler must pass a
    // chi-square goodness-of-fit test against the flat distribution.
    Rng rng(33);
    constexpr i64 kSpan = 6;
    constexpr int kDraws = 60000;
    u64 counts[kSpan] = {};
    for (int i = 0; i < kDraws; ++i) {
        ++counts[rng.uniformInt(0, kSpan - 1)];
    }
    const double expected = static_cast<double>(kDraws) / kSpan;
    double chi_square = 0;
    for (u64 c : counts) {
        const double d = static_cast<double>(c) - expected;
        chi_square += d * d / expected;
    }
    // 5 degrees of freedom: critical value 20.5 at p = 0.001.
    EXPECT_LT(chi_square, 20.5);
}

TEST(Rng, UniformIntExtremeSpans)
{
    Rng rng(37);
    // Degenerate span.
    EXPECT_EQ(rng.uniformInt(42, 42), 42);
    // Spans so large that rejection thresholds actually matter; the
    // sampler must stay in bounds and terminate.
    for (int i = 0; i < 1000; ++i) {
        const i64 v = rng.uniformInt(-3, (i64{1} << 62) + 5);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, (i64{1} << 62) + 5);
    }
    // Spans above 2^63: the result offset no longer fits in i64, so
    // the lo + offset add must happen in unsigned arithmetic.
    const i64 lo = std::numeric_limits<i64>::min();
    const i64 hi = std::numeric_limits<i64>::max() - 1;
    for (int i = 0; i < 1000; ++i) {
        const i64 v = rng.uniformInt(lo, hi);
        EXPECT_GE(v, lo);
        EXPECT_LE(v, hi);
    }
    // Full 64-bit range: every raw draw is fair, nothing to reject.
    bool saw_negative = false;
    bool saw_positive = false;
    for (int i = 0; i < 64; ++i) {
        const i64 v = rng.uniformInt(
            std::numeric_limits<i64>::min(),
            std::numeric_limits<i64>::max());
        saw_negative |= v < 0;
        saw_positive |= v > 0;
    }
    EXPECT_TRUE(saw_negative);
    EXPECT_TRUE(saw_positive);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(11);
    double sum = 0;
    const double rate = 4.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.exponential(rate);
        ASSERT_GE(x, 0.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i) {
        stat.add(rng.normal());
    }
    EXPECT_NEAR(stat.mean(), 0.0, 0.03);
    EXPECT_NEAR(stat.stddev(), 1.0, 0.03);
}

TEST(Rng, LogNormalMedian)
{
    Rng rng(17);
    Percentiles p;
    for (int i = 0; i < 20000; ++i) {
        p.add(rng.logNormal(std::log(100.0), 0.5));
    }
    EXPECT_NEAR(p.median(), 100.0, 5.0);
}

TEST(Rng, CategoricalRespectsWeights)
{
    Rng rng(19);
    std::vector<double> weights = {1.0, 3.0};
    int count1 = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        count1 += rng.categorical(weights) == 1;
    }
    EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.02);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(23);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto copy = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, copy);
}

TEST(RunningStat, BasicMoments)
{
    RunningStat stat;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        stat.add(x);
    }
    EXPECT_EQ(stat.count(), 8u);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 9.0);
    EXPECT_NEAR(stat.stddev(), 2.138, 1e-3); // sample stddev
}

TEST(RunningStat, ResetForgetsEverySample)
{
    RunningStat stat;
    for (double x : {-3.0, 8.0, 100.0}) {
        stat.add(x);
    }
    stat.reset();
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_EQ(stat.sum(), 0.0);
    EXPECT_EQ(stat.variance(), 0.0);
    // The extremes restart too: the old -3 and 100 do not survive.
    stat.add(5.0);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stat.min(), 5.0);
    EXPECT_DOUBLE_EQ(stat.max(), 5.0);
}

TEST(RunningStat, EmptyIsSafe)
{
    RunningStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_EQ(stat.mean(), 0.0);
    EXPECT_EQ(stat.variance(), 0.0);
}

TEST(Percentiles, QuantilesInterpolate)
{
    Percentiles p;
    for (int i = 1; i <= 100; ++i) {
        p.add(i);
    }
    EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(p.quantile(1.0), 100.0);
    EXPECT_NEAR(p.median(), 50.5, 1e-9);
    EXPECT_NEAR(p.quantile(0.25), 25.75, 1e-9);
}

TEST(Percentiles, CdfAt)
{
    Percentiles p;
    for (int i = 1; i <= 10; ++i) {
        p.add(i);
    }
    EXPECT_DOUBLE_EQ(p.cdfAt(0.5), 0.0);
    EXPECT_DOUBLE_EQ(p.cdfAt(5.0), 0.5);
    EXPECT_DOUBLE_EQ(p.cdfAt(10.0), 1.0);
}

TEST(Percentiles, CdfPointsMonotonic)
{
    Percentiles p;
    Rng rng(29);
    for (int i = 0; i < 1000; ++i) {
        p.add(rng.uniform(0, 50));
    }
    const auto pts = p.cdfPoints(21);
    ASSERT_EQ(pts.size(), 21u);
    for (std::size_t i = 1; i < pts.size(); ++i) {
        EXPECT_GE(pts[i].first, pts[i - 1].first);
        EXPECT_GE(pts[i].second, pts[i - 1].second);
    }
    EXPECT_DOUBLE_EQ(pts.front().second, 0.0);
    EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(Percentiles, CdfPointsDedupeRepeatedQuantiles)
{
    // More points than distinct samples used to repeat the same x,
    // drawing vertical stutters; duplicates must collapse into one
    // point carrying the highest cumulative fraction.
    Percentiles p;
    p.add(5.0);
    p.add(5.0);
    const auto pts = p.cdfPoints(11);
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_DOUBLE_EQ(pts[0].first, 5.0);
    EXPECT_DOUBLE_EQ(pts[0].second, 1.0);
}

TEST(Percentiles, CdfPointsTwoSampleDistribution)
{
    // Two distinct samples: quantiles interpolate, x values are all
    // distinct, so nothing is dropped and x is strictly increasing.
    Percentiles p;
    p.add(1.0);
    p.add(2.0);
    const auto pts = p.cdfPoints(5);
    ASSERT_EQ(pts.size(), 5u);
    for (std::size_t i = 1; i < pts.size(); ++i) {
        EXPECT_GT(pts[i].first, pts[i - 1].first);
    }
    EXPECT_DOUBLE_EQ(pts.front().first, 1.0);
    EXPECT_DOUBLE_EQ(pts.front().second, 0.0);
    EXPECT_DOUBLE_EQ(pts.back().first, 2.0);
    EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(Percentiles, CdfPointsMixedDuplicateRuns)
{
    // {1, 1, 1, 9}: the low plateau produces duplicate x values at
    // fine resolution, the tail stays interpolated and monotone.
    Percentiles p;
    for (double x : {1.0, 1.0, 1.0, 9.0}) {
        p.add(x);
    }
    const auto pts = p.cdfPoints(13);
    ASSERT_GE(pts.size(), 2u);
    ASSERT_LT(pts.size(), 13u); // the plateau collapsed
    for (std::size_t i = 1; i < pts.size(); ++i) {
        EXPECT_GT(pts[i].first, pts[i - 1].first);
        EXPECT_GT(pts[i].second, pts[i - 1].second);
    }
    EXPECT_DOUBLE_EQ(pts.front().first, 1.0);
    EXPECT_DOUBLE_EQ(pts.back().first, 9.0);
    EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(Percentiles, QuantilePanicsWhenEmpty)
{
    test::ScopedThrowErrors guard;
    Percentiles p;
    EXPECT_THROW(p.quantile(0.5), SimError);
}

/** Every quantity a report reader takes from a sample store. */
void
expectSameStore(const Percentiles &got, const Percentiles &want)
{
    ASSERT_EQ(got.count(), want.count());
    EXPECT_EQ(got.sorted(), want.sorted());
    if (want.count() == 0) {
        EXPECT_DOUBLE_EQ(got.cdfAt(1.0), 0.0);
        return;
    }
    for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0}) {
        EXPECT_EQ(got.quantile(q), want.quantile(q)) << "q=" << q;
    }
    for (double x : {-1.0, 0.0, 3.0, 12.5, 25.0, 60.0}) {
        EXPECT_EQ(got.cdfAt(x), want.cdfAt(x)) << "x=" << x;
    }
}

TEST(Percentiles, AppendMatchesAnAddLoop)
{
    // Three sources: unsorted, already queried (so stored sorted) and
    // empty. Appending them must give the store an add() loop over
    // the same samples gives.
    Rng rng(41);
    Percentiles unsorted;
    Percentiles queried;
    Percentiles empty;
    Percentiles reference;
    for (int i = 0; i < 200; ++i) {
        unsorted.add(rng.uniform(0, 50));
        queried.add(rng.uniform(-5, 25));
    }
    queried.median(); // sorts its storage in place
    for (const Percentiles *source : {&unsorted, &queried, &empty}) {
        for (double x : source->sorted()) {
            reference.add(x);
        }
    }

    Percentiles merged;
    merged.reserve(unsorted.count() + queried.count());
    merged.append(unsorted);
    merged.append(queried);
    merged.append(empty);
    expectSameStore(merged, reference);
    // Sources keep their samples.
    EXPECT_EQ(unsorted.count(), 200u);
    EXPECT_EQ(queried.count(), 200u);

    Percentiles only_empty;
    only_empty.append(empty);
    expectSameStore(only_empty, empty);
}

TEST(Percentiles, QueryAfterAppendSeesTheNewSamples)
{
    Percentiles p;
    for (int i = 1; i <= 10; ++i) {
        p.add(i);
    }
    EXPECT_DOUBLE_EQ(p.max(), 10.0); // sorted once here
    Percentiles tail;
    tail.add(30.0);
    tail.add(-3.0);
    p.append(tail);
    EXPECT_EQ(p.count(), 12u);
    EXPECT_DOUBLE_EQ(p.min(), -3.0);
    EXPECT_DOUBLE_EQ(p.max(), 30.0);
    EXPECT_DOUBLE_EQ(p.cdfAt(10.0), 11.0 / 12.0);
    EXPECT_TRUE(std::is_sorted(p.sorted().begin(), p.sorted().end()));
}

TEST(Percentiles, AppendOntoItselfPanics)
{
    test::ScopedThrowErrors guard;
    Percentiles p;
    p.add(1.0);
    EXPECT_THROW(p.append(p), SimError);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i) {
        h.add(i + 0.5);
    }
    h.add(-1.0);
    h.add(42.0);
    EXPECT_EQ(h.count(), 12u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    for (int b = 0; b < 10; ++b) {
        EXPECT_EQ(h.bucketCount(b), 1u) << b;
        EXPECT_DOUBLE_EQ(h.bucketLo(b), b);
        EXPECT_DOUBLE_EQ(h.bucketHi(b), b + 1);
    }
    EXPECT_FALSE(h.toString().empty());
}

} // namespace
} // namespace vattn
