/**
 * @file
 * Measurement helpers: running scalar statistics, percentile/CDF
 * accumulators (for Figure 10 style latency CDFs) and fixed-bucket
 * histograms.
 */

#ifndef VATTN_COMMON_STATS_HH
#define VATTN_COMMON_STATS_HH

#include <limits>
#include <string>
#include <vector>

#include "common/types.hh"

namespace vattn
{

/** Streaming mean/variance/min/max (Welford). */
class RunningStat
{
  public:
    void add(double x);

    u64 count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double sum() const { return sum_; }

    void reset();

  private:
    u64 count_ = 0;
    double mean_ = 0;
    double m2_ = 0;
    double sum_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Collects raw samples and answers percentile / CDF queries.
 * Samples are sorted lazily on first query.
 */
class Percentiles
{
  public:
    /** Inline: the engine adds one sample per emitted token. */
    void
    add(double x)
    {
        samples_.push_back(x);
        sorted_ = false;
    }
    /** Add every sample of @p other, in @p other's storage order
     *  (bulk insert; nothing is sorted here — the reader's first
     *  query sorts once). Quantiles and cdfAt see the union
     *  multiset, exactly as an add() loop would give. */
    void append(const Percentiles &other);
    u64 count() const { return samples_.size(); }

    /** Pre-size the sample store (allocation-free steady-state adds:
     *  the engine reserves for a whole run's samples up front so the
     *  per-iteration hot path never reallocates). */
    void reserve(std::size_t n) { samples_.reserve(n); }
    /** Reserved sample slots (the online path grows geometrically at
     *  submission time and needs to see where it stands). */
    std::size_t capacity() const { return samples_.capacity(); }

    /** Value at quantile q in [0, 1] (linear interpolation). */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }
    double p99() const { return quantile(0.99); }
    double mean() const;
    double min() const { return quantile(0.0); }
    double max() const { return quantile(1.0); }

    /** Fraction of samples <= x. */
    double cdfAt(double x) const;

    /**
     * Evenly spaced (value, cumulative-fraction) points for plotting a
     * CDF, like Figure 10 of the paper.
     */
    std::vector<std::pair<double, double>> cdfPoints(int num_points) const;

    const std::vector<double> &sorted() const;

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;
};

/** Fixed-width bucket histogram over [lo, hi). */
class Histogram
{
  public:
    Histogram(double lo, double hi, int num_buckets);

    void add(double x);
    u64 count() const { return total_; }
    u64 bucketCount(int b) const;
    int numBuckets() const { return static_cast<int>(buckets_.size()); }
    double bucketLo(int b) const;
    double bucketHi(int b) const;
    u64 underflow() const { return underflow_; }
    u64 overflow() const { return overflow_; }

    std::string toString(int max_width = 50) const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<u64> buckets_;
    u64 underflow_ = 0;
    u64 overflow_ = 0;
    u64 total_ = 0;
};

} // namespace vattn

#endif // VATTN_COMMON_STATS_HH
