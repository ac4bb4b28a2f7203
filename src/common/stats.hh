/**
 * @file
 * Measurement helpers: running scalar statistics, percentile/CDF
 * accumulators (for Figure 10 style latency CDFs) and fixed-bucket
 * histograms.
 */

#ifndef VATTN_COMMON_STATS_HH
#define VATTN_COMMON_STATS_HH

#include <bit>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hh"
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
 * Collects samples and answers percentile / CDF queries.
 *
 * Samples are stored in insertion order as runs of bit-identical
 * values: a lone sample is its value, a run of n > 1 is its value
 * followed by a count word (a NaN bit pattern no arithmetic produces).
 * add() extends the last run when the value matches, and add(x, n)
 * adds n copies at once (a decode iteration emits one token gap for
 * its whole batch). The store never holds more words than samples, so
 * reserve(n) keeps n samples' worth of adds allocation-free. The first
 * query expands the runs in place and sorts them, after which the
 * store is exactly the sorted samples; every query sees the same
 * multiset, and mean() the same order, as a store that kept each
 * sample apart.
 */
class Percentiles
{
  public:
    /** Inline: the engine adds one sample per emitted token. */
    void add(double x) { add(x, 1); }
    /** Add @p n samples of value @p x (n == 0 adds nothing). */
    void
    add(double x, u64 n)
    {
        if (n == 0) {
            return;
        }
        panic_if(isCount(x) || n > kMaxCount,
                 "Percentiles::add of a reserved NaN or of ", n,
                 " samples at once");
        count_ += n;
        sorted_ = false;
        const std::size_t size = store_.size();
        if (size >= 2 && isCount(store_[size - 1]) &&
            sameBits(store_[size - 2], x)) {
            const u64 merged = countOf(store_[size - 1]) + n;
            panic_if(merged > kMaxCount, "Percentiles run of ", merged,
                     " samples");
            store_[size - 1] = countWord(merged);
        } else if (size >= 1 && sameBits(store_[size - 1], x)) {
            store_.push_back(countWord(n + 1));
        } else {
            store_.push_back(x);
            if (n > 1) {
                store_.push_back(countWord(n));
            }
        }
    }
    /** Add every sample of @p other, in @p other's storage order
     *  (bulk insert of its runs; nothing is sorted here — the
     *  reader's first query sorts once). Quantiles and cdfAt see the
     *  union multiset, exactly as an add() loop would give. */
    void append(const Percentiles &other);
    u64 count() const { return count_; }
    /** Stored words: at most count(), fewer when runs repeat. */
    std::size_t stored() const { return store_.size(); }

    /** Pre-size the store for @p n samples (allocation-free
     *  steady-state adds: the engine reserves for a whole run's
     *  samples up front so the per-iteration hot path never
     *  reallocates). */
    void reserve(std::size_t n) { store_.reserve(n); }
    /** Reserved sample slots (the online path grows geometrically at
     *  submission time and needs to see where it stands). */
    std::size_t capacity() const { return store_.capacity(); }

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

    /** Every sample, ascending (count() entries). */
    const std::vector<double> &sorted() const;

  private:
    /** Count words: sign and exponent set, quiet bit clear, a tag bit
     *  and the count in the low 50 bits (a signalling NaN). */
    static constexpr u64 kCountTag = 0xFFF4'0000'0000'0000ULL;
    static constexpr u64 kMaxCount = (u64{1} << 50) - 1;

    static bool
    sameBits(double a, double b)
    {
        return std::bit_cast<u64>(a) == std::bit_cast<u64>(b);
    }
    static bool
    isCount(double word)
    {
        return (std::bit_cast<u64>(word) & ~kMaxCount) == kCountTag;
    }
    static u64
    countOf(double word)
    {
        return std::bit_cast<u64>(word) & kMaxCount;
    }
    static double
    countWord(u64 n)
    {
        return std::bit_cast<double>(kCountTag | n);
    }
    /** Call @p fn(value, count) for each run, in storage order. */
    template <typename Fn>
    void
    forEachRun(Fn &&fn) const
    {
        for (std::size_t i = 0; i < store_.size(); ++i) {
            if (i + 1 < store_.size() && isCount(store_[i + 1])) {
                fn(store_[i], countOf(store_[i + 1]));
                ++i;
            } else {
                fn(store_[i], u64{1});
            }
        }
    }

    mutable std::vector<double> store_;
    u64 count_ = 0;
    /** store_ holds every sample, ascending, one word each. */
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
