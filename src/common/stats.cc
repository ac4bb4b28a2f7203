#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace vattn
{

void
RunningStat::add(double x)
{
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStat::variance() const
{
    if (count_ < 2) {
        return 0.0;
    }
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

void
Percentiles::append(const Percentiles &other)
{
    panic_if(&other == this, "Percentiles::append onto itself");
    other.forEachRun([this](double value, u64 n) { add(value, n); });
}

const std::vector<double> &
Percentiles::sorted() const
{
    if (!sorted_) {
        // Expand the runs in place, last run first: a run of n takes
        // at most n words, so the words still to be read always lie
        // below the samples being written.
        std::size_t read = store_.size();
        store_.resize(count_);
        std::size_t write = count_;
        while (read > 0) {
            double value = store_[--read];
            u64 n = 1;
            if (isCount(value)) {
                n = countOf(value);
                value = store_[--read];
            }
            write -= n;
            std::fill_n(store_.begin() + static_cast<std::ptrdiff_t>(write),
                        n, value);
        }
        std::sort(store_.begin(), store_.end());
        sorted_ = true;
    }
    return store_;
}

double
Percentiles::quantile(double q) const
{
    panic_if(count_ == 0, "Percentiles::quantile with no samples");
    panic_if(q < 0.0 || q > 1.0, "quantile out of range: ", q);
    const auto &s = sorted();
    if (s.size() == 1) {
        return s[0];
    }
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return s[lo] * (1.0 - frac) + s[hi] * frac;
}

double
Percentiles::mean() const
{
    if (count_ == 0) {
        return 0.0;
    }
    // One addition per sample, in storage order: the same bits as a
    // store that kept every sample apart.
    double sum = 0;
    forEachRun([&sum](double value, u64 n) {
        for (u64 i = 0; i < n; ++i) {
            sum += value;
        }
    });
    return sum / static_cast<double>(count_);
}

double
Percentiles::cdfAt(double x) const
{
    if (count_ == 0) {
        return 0.0;
    }
    const auto &s = sorted();
    const auto it = std::upper_bound(s.begin(), s.end(), x);
    return static_cast<double>(it - s.begin()) /
           static_cast<double>(s.size());
}

std::vector<std::pair<double, double>>
Percentiles::cdfPoints(int num_points) const
{
    panic_if(num_points < 2, "cdfPoints needs >= 2 points");
    std::vector<std::pair<double, double>> pts;
    if (count_ == 0) {
        return pts;
    }
    pts.reserve(static_cast<std::size_t>(num_points));
    for (int i = 0; i < num_points; ++i) {
        const double q = static_cast<double>(i) /
                         static_cast<double>(num_points - 1);
        const double x = quantile(q);
        // More points than distinct sample values repeats the same x
        // (vertical stutters in a CDF plot); a CDF has one cumulative
        // fraction per x, so keep only the highest q for each x.
        if (!pts.empty() && pts.back().first == x) {
            pts.back().second = q;
        } else {
            pts.emplace_back(x, q);
        }
    }
    return pts;
}

Histogram::Histogram(double lo, double hi, int num_buckets)
    : lo_(lo), hi_(hi),
      width_((hi - lo) / static_cast<double>(num_buckets)),
      buckets_(static_cast<std::size_t>(num_buckets), 0)
{
    panic_if(num_buckets <= 0, "Histogram needs > 0 buckets");
    panic_if(hi <= lo, "Histogram needs hi > lo");
}

void
Histogram::add(double x)
{
    ++total_;
    if (x < lo_) {
        ++underflow_;
        return;
    }
    if (x >= hi_) {
        ++overflow_;
        return;
    }
    const auto b = static_cast<std::size_t>((x - lo_) / width_);
    ++buckets_[std::min(b, buckets_.size() - 1)];
}

u64
Histogram::bucketCount(int b) const
{
    panic_if(b < 0 || b >= numBuckets(), "bucket out of range");
    return buckets_[static_cast<std::size_t>(b)];
}

double
Histogram::bucketLo(int b) const
{
    return lo_ + width_ * b;
}

double
Histogram::bucketHi(int b) const
{
    return lo_ + width_ * (b + 1);
}

std::string
Histogram::toString(int max_width) const
{
    u64 peak = 1;
    for (u64 c : buckets_) {
        peak = std::max(peak, c);
    }
    std::ostringstream oss;
    for (int b = 0; b < numBuckets(); ++b) {
        const u64 c = bucketCount(b);
        const int bar = static_cast<int>(
            static_cast<double>(c) / static_cast<double>(peak) * max_width);
        oss << "[" << bucketLo(b) << ", " << bucketHi(b) << ") "
            << std::string(static_cast<std::size_t>(bar), '#')
            << " " << c << "\n";
    }
    return oss.str();
}

} // namespace vattn
