/**
 * @file
 * Lightweight statistics accumulators: running means, histograms,
 * and the geometric-mean helper used by the evaluation harness.
 */
#ifndef SIPRE_UTIL_STATISTICS_HPP
#define SIPRE_UTIL_STATISTICS_HPP

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "util/logging.hpp"

namespace sipre
{

/** Streaming mean/min/max/sum accumulator. */
class RunningStat
{
  public:
    void
    add(double x)
    {
        if (count_ == 0) {
            min_ = max_ = x;
        } else {
            if (x < min_)
                min_ = x;
            if (x > max_)
                max_ = x;
        }
        sum_ += x;
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
    double min() const { return count_ == 0 ? 0.0 : min_; }
    double max() const { return count_ == 0 ? 0.0 : max_; }

    void
    reset()
    {
        *this = RunningStat{};
    }

    /** Rebuild from serialized aggregates (campaign cache loading). */
    void
    restore(std::uint64_t count, double sum, double min_v, double max_v)
    {
        count_ = count;
        sum_ = sum;
        min_ = min_v;
        max_ = max_v;
    }

    /** Fold another accumulator in (multi-core aggregation). */
    void
    merge(const RunningStat &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0) {
            *this = other;
            return;
        }
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
        sum_ += other.sum_;
        count_ += other.count_;
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-bucket histogram over [0, bucket_width * buckets); values past
 * the end land in the overflow bucket.
 */
class Histogram
{
  public:
    Histogram(std::uint64_t bucket_width, std::size_t buckets)
        : width_(bucket_width), counts_(buckets + 1, 0)
    {
        SIPRE_ASSERT(bucket_width > 0, "Histogram bucket width must be > 0");
        SIPRE_ASSERT(buckets > 0, "Histogram needs at least one bucket");
    }

    void
    add(std::uint64_t value)
    {
        std::size_t idx = static_cast<std::size_t>(value / width_);
        if (idx >= counts_.size() - 1)
            idx = counts_.size() - 1; // overflow bucket
        ++counts_[idx];
        sum_ += value;
        ++total_;
    }

    std::uint64_t count(std::size_t bucket) const { return counts_.at(bucket); }
    std::size_t buckets() const { return counts_.size() - 1; }
    std::uint64_t width() const { return width_; }
    std::uint64_t overflow() const { return counts_.back(); }
    std::uint64_t total() const { return total_; }
    std::uint64_t sum() const { return sum_; }
    double mean() const { return total_ == 0 ? 0.0 : double(sum_) / total_; }

    /** Rebuild from serialized aggregates (campaign cache loading). */
    void
    restore(const std::vector<std::uint64_t> &counts_with_overflow,
            std::uint64_t sum)
    {
        SIPRE_ASSERT(counts_with_overflow.size() == counts_.size(),
                     "Histogram restore shape mismatch");
        counts_ = counts_with_overflow;
        sum_ = sum;
        total_ = 0;
        for (std::uint64_t c : counts_)
            total_ += c;
    }

    /** Fold another histogram in (must have identical shape). */
    void
    merge(const Histogram &other)
    {
        SIPRE_ASSERT(width_ == other.width_ &&
                         counts_.size() == other.counts_.size(),
                     "Histogram merge shape mismatch");
        for (std::size_t i = 0; i < counts_.size(); ++i)
            counts_[i] += other.counts_[i];
        sum_ += other.sum_;
        total_ += other.total_;
    }

    /** Smallest value v such that at least frac of samples are <= bucket end. */
    std::uint64_t
    percentileUpperBound(double frac) const
    {
        SIPRE_ASSERT(frac >= 0.0 && frac <= 1.0, "percentile out of range");
        const std::uint64_t goal =
            static_cast<std::uint64_t>(std::ceil(frac * total_));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            seen += counts_[i];
            if (seen >= goal)
                return (i + 1) * width_;
        }
        return counts_.size() * width_;
    }

  private:
    std::uint64_t width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t sum_ = 0;
    std::uint64_t total_ = 0;
};

/**
 * Power-of-two-bucketed histogram over the full uint64 range: bucket i
 * counts values of bit width i, i.e. bucket 0 holds zero and bucket i
 * holds [2^(i-1), 2^i). No overflow bucket can saturate, and
 * resolution stays proportional at every magnitude — the right shape
 * for latencies that span microsecond cache hits to multi-second
 * simulations.
 */
class Log2Histogram
{
  public:
    void
    add(std::uint64_t value)
    {
        ++counts_[std::bit_width(value)];
        sum_ += value;
        ++total_;
    }

    /** `count` identical samples at once (bulk-accounted idle cycles). */
    void
    add(std::uint64_t value, std::uint64_t count)
    {
        counts_[std::bit_width(value)] += count;
        sum_ += value * count;
        total_ += count;
    }

    std::uint64_t count(std::size_t bucket) const { return counts_.at(bucket); }
    std::size_t buckets() const { return counts_.size(); }
    std::uint64_t total() const { return total_; }
    std::uint64_t sum() const { return sum_; }
    double mean() const { return total_ == 0 ? 0.0 : double(sum_) / total_; }

    /** Fold another histogram in (multi-core / metrics aggregation). */
    void
    merge(const Log2Histogram &other)
    {
        for (std::size_t i = 0; i < counts_.size(); ++i)
            counts_[i] += other.counts_[i];
        sum_ += other.sum_;
        total_ += other.total_;
    }

    /** Rebuild from serialized aggregates (result-cache loading). */
    void
    restore(const std::vector<std::uint64_t> &counts, std::uint64_t sum)
    {
        SIPRE_ASSERT(counts.size() == counts_.size(),
                     "Log2Histogram restore shape mismatch");
        sum_ = sum;
        total_ = 0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            counts_[i] = counts[i];
            total_ += counts[i];
        }
    }

    void reset() { *this = Log2Histogram{}; }

    /** Inclusive upper bound of bucket i: 0, then 2^i - 1. */
    static std::uint64_t
    bucketUpperBound(std::size_t bucket)
    {
        if (bucket == 0)
            return 0;
        if (bucket >= 64)
            return ~0ull;
        return (1ull << bucket) - 1;
    }

    /** Smallest bucket bound covering at least `frac` of the samples. */
    std::uint64_t
    percentileUpperBound(double frac) const
    {
        SIPRE_ASSERT(frac >= 0.0 && frac <= 1.0, "percentile out of range");
        const std::uint64_t goal =
            static_cast<std::uint64_t>(std::ceil(frac * total_));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            seen += counts_[i];
            if (seen >= goal)
                return bucketUpperBound(i);
        }
        return bucketUpperBound(counts_.size() - 1);
    }

  private:
    std::array<std::uint64_t, 65> counts_{}; ///< bit widths 0..64
    std::uint64_t sum_ = 0;
    std::uint64_t total_ = 0;
};

/**
 * One latency distribution in microseconds, as /metrics exports it: an
 * exact count/sum/mean plus log2-bucket percentile upper bounds (the
 * next power of two), which stay meaningful from microsecond cache
 * hits up to multi-second simulations.
 */
class LatencySummary
{
  public:
    /** The exported view (service::http::prometheusSummary writes it). */
    struct Snapshot
    {
        std::uint64_t count = 0;
        double sum_us = 0.0;
        std::uint64_t p50_us = 0; ///< bucket upper bounds
        std::uint64_t p90_us = 0;
        std::uint64_t p99_us = 0;
    };

    void
    add(double us)
    {
        stat_.add(us);
        hist_.add(static_cast<std::uint64_t>(us));
    }

    std::uint64_t count() const { return stat_.count(); }
    double mean() const { return stat_.mean(); }

    Snapshot
    snapshot() const
    {
        return {stat_.count(), stat_.sum(), hist_.percentileUpperBound(0.50),
                hist_.percentileUpperBound(0.90),
                hist_.percentileUpperBound(0.99)};
    }

  private:
    RunningStat stat_;
    Log2Histogram hist_;
};

/** Geometric mean of a set of (positive) ratios. Returns 0 when empty. */
inline double
geomean(std::span<const double> values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        SIPRE_ASSERT(v > 0.0, "geomean requires positive values");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace sipre

#endif // SIPRE_UTIL_STATISTICS_HPP
