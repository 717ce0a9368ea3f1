/// \file statistics.hpp
/// Streaming statistics, confidence intervals and mergeable histograms for
/// Monte Carlo estimates.
///
/// Every figure in the paper reports means with 95% confidence intervals over
/// n = 100 independent simulations; `RunningStat` (Welford) accumulates the
/// replications and `confidence_interval_95` turns them into the shaded
/// regions / error bars of Figures 4-6.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace mflb {

/// Numerically stable streaming mean/variance accumulator (Welford).
class RunningStat {
public:
    /// Adds one observation.
    void add(double x) noexcept;
    /// Merges another accumulator (parallel reduction; Chan et al.).
    void merge(const RunningStat& other) noexcept;

    std::size_t count() const noexcept { return count_; }
    double mean() const noexcept { return mean_; }
    /// Unbiased sample variance; 0 for fewer than two observations.
    double variance() const noexcept;
    double stddev() const noexcept;
    /// Standard error of the mean; 0 for fewer than two observations.
    double standard_error() const noexcept;
    double min() const noexcept { return min_; }
    double max() const noexcept { return max_; }

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Symmetric confidence half-width around the mean.
struct ConfidenceInterval {
    double mean = 0.0;
    double half_width = 0.0;
    std::size_t n = 0;

    double lower() const noexcept { return mean - half_width; }
    double upper() const noexcept { return mean + half_width; }
};

/// 95% CI using the Student-t critical value (normal for large n).
ConfidenceInterval confidence_interval_95(const RunningStat& stat) noexcept;

/// Two-sided Student-t critical value at 97.5% for `dof` degrees of freedom.
/// Exact tabulated values for small dof, asymptotic 1.959964 beyond.
double student_t_975(std::size_t dof) noexcept;

/// Mean of a sample.
double mean_of(std::span<const double> xs) noexcept;
/// Unbiased sample variance.
double variance_of(std::span<const double> xs) noexcept;

/// Log-bucketed integer histogram: O(1) adds, exact merges, and any
/// quantile to within one bucket. This is how the event-driven backends
/// report p50/p95/p99 sojourn times over millions of jobs without storing
/// them, and what `MetricsRegistry` histograms are made of.
///
/// Buckets. A positive double x = 2^e · (1 + f) falls in the bucket named by
/// its exponent e and the top 7 bits of its mantissa f, read off the bit
/// pattern with one shift (no log, no division). Each octave [2^e, 2^(e+1))
/// therefore splits into 128 equal buckets, whose width is at most 1/128 ≈
/// 0.78% of any value inside them. The range is fixed at [2^-24, 2^24)
/// (6144 buckets); below it (zero, negatives, subnormals) everything lands
/// in one underflow edge bucket, at or above it (+inf included) in one
/// overflow edge bucket; a NaN lands in the edge bucket its sign bit picks.
/// Range and resolution are constants, not options.
///
/// Quantiles. `quantile(p)` takes the nearest-rank definition — the
/// r-th smallest of n observations with r = max(1, ⌈p·n⌉) — and returns the
/// midpoint of the bucket holding it, so the answer is within half a bucket
/// (< 0.4%) of the exact sample quantile. The underflow bucket reports 0 and
/// the overflow bucket reports 2^24. An empty histogram reports 0.
///
/// Merging adds integer counts, so merged quantiles equal those of the
/// concatenated stream bit for bit, whatever the split and merge order.
/// Plain value type with inline storage (~48 KB): adds, merges and clears
/// never allocate.
class LogHistogram {
public:
    static constexpr int kMinExponent = -24; ///< range lower edge 2^-24.
    static constexpr int kMaxExponent = 24;  ///< range upper edge 2^24.
    static constexpr int kSubBits = 7;       ///< mantissa bits per octave.
    /// Range buckets plus the two edge buckets (index 0 and kBuckets - 1).
    static constexpr std::size_t kBuckets =
        (static_cast<std::size_t>(kMaxExponent - kMinExponent) << kSubBits) + 2;

    /// Bucket index of x (0 = underflow, kBuckets - 1 = overflow).
    static std::size_t bucket_of(double x) noexcept {
        // The sign-extended bit pattern shifted down to exponent + top
        // mantissa bits is monotone in x over the positive doubles and
        // negative for every negative one, so one clamp finds both edges.
        constexpr int kShift = 52 - kSubBits;
        constexpr std::int64_t kFirstKey = std::int64_t{1023 + kMinExponent} << kSubBits;
        const std::int64_t key = (std::bit_cast<std::int64_t>(x) >> kShift) - kFirstKey + 1;
        return static_cast<std::size_t>(
            std::clamp<std::int64_t>(key, 0, static_cast<std::int64_t>(kBuckets) - 1));
    }
    /// Lower edge of bucket b (0 for the underflow bucket).
    static double bucket_lower(std::size_t b) noexcept;
    /// Value a quantile landing in bucket b reports: its midpoint for range
    /// buckets, 0 for the underflow and 2^24 for the overflow bucket.
    static double bucket_value(std::size_t b) noexcept;

    void add(double x) noexcept {
        ++counts_[bucket_of(x)];
        ++total_;
    }
    /// Adds the other histogram's counts bucket by bucket (exact).
    void merge(const LogHistogram& other) noexcept;
    /// Forgets every observation (allocation-free).
    void clear() noexcept;

    std::uint64_t count() const noexcept { return total_; }
    /// Nearest-rank p-quantile's bucket value, p in [0, 1]; 0 when empty.
    double quantile(double p) const noexcept;

    bool operator==(const LogHistogram&) const = default;

private:
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t total_ = 0;
};

/// Fixed-width histogram over [lo, hi); values outside clamp to edge bins.
class Histogram {
public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x) noexcept;
    std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
    std::size_t bins() const noexcept { return counts_.size(); }
    std::size_t total() const noexcept { return total_; }
    double bin_lower(std::size_t i) const noexcept;
    /// Renders a compact ASCII bar chart (used by example binaries).
    std::string ascii(std::size_t width = 40) const;

private:
    double lo_;
    double hi_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
};

} // namespace mflb
