#include "support/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace mflb {

void RunningStat::add(double x) noexcept {
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void RunningStat::merge(const RunningStat& other) noexcept {
    if (other.count_ == 0) {
        return;
    }
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double RunningStat::variance() const noexcept {
    if (count_ < 2) {
        return 0.0;
    }
    return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const noexcept {
    return std::sqrt(variance());
}

double RunningStat::standard_error() const noexcept {
    if (count_ < 2) {
        return 0.0;
    }
    return stddev() / std::sqrt(static_cast<double>(count_));
}

double student_t_975(std::size_t dof) noexcept {
    // Two-sided 95% critical values; the tail of the table converges quickly.
    static constexpr double kTable[] = {
        0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
        2.201,  2.179,  2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080,
        2.074,  2.069,  2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
    if (dof == 0) {
        return std::numeric_limits<double>::infinity();
    }
    if (dof < std::size(kTable)) {
        return kTable[dof];
    }
    if (dof < 60) {
        return 2.00;
    }
    if (dof < 120) {
        return 1.98;
    }
    return 1.959964;
}

ConfidenceInterval confidence_interval_95(const RunningStat& stat) noexcept {
    ConfidenceInterval ci;
    ci.mean = stat.mean();
    ci.n = stat.count();
    if (stat.count() >= 2) {
        ci.half_width = student_t_975(stat.count() - 1) * stat.standard_error();
    }
    return ci;
}

double mean_of(std::span<const double> xs) noexcept {
    RunningStat s;
    for (double x : xs) {
        s.add(x);
    }
    return s.mean();
}

double variance_of(std::span<const double> xs) noexcept {
    RunningStat s;
    for (double x : xs) {
        s.add(x);
    }
    return s.variance();
}

double LogHistogram::bucket_lower(std::size_t b) noexcept {
    if (b == 0) {
        return 0.0;
    }
    // Inverse of bucket_of: bucket b >= 1 starts at the double whose
    // exponent and top mantissa bits spell key b - 1 above 2^kMinExponent.
    constexpr std::uint64_t kFirstKey = std::uint64_t{1023 + kMinExponent} << kSubBits;
    return std::bit_cast<double>((kFirstKey + b - 1) << (52 - kSubBits));
}

double LogHistogram::bucket_value(std::size_t b) noexcept {
    if (b == 0 || b + 1 == kBuckets) {
        return bucket_lower(b);
    }
    return 0.5 * (bucket_lower(b) + bucket_lower(b + 1));
}

void LogHistogram::merge(const LogHistogram& other) noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) {
        counts_[b] += other.counts_[b];
    }
    total_ += other.total_;
}

void LogHistogram::clear() noexcept {
    counts_.fill(0);
    total_ = 0;
}

double LogHistogram::quantile(double p) const noexcept {
    if (total_ == 0) {
        return 0.0;
    }
    const double n = static_cast<double>(total_);
    const auto rank = static_cast<std::uint64_t>(std::clamp(std::ceil(p * n), 1.0, n));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        seen += counts_[b];
        if (seen >= rank) {
            return bucket_value(b);
        }
    }
    return bucket_value(kBuckets - 1);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins == 0 ? 1 : bins, 0) {}

void Histogram::add(double x) noexcept {
    const double span = hi_ - lo_;
    std::ptrdiff_t idx = 0;
    if (span > 0.0) {
        idx = static_cast<std::ptrdiff_t>((x - lo_) / span * static_cast<double>(counts_.size()));
    }
    idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(idx)];
    ++total_;
}

double Histogram::bin_lower(std::size_t i) const noexcept {
    return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

std::string Histogram::ascii(std::size_t width) const {
    std::size_t peak = 1;
    for (std::size_t c : counts_) {
        peak = std::max(peak, c);
    }
    std::ostringstream out;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const std::size_t bar = counts_[i] * width / peak;
        out << "[" << bin_lower(i) << ", " << bin_lower(i + 1) << ") ";
        for (std::size_t j = 0; j < bar; ++j) {
            out << '#';
        }
        out << ' ' << counts_[i] << '\n';
    }
    return out.str();
}

} // namespace mflb
