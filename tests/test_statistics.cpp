// Tests for Welford accumulation, merging, confidence intervals, and the
// log-bucketed histogram behind the sojourn and telemetry quantiles.
#include "support/statistics.hpp"
#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace mflb {
namespace {

TEST(RunningStat, MatchesNaiveMeanAndVariance) {
    const std::vector<double> xs{1.0, 2.0, 4.5, -3.0, 0.25, 10.0};
    RunningStat stat;
    for (double x : xs) {
        stat.add(x);
    }
    EXPECT_EQ(stat.count(), xs.size());
    EXPECT_NEAR(stat.mean(), mean_of(xs), 1e-12);
    EXPECT_NEAR(stat.variance(), variance_of(xs), 1e-12);
    EXPECT_DOUBLE_EQ(stat.min(), -3.0);
    EXPECT_DOUBLE_EQ(stat.max(), 10.0);
}

TEST(RunningStat, SingleObservationHasZeroVariance) {
    RunningStat stat;
    stat.add(5.0);
    EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stat.standard_error(), 0.0);
}

TEST(RunningStat, MergeEqualsSequential) {
    RunningStat all, left, right;
    for (int i = 0; i < 50; ++i) {
        const double x = std::sin(static_cast<double>(i)) * 3.0 + 1.0;
        all.add(x);
        (i < 20 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStat, MergeWithEmptyIsNoop) {
    RunningStat a, b;
    a.add(1.0);
    a.add(2.0);
    const double mean_before = a.mean();
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.mean(), mean_before);
    b.merge(a);
    EXPECT_DOUBLE_EQ(b.mean(), mean_before);
}

TEST(ConfidenceInterval, WidthScalesWithSampleSize) {
    RunningStat small, big;
    for (int i = 0; i < 10; ++i) {
        small.add(i % 2 == 0 ? 1.0 : -1.0);
    }
    for (int i = 0; i < 1000; ++i) {
        big.add(i % 2 == 0 ? 1.0 : -1.0);
    }
    const auto ci_small = confidence_interval_95(small);
    const auto ci_big = confidence_interval_95(big);
    EXPECT_GT(ci_small.half_width, ci_big.half_width);
    EXPECT_NEAR(ci_big.mean, 0.0, 1e-12);
    EXPECT_LE(ci_big.lower(), ci_big.mean);
    EXPECT_GE(ci_big.upper(), ci_big.mean);
}

TEST(ConfidenceInterval, CoversTrueMeanApproximately) {
    // Property: over repeated experiments, the 95% CI covers the true mean
    // about 95% of the time (allow generous slack for 200 trials).
    std::uint64_t seed = 12345;
    int covered = 0;
    const int trials = 200;
    for (int trial = 0; trial < trials; ++trial) {
        RunningStat stat;
        for (int i = 0; i < 40; ++i) {
            // Deterministic pseudo-random uniform in [0, 1) via splitmix64.
            const double u =
                static_cast<double>(splitmix64(seed) >> 11) * 0x1.0p-53;
            stat.add(u);
        }
        const auto ci = confidence_interval_95(stat);
        if (ci.lower() <= 0.5 && 0.5 <= ci.upper()) {
            ++covered;
        }
    }
    EXPECT_GE(covered, static_cast<int>(trials * 0.88));
}

TEST(StudentT, CriticalValuesDecreaseToNormal) {
    EXPECT_GT(student_t_975(1), student_t_975(2));
    EXPECT_GT(student_t_975(5), student_t_975(30));
    EXPECT_NEAR(student_t_975(10000), 1.959964, 1e-6);
}

/// The exact nearest-rank p-quantile: the r-th smallest sample with
/// r = max(1, ceil(p * n)).
double nearest_rank(std::vector<double> xs, double p) {
    std::sort(xs.begin(), xs.end());
    const double n = static_cast<double>(xs.size());
    const auto rank = static_cast<std::size_t>(std::clamp(std::ceil(p * n), 1.0, n));
    return xs[rank - 1];
}

/// Width of the bucket holding x (x inside the histogram's range).
double bucket_width(double x) {
    const std::size_t b = LogHistogram::bucket_of(x);
    return LogHistogram::bucket_lower(b + 1) - LogHistogram::bucket_lower(b);
}

TEST(LogHistogram, BucketsTileTheRangeAtUnderOnePercentWidth) {
    constexpr std::size_t last = LogHistogram::kBuckets - 1;
    EXPECT_EQ(LogHistogram::kBuckets, 48u * 128u + 2u);
    EXPECT_EQ(LogHistogram::bucket_lower(1), std::ldexp(1.0, -24));
    EXPECT_EQ(LogHistogram::bucket_lower(last), std::ldexp(1.0, 24));
    for (std::size_t b = 1; b < last; ++b) {
        const double lo = LogHistogram::bucket_lower(b);
        const double hi = LogHistogram::bucket_lower(b + 1);
        ASSERT_LT(lo, hi) << b;
        ASSERT_LE((hi - lo) / lo, 1.0 / 128.0) << b;
        // Both edges of the half-open bucket map back to it.
        ASSERT_EQ(LogHistogram::bucket_of(lo), b);
        ASSERT_EQ(LogHistogram::bucket_of(std::nextafter(hi, 0.0)), b);
        const double mid = LogHistogram::bucket_value(b);
        ASSERT_TRUE(lo < mid && mid < hi) << b;
    }
}

TEST(LogHistogram, QuantilesWithinOneBucketOfExactNearestRank) {
    Rng rng(71);
    const int n = 50000;
    std::vector<double> exponential, normal, pareto;
    LogHistogram he, hn, hp;
    for (int i = 0; i < n; ++i) {
        const double e = rng.exponential(1.0);
        const double g = rng.normal(10.0, 2.0);
        // Pareto(x_m = 1, shape 1.2): infinite variance, a heavy right tail.
        const double t = std::pow(1.0 - rng.uniform(), -1.0 / 1.2);
        exponential.push_back(e);
        normal.push_back(g);
        pareto.push_back(t);
        he.add(e);
        hn.add(g);
        hp.add(t);
    }
    const struct {
        const char* name;
        const std::vector<double>& xs;
        const LogHistogram& h;
    } cases[] = {{"exponential", exponential, he}, {"normal", normal, hn}, {"pareto", pareto, hp}};
    for (const auto& c : cases) {
        EXPECT_EQ(c.h.count(), static_cast<std::uint64_t>(n));
        for (const double p : {0.5, 0.95, 0.99}) {
            const double exact = nearest_rank(c.xs, p);
            const double got = c.h.quantile(p);
            // The estimate is the midpoint of the bucket holding the exact
            // nearest-rank sample, so it sits within half a bucket of it.
            EXPECT_EQ(LogHistogram::bucket_of(got), LogHistogram::bucket_of(exact))
                << c.name << " p" << p;
            EXPECT_LE(std::abs(got - exact), bucket_width(exact)) << c.name << " p" << p;
            EXPECT_LE(std::abs(got - exact), exact / 256.0) << c.name << " p" << p;
        }
        EXPECT_LT(c.h.quantile(0.5), c.h.quantile(0.95)) << c.name;
        EXPECT_LT(c.h.quantile(0.95), c.h.quantile(0.99)) << c.name;
    }
}

TEST(LogHistogram, NearestRankOnSmallSamples) {
    LogHistogram h;
    for (const double x : {4.0, 1.0, 3.0, 2.0}) {
        h.add(x);
    }
    const auto value_of = [](double x) {
        return LogHistogram::bucket_value(LogHistogram::bucket_of(x));
    };
    EXPECT_EQ(h.quantile(0.0), value_of(1.0)); // rank clamps up to 1.
    EXPECT_EQ(h.quantile(0.25), value_of(1.0));
    EXPECT_EQ(h.quantile(0.5), value_of(2.0)); // ceil(0.5 * 4) = 2.
    EXPECT_EQ(h.quantile(0.51), value_of(3.0));
    EXPECT_EQ(h.quantile(0.99), value_of(4.0));
    EXPECT_EQ(h.quantile(1.0), value_of(4.0));
}

TEST(LogHistogram, EmptyAndConstantStreams) {
    LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.quantile(0.99), 0.0);
    for (int i = 0; i < 1000; ++i) {
        h.add(5.0);
    }
    EXPECT_EQ(h.count(), 1000u);
    for (const double p : {0.0, 0.5, 0.95, 0.99, 1.0}) {
        EXPECT_EQ(h.quantile(p), h.quantile(0.5));
        EXPECT_NEAR(h.quantile(p), 5.0, 5.0 / 256.0);
    }
    h.clear();
    EXPECT_EQ(h, LogHistogram{});
    EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(LogHistogram, NonPositiveAndOutOfRangeValuesLandInEdgeBuckets) {
    constexpr std::size_t last = LogHistogram::kBuckets - 1;
    const double inf = std::numeric_limits<double>::infinity();
    for (const double x : {0.0, -0.0, -1.0, -inf, 1e-30, std::ldexp(1.0, -25),
                           std::nextafter(std::ldexp(1.0, -24), 0.0),
                           std::numeric_limits<double>::denorm_min()}) {
        EXPECT_EQ(LogHistogram::bucket_of(x), 0u) << x;
    }
    EXPECT_EQ(LogHistogram::bucket_of(std::ldexp(1.0, -24)), 1u);
    EXPECT_EQ(LogHistogram::bucket_of(std::nextafter(std::ldexp(1.0, 24), 0.0)), last - 1);
    for (const double x : {std::ldexp(1.0, 24), 1e30, std::numeric_limits<double>::max(), inf}) {
        EXPECT_EQ(LogHistogram::bucket_of(x), last) << x;
    }

    // Edge buckets report the clamped value: 0 below the range, 2^24 above.
    LogHistogram low;
    for (const double x : {0.0, -2.0, 1e-30}) {
        low.add(x);
    }
    EXPECT_EQ(low.count(), 3u);
    EXPECT_EQ(low.quantile(0.5), 0.0);
    EXPECT_EQ(low.quantile(0.99), 0.0);
    LogHistogram high;
    for (const double x : {1e9, 1e30, inf}) {
        high.add(x);
    }
    EXPECT_EQ(high.quantile(0.5), std::ldexp(1.0, 24));

    // Mixed: two non-positive values below three in-range ones.
    LogHistogram mixed;
    for (const double x : {-1.0, 0.0, 1.0, 2.0, 1e40}) {
        mixed.add(x);
    }
    EXPECT_EQ(mixed.quantile(0.4), 0.0);  // rank 2: the 0.
    EXPECT_NEAR(mixed.quantile(0.6), 1.0, 1.0 / 256.0); // rank 3: the 1.
    EXPECT_EQ(mixed.quantile(1.0), std::ldexp(1.0, 24)); // rank 5: clamped.
}

TEST(LogHistogram, AnySplitMergedInAnyOrderEqualsTheSingleStream) {
    // The sharded-DES and telemetry-lane reduction shape: a stream split
    // into K parts, merged in any order, is the single-stream histogram
    // bit for bit — counts, totals and therefore every quantile.
    Rng rng(77);
    std::vector<double> xs;
    LogHistogram single;
    for (int i = 0; i < 20000; ++i) {
        // Exponential body plus a heavy tail and a few edge-bucket values.
        double x = rng.exponential(0.7);
        if (i % 97 == 0) {
            x = std::pow(1.0 - rng.uniform(), -1.0 / 1.1);
        } else if (i % 1009 == 0) {
            x = i % 2 == 0 ? 0.0 : 1e30;
        }
        xs.push_back(x);
        single.add(x);
    }
    for (const std::size_t k : {1u, 2u, 3u, 8u, 13u}) {
        SCOPED_TRACE(k);
        std::vector<LogHistogram> parts(k);
        for (std::size_t i = 0; i < xs.size(); ++i) {
            parts[rng.uniform_below(k)].add(xs[i]); // random split
        }
        std::vector<std::size_t> order(k);
        for (std::size_t i = 0; i < k; ++i) {
            order[i] = i;
        }
        for (int trial = 0; trial < 4; ++trial) {
            // trial 0 ascending, 1 descending, then random permutations.
            if (trial == 1) {
                std::reverse(order.begin(), order.end());
            } else if (trial > 1) {
                for (std::size_t i = k; i > 1; --i) {
                    std::swap(order[i - 1], order[rng.uniform_below(i)]);
                }
            }
            LogHistogram merged;
            for (const std::size_t i : order) {
                merged.merge(parts[i]);
            }
            EXPECT_EQ(merged, single);
            for (const double p : {0.5, 0.95, 0.99}) {
                EXPECT_EQ(merged.quantile(p), single.quantile(p));
            }
        }
        // A pairwise tree gives the same histogram as the linear fold.
        while (parts.size() > 1) {
            std::vector<LogHistogram> next((parts.size() + 1) / 2);
            for (std::size_t i = 0; i < parts.size(); ++i) {
                next[i / 2].merge(parts[i]);
            }
            parts = std::move(next);
        }
        EXPECT_EQ(parts[0], single);
    }
    // Merging an empty histogram changes nothing; a merged histogram keeps
    // accepting observations.
    LogHistogram copy = single;
    copy.merge(LogHistogram{});
    EXPECT_EQ(copy, single);
    copy.add(1.0);
    EXPECT_EQ(copy.count(), single.count() + 1);
}

TEST(Histogram, BinsAndClamping) {
    Histogram h(0.0, 10.0, 5);
    h.add(-1.0); // clamps to first bin
    h.add(0.5);
    h.add(9.99);
    h.add(42.0); // clamps to last bin
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bin_count(0), 2u);
    EXPECT_EQ(h.bin_count(4), 2u);
    EXPECT_DOUBLE_EQ(h.bin_lower(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bin_lower(4), 8.0);
    EXPECT_FALSE(h.ascii().empty());
}

} // namespace
} // namespace mflb
