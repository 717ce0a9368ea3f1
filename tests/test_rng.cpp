// Unit and statistical tests for the xoshiro256** RNG and its samplers.
#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <vector>

namespace mflb {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        equal += (a() == b()) ? 1 : 0;
    }
    EXPECT_LT(equal, 4);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
    Rng parent(7);
    Rng parent2(7);
    Rng child_a = parent.split();
    Rng child_a2 = parent2.split();
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(child_a(), child_a2());
    }
    // Child differs from a fresh parent's continued stream.
    Rng parent3(7);
    Rng child = parent3.split();
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        equal += (child() == parent3()) ? 1 : 0;
    }
    EXPECT_LT(equal, 4);
}

TEST(Rng, ForkIsDeterministicAndLeavesParentUntouched) {
    const Rng parent(7);
    Rng child_a = parent.fork(4);
    Rng child_a2 = parent.fork(4);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(child_a(), child_a2());
    }
    // fork() is const: the parent stream is identical to a never-forked one.
    Rng forked_parent(7);
    (void)forked_parent.fork(0);
    (void)forked_parent.fork(1);
    Rng fresh(7);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(forked_parent(), fresh());
    }
}

TEST(Rng, ForkStreamsDifferByIdAndFromParent) {
    const Rng parent(11);
    Rng a = parent.fork(0);
    Rng b = parent.fork(1);
    Rng c = parent.fork(0xFFFFFFFFFFFFULL);
    Rng parent_stream(11);
    int equal_ab = 0, equal_ac = 0, equal_ap = 0;
    for (int i = 0; i < 64; ++i) {
        const auto xa = a(), xb = b(), xc = c(), xp = parent_stream();
        equal_ab += xa == xb ? 1 : 0;
        equal_ac += xa == xc ? 1 : 0;
        equal_ap += xa == xp ? 1 : 0;
    }
    EXPECT_LT(equal_ab, 4);
    EXPECT_LT(equal_ac, 4);
    EXPECT_LT(equal_ap, 4);
}

TEST(Rng, ForkCrossStreamIndependenceSanity) {
    // Adjacent stream ids (the replication-seeding pattern) must be
    // uncorrelated: Pearson correlation of paired uniforms near zero, and
    // each stream's mean near 1/2.
    const Rng parent(13);
    Rng a = parent.fork(41);
    Rng b = parent.fork(42);
    const int n = 20000;
    double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
    for (int i = 0; i < n; ++i) {
        const double x = a.uniform();
        const double y = b.uniform();
        sa += x;
        sb += y;
        saa += x * x;
        sbb += y * y;
        sab += x * y;
    }
    const double mean_a = sa / n, mean_b = sb / n;
    const double cov = sab / n - mean_a * mean_b;
    const double var_a = saa / n - mean_a * mean_a;
    const double var_b = sbb / n - mean_b * mean_b;
    const double corr = cov / std::sqrt(var_a * var_b);
    EXPECT_NEAR(mean_a, 0.5, 0.01);
    EXPECT_NEAR(mean_b, 0.5, 0.01);
    EXPECT_LT(std::abs(corr), 0.03);
}

TEST(Rng, ForkDependsOnParentState) {
    Rng early(17);
    const Rng late_source(17);
    Rng late = late_source;
    (void)late(); // advance one draw: forks must now differ
    Rng child_early = early.fork(5);
    Rng child_late = late.fork(5);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        equal += (child_early() == child_late()) ? 1 : 0;
    }
    EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, UniformBelowIsUnbiased) {
    Rng rng(5);
    std::vector<int> counts(7, 0);
    const int n = 70000;
    for (int i = 0; i < n; ++i) {
        ++counts[static_cast<std::size_t>(rng.uniform_below(7))];
    }
    for (int c : counts) {
        EXPECT_NEAR(static_cast<double>(c), n / 7.0, 5.0 * std::sqrt(n / 7.0));
    }
}

TEST(Rng, ExponentialMoments) {
    Rng rng(11);
    const double rate = 2.5;
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.exponential(rate);
        ASSERT_GT(x, 0.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 1.0 / rate, 0.01);
    EXPECT_NEAR(var, 1.0 / (rate * rate), 0.02);
}

TEST(Rng, StandardExponentialZigguratHasTheExpOneLaw) {
    // P(X > x) = e^(-x) at probes inside the inner rectangles (0.01, 0.5,
    // 1, 3), in the wedges near the base (7), at the tail edge r and in the
    // tail (10), plus the mean and the variance, each within 4 SE.
    Rng rng(21);
    const ExpZiggurat& zig = ExpZiggurat::get();
    const std::array<double, 7> probes{0.01, 0.5, 1.0, 3.0, 7.0, ExpZiggurat::kTail, 10.0};
    std::array<std::uint64_t, 7> above{};
    double sum = 0.0, sum_sq_dev = 0.0; // Σ x and Σ (x − 1)², about the known mean
    const int n = 10'000'000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.standard_exponential(zig);
        ASSERT_GE(x, 0.0);
        sum += x;
        sum_sq_dev += (x - 1.0) * (x - 1.0);
        for (std::size_t k = 0; k < probes.size(); ++k) {
            above[k] += x > probes[k] ? 1 : 0;
        }
    }
    for (std::size_t k = 0; k < probes.size(); ++k) {
        const double p = std::exp(-probes[k]);
        const double se = std::sqrt(p * (1.0 - p) / n);
        EXPECT_NEAR(static_cast<double>(above[k]) / n, p, 4.0 * se) << "x = " << probes[k];
    }
    // Exp(1): variance 1, and Var((X − 1)²) = E(X − 1)⁴ − 1 = 9 − 1 = 8.
    EXPECT_NEAR(sum / n, 1.0, 4.0 / std::sqrt(n));
    EXPECT_NEAR(sum_sq_dev / n, 1.0, 4.0 * std::sqrt(8.0 / n));
}

TEST(Rng, StandardExponentialIsAFunctionOfTheStream) {
    // Forked twins give the same samples, and the default tables are the
    // shared ones a hot loop passes in.
    const Rng parent(5);
    Rng a = parent.fork(3);
    Rng b = parent.fork(3);
    for (int i = 0; i < 100000; ++i) {
        ASSERT_EQ(a.standard_exponential(), b.standard_exponential(ExpZiggurat::get()));
    }
    EXPECT_EQ(a(), b()); // both consumed the same number of draws
}

TEST(Rng, NormalMoments) {
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, PoissonSmallAndLargeMean) {
    Rng rng(17);
    for (const double mean : {0.3, 4.0, 80.0}) {
        double sum = 0.0, sq = 0.0;
        const int n = 50000;
        for (int i = 0; i < n; ++i) {
            const double x = static_cast<double>(rng.poisson(mean));
            sum += x;
            sq += x * x;
        }
        const double sample_mean = sum / n;
        const double sample_var = sq / n - sample_mean * sample_mean;
        EXPECT_NEAR(sample_mean, mean, 6.0 * std::sqrt(mean / n)) << "mean=" << mean;
        EXPECT_NEAR(sample_var, mean, 0.1 * mean + 0.05) << "mean=" << mean;
    }
}

TEST(Rng, PoissonZeroMean) {
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(rng.poisson(0.0), 0u);
    }
}

TEST(Rng, BinomialMoments) {
    Rng rng(23);
    const std::uint64_t trials = 200;
    const double p = 0.3;
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = static_cast<double>(rng.binomial(trials, p));
        ASSERT_LE(x, static_cast<double>(trials));
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, trials * p, 0.5);
    EXPECT_NEAR(var, trials * p * (1 - p), 2.5);
}

TEST(Rng, BinomialLargeMeanBtrsBranchMatchesExactPmf) {
    // Chi-square-style check of the BTRS sampler: empirical frequencies of
    // Binomial(100, 0.3) vs the exact pmf over a central window.
    Rng rng(101);
    const std::uint64_t n = 100;
    const double p = 0.3;
    const int reps = 200000;
    std::vector<int> counts(101, 0);
    for (int i = 0; i < reps; ++i) {
        ++counts[static_cast<std::size_t>(rng.binomial(n, p))];
    }
    // pmf via logs to avoid overflow.
    auto log_pmf = [&](int k) {
        return std::lgamma(101.0) - std::lgamma(k + 1.0) - std::lgamma(101.0 - k) +
               k * std::log(p) + (100.0 - k) * std::log(1 - p);
    };
    for (int k = 18; k <= 43; ++k) { // central window, pmf >= ~1e-3
        const double expected = std::exp(log_pmf(k)) * reps;
        const double tolerance = 5.0 * std::sqrt(expected) + 2.0;
        EXPECT_NEAR(static_cast<double>(counts[static_cast<std::size_t>(k)]), expected,
                    tolerance)
            << "k=" << k;
    }
}

TEST(Rng, BinomialHugeNIsFastAndAccurate) {
    Rng rng(103);
    const std::uint64_t n = 1000000;
    const double p = 0.001;
    double sum = 0.0, sq = 0.0;
    const int reps = 20000;
    for (int i = 0; i < reps; ++i) {
        const double x = static_cast<double>(rng.binomial(n, p));
        sum += x;
        sq += x * x;
    }
    const double mean = sum / reps;
    const double var = sq / reps - mean * mean;
    EXPECT_NEAR(mean, 1000.0, 2.0);
    EXPECT_NEAR(var, 999.0, 60.0);
}

TEST(Rng, BinomialEdgeCases) {
    Rng rng(29);
    EXPECT_EQ(rng.binomial(0, 0.5), 0u);
    EXPECT_EQ(rng.binomial(10, 0.0), 0u);
    EXPECT_EQ(rng.binomial(10, 1.0), 10u);
}

TEST(Rng, CategoricalFollowsWeights) {
    Rng rng(31);
    const std::vector<double> weights{1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    const int n = 60000;
    for (int i = 0; i < n; ++i) {
        ++counts[rng.categorical(weights)];
    }
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, MultinomialConservesTrialsAndMatchesMarginals) {
    Rng rng(37);
    const std::vector<double> p{0.2, 0.5, 0.25, 0.05};
    const std::uint64_t n = 10000;
    std::vector<double> totals(4, 0.0);
    const int reps = 300;
    for (int r = 0; r < reps; ++r) {
        const auto counts = rng.multinomial(n, p);
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            sum += counts[i];
            totals[i] += static_cast<double>(counts[i]);
        }
        ASSERT_EQ(sum, n);
    }
    for (std::size_t i = 0; i < p.size(); ++i) {
        EXPECT_NEAR(totals[i] / (reps * static_cast<double>(n)), p[i], 0.005);
    }
}

TEST(Rng, PermutationIsAPermutation) {
    Rng rng(41);
    const auto perm = rng.permutation(257);
    std::vector<bool> seen(257, false);
    for (std::uint32_t v : perm) {
        ASSERT_LT(v, 257u);
        ASSERT_FALSE(seen[v]);
        seen[v] = true;
    }
}

TEST(Rng, SplitMix64KnownSequenceIsStable) {
    std::uint64_t state = 0;
    const std::uint64_t first = splitmix64(state);
    const std::uint64_t second = splitmix64(state);
    EXPECT_NE(first, second);
    std::uint64_t state2 = 0;
    EXPECT_EQ(splitmix64(state2), first);
}

} // namespace
} // namespace mflb
