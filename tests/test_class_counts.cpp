// Exact-law tests for the class-level Aggregated draw (field/arrival_flow):
// `sample_class_totals` followed by `ClassCountSampler::sample` must yield
// per-queue client counts distributed exactly as Multinomial(N, p) with a
// class-constant p. End-to-end backend comparisons cannot see this — every
// backend calls the same helper — so the law is pinned here: a χ² test over
// every count vector at small N (default means, forced means, and the
// capacity fallback), and moments at one shard's shape of the sharded
// Table-1 benchmark (125k queues, N = 1.25·10^7).
#include "field/arrival_flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

namespace mflb {
namespace {

// Three queues in class 0 and one (queue 1) in class 1, N = 20 clients with
// p = (0.3, 0.1, 0.3, 0.3): class 0 draws N_0 ≈ 18, so μ_0 ≈ 1.8 and the
// Poisson pass, redraws and top-ups all run; class 1's lone queue takes N_1.
constexpr std::uint64_t kClients = 20;
const std::vector<int> kStates{0, 1, 0, 0};
const std::vector<int> kClassQueues{3, 1};
const std::vector<double> kClassSums{1.2, 0.4}; // σ_z = M·p_z with M = 4.
const std::vector<double> kProbs{0.3, 0.1, 0.3, 0.3};

using Counts = std::array<std::uint64_t, 4>;

/// Wilson–Hilferty z-score of a χ² statistic of `samples` count vectors,
/// each drawn by `draw`, against the exact Multinomial(kClients, kProbs)
/// pmf over all C(23, 3) = 1771 vectors; cells expected below 5 are pooled.
double chi2_z(const std::function<void(std::span<std::uint64_t>)>& draw, int samples) {
    std::map<Counts, std::uint64_t> seen;
    Counts counts{};
    for (int i = 0; i < samples; ++i) {
        draw(counts);
        ++seen[counts];
    }
    double chi2 = 0.0;
    double pooled_expected = 0.0;
    std::uint64_t pooled_observed = 0;
    std::size_t cells = 0;
    std::uint64_t covered = 0;
    const double log_n_fact = std::lgamma(static_cast<double>(kClients) + 1.0);
    for (std::uint64_t a = 0; a <= kClients; ++a) {
        for (std::uint64_t b = 0; a + b <= kClients; ++b) {
            for (std::uint64_t c = 0; a + b + c <= kClients; ++c) {
                const Counts v{a, b, c, kClients - a - b - c};
                double log_p = log_n_fact;
                for (std::size_t j = 0; j < 4; ++j) {
                    const auto x = static_cast<double>(v[j]);
                    log_p += x * std::log(kProbs[j]) - std::lgamma(x + 1.0);
                }
                const double expected = static_cast<double>(samples) * std::exp(log_p);
                const auto it = seen.find(v);
                const std::uint64_t observed = it == seen.end() ? 0 : it->second;
                covered += observed;
                if (expected < 5.0) {
                    pooled_expected += expected;
                    pooled_observed += observed;
                    continue;
                }
                const double d = static_cast<double>(observed) - expected;
                chi2 += d * d / expected;
                ++cells;
            }
        }
    }
    EXPECT_EQ(covered, static_cast<std::uint64_t>(samples)); // every draw sums to N.
    const double d = static_cast<double>(pooled_observed) - pooled_expected;
    chi2 += d * d / pooled_expected;
    const auto df = static_cast<double>(cells); // cells + pooled bin − 1.
    const double v = 2.0 / (9.0 * df);
    return (std::cbrt(chi2 / df) - (1.0 - v)) / std::sqrt(v);
}

/// One full draw: class totals, then (optionally forced) per-class means.
struct SmallDraw {
    explicit SmallDraw(double max_mean) : sampler(2, 4, max_mean) {}
    void operator()(std::span<std::uint64_t> counts, double mean_factor) {
        sample_class_totals(kClients, kClassSums, kClassQueues, rng, weights, totals);
        class0_clients += totals[0];
        if (mean_factor < 0.0) {
            sampler.sample(kStates, kClassQueues, totals, rng, counts);
            return;
        }
        for (std::size_t z = 0; z < 2; ++z) {
            means[z] = mean_factor * static_cast<double>(totals[z]) /
                       static_cast<double>(kClassQueues[z]);
        }
        sampler.sample(kStates, kClassQueues, totals, rng, counts, means);
    }
    ClassCountSampler sampler;
    Rng rng{2024};
    std::vector<double> weights = std::vector<double>(2);
    std::vector<std::uint64_t> totals = std::vector<std::uint64_t>(2);
    std::vector<double> means = std::vector<double>(2);
    std::uint64_t class0_clients = 0; ///< Σ N_0; class 1 is a lone queue.
};

constexpr int kSamples = 200000;
constexpr double kMaxZ = 4.0;

TEST(ClassCountSampler, SmallFleetMatchesMultinomialPmf) {
    SmallDraw draw(2.0 * kClients / 4.0);
    const double z = chi2_z([&](std::span<std::uint64_t> c) { draw(c, -1.0); }, kSamples);
    EXPECT_LT(z, kMaxZ);
    const ClassCountSampler::Stats& s = draw.sampler.stats();
    EXPECT_GT(s.top_ups, 0u);
    EXPECT_EQ(s.fallbacks, 0u);
}

TEST(ClassCountSampler, ExactForAnyForcedMean) {
    // μ_z = 0: every client is a top-up. μ_z = 1.1·N_z/n_z: most class
    // draws are redrawn at least once. μ_z = 50·N_z/n_z: every pass is
    // rejected until the class takes the binomial chain.
    const struct {
        double factor;
        const char* regime;
    } cases[] = {{0.0, "top-ups only"}, {1.1, "mostly redraws"}, {50.0, "redraw cap"}};
    for (const auto& c : cases) {
        SCOPED_TRACE(c.regime);
        SmallDraw draw(60.0 * kClients);
        const double z =
            chi2_z([&](std::span<std::uint64_t> v) { draw(v, c.factor); }, kSamples);
        EXPECT_LT(z, kMaxZ);
        const ClassCountSampler::Stats& s = draw.sampler.stats();
        if (c.factor == 0.0) {
            EXPECT_EQ(s.top_ups, draw.class0_clients);
            EXPECT_EQ(s.redraws, 0u);
        } else if (c.factor < 2.0) {
            EXPECT_GT(s.redraws, static_cast<std::uint64_t>(kSamples) / 2);
            EXPECT_LT(s.fallbacks, static_cast<std::uint64_t>(kSamples) / 100);
        } else {
            EXPECT_GT(s.fallbacks, static_cast<std::uint64_t>(kSamples) * 9 / 10);
        }
    }
}

TEST(ClassCountSampler, TableOverflowFallsBackExactly) {
    // A sampler sized for means near zero has too short a table for a
    // forced class-0 mean of 3·N_0/3 ≈ 18: that class takes the chain.
    SmallDraw draw(0.0);
    const double z = chi2_z([&](std::span<std::uint64_t> c) { draw(c, 3.0); }, kSamples);
    EXPECT_LT(z, kMaxZ);
    EXPECT_GT(draw.sampler.stats().fallbacks, 0u);
}

/// One shard of the sharded Table-1 benchmark: 125k queues over the six
/// states of B = 5, N = 1.25·10^7 clients, routed by JSQ(2).
struct ShardShape {
    static constexpr std::size_t kQueues = 125000;
    static constexpr std::uint64_t kN = 12500000;
    ShardShape() : states(kQueues), class_queues(6, 0), sums(6) {
        Rng rng(7);
        const std::vector<double> nu{0.3, 0.3, 0.2, 0.1, 0.06, 0.04};
        for (int& z : states) {
            z = static_cast<int>(rng.categorical(nu));
            ++class_queues[static_cast<std::size_t>(z)];
        }
        std::vector<double> hist(6);
        for (std::size_t z = 0; z < 6; ++z) {
            hist[z] = static_cast<double>(class_queues[z]) / static_cast<double>(kQueues);
        }
        const TupleSpace space(6, 2);
        std::vector<int> tuple(2);
        std::vector<double> suffix(3);
        std::vector<double> g(12);
        compute_routing_table_into(hist, DecisionRule::mf_jsq(space), tuple, suffix, g);
        const std::span<const double> folded = fold_routing_table_rows(g, 6, 2);
        std::copy(folded.begin(), folded.end(), sums.begin());
    }
    /// p_j for a queue in class z.
    double prob(std::size_t z) const { return sums[z] / static_cast<double>(kQueues); }

    std::vector<int> states;
    std::vector<int> class_queues;
    std::vector<double> sums;
};

TEST(ClassCountSampler, MomentsAtOneShardShape) {
    // Per queue, counts are Binomial(N, p_j). Within a class, pairs of
    // members have covariance −N_z/n_z² given the class total N_z (so
    // −N·p_i·p_j unconditionally): summed over the first half S of the
    // members, T_S ~ Binomial(N_z, |S|/n_z), whose variance N_z·h·(1 − h)
    // is what independent members (covariance 0) would overshoot 2×.
    const ShardShape shape;
    constexpr int kReplicas = 256;
    ClassCountSampler sampler(6, ShardShape::kQueues, 2.0 * 100.0);
    Rng rng(99);
    std::vector<double> weights(6);
    std::vector<std::uint64_t> totals(6);
    std::vector<std::uint64_t> counts(ShardShape::kQueues);
    std::vector<double> sum(ShardShape::kQueues, 0.0);
    std::vector<double> sum_sq(ShardShape::kQueues, 0.0);
    std::vector<std::size_t> half(6, 0);
    for (std::size_t z = 0; z < 6; ++z) {
        half[z] = static_cast<std::size_t>(shape.class_queues[z]) / 2;
    }
    std::vector<double> half_ratio(6, 0.0); // Σ_r (T_S − N_z·h)² / (N_z·h·(1 − h)).
    for (int r = 0; r < kReplicas; ++r) {
        sample_class_totals(ShardShape::kN, shape.sums, shape.class_queues, rng, weights,
                            totals);
        sampler.sample(shape.states, shape.class_queues, totals, rng, counts);
        ASSERT_EQ(std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}),
                  ShardShape::kN);
        std::vector<double> t(6, 0.0);
        std::vector<std::size_t> seen(6, 0);
        for (std::size_t j = 0; j < ShardShape::kQueues; ++j) {
            const auto c = static_cast<double>(counts[j]);
            sum[j] += c;
            sum_sq[j] += c * c;
            const auto z = static_cast<std::size_t>(shape.states[j]);
            if (seen[z]++ < half[z]) {
                t[z] += c;
            }
        }
        for (std::size_t z = 0; z < 6; ++z) {
            const double h = static_cast<double>(half[z]) / shape.class_queues[z];
            const auto n_z = static_cast<double>(totals[z]);
            if (n_z > 0.0) {
                const double dev = t[z] - n_z * h;
                half_ratio[z] += dev * dev / (n_z * h * (1.0 - h));
            }
        }
    }
    const double n = ShardShape::kN;
    const double reps = kReplicas;
    for (std::size_t z = 0; z < 6; ++z) {
        SCOPED_TRACE(::testing::Message() << "class " << z);
        const double p = shape.prob(z);
        if (p == 0.0) {
            continue; // JSQ routes nothing to full queues.
        }
        const double members = shape.class_queues[z];
        const double var = n * p * (1.0 - p);
        double mean_sum = 0.0;
        double var_sum = 0.0;
        for (std::size_t j = 0; j < ShardShape::kQueues; ++j) {
            if (static_cast<std::size_t>(shape.states[j]) != z) {
                continue;
            }
            const double m = sum[j] / reps;
            mean_sum += m;
            var_sum += (sum_sq[j] - reps * m * m) / (reps - 1.0);
        }
        // Pooled over the class's members (nearly independent at this p).
        const double mean_se = std::sqrt(var / (reps * members));
        EXPECT_NEAR(mean_sum / members, n * p, 5.0 * mean_se);
        const double var_se = var * std::sqrt(2.0 / (reps - 1.0) / members);
        EXPECT_NEAR(var_sum / members, var, 5.0 * var_se);
        EXPECT_NEAR(half_ratio[z] / reps, 1.0, 5.0 * std::sqrt(2.0 / reps));
    }
    EXPECT_EQ(sampler.stats().fallbacks, 0u);
}

TEST(ClassCountSampler, FallbackAboveTheTableCeiling) {
    // N/M so large that d·N/M needs more than kMaxTable entries: the table
    // is capped, and every class that would overflow it takes the chain.
    ClassCountSampler sampler(2, 4, 2.0 * 1e12 / 4.0);
    EXPECT_EQ(sampler.table_capacity(), ClassCountSampler::kMaxTable);
    Rng rng(5);
    std::vector<double> weights(2);
    std::vector<std::uint64_t> totals(2);
    std::vector<std::uint64_t> counts(4);
    constexpr std::uint64_t kHuge = 1000000000000ULL;
    double class0_sq = 0.0;
    constexpr int kDraws = 400;
    for (int i = 0; i < kDraws; ++i) {
        sample_class_totals(kHuge, kClassSums, kClassQueues, rng, weights, totals);
        sampler.sample(kStates, kClassQueues, totals, rng, counts);
        EXPECT_EQ(counts[1], totals[1]);
        EXPECT_EQ(counts[0] + counts[2] + counts[3], totals[0]);
        const double dev = static_cast<double>(counts[0]) - static_cast<double>(totals[0]) / 3.0;
        class0_sq += dev * dev;
    }
    // Class 0 overflows the table; class 1's lone queue takes N_1 outright.
    EXPECT_EQ(sampler.stats().fallbacks, static_cast<std::uint64_t>(kDraws));
    // Within class 0, Var(c_0 | N_0) = N_0·(1/3)·(2/3) ≈ 0.9e12·2/9.
    const double want = 0.9 * static_cast<double>(kHuge) * 2.0 / 9.0;
    EXPECT_NEAR(class0_sq / kDraws / want, 1.0, 5.0 * std::sqrt(2.0 / kDraws));
}

TEST(ClassCountSampler, RejectsInconsistentClassesAndToleratesAnyMean) {
    ClassCountSampler sampler(2, 4, 10.0);
    Rng rng(1);
    std::vector<std::uint64_t> counts(4);
    const std::vector<std::uint64_t> totals{5, 5};
    // Class sizes that do not sum to the slice, or that disagree with it.
    EXPECT_THROW(sampler.sample(kStates, std::vector<int>{2, 1}, totals, rng, counts),
                 std::invalid_argument);
    EXPECT_THROW(sampler.sample(kStates, std::vector<int>{2, 2}, totals, rng, counts),
                 std::invalid_argument);
    EXPECT_THROW(sampler.sample({}, std::vector<int>{1, 0}, std::vector<std::uint64_t>{5, 0}, rng,
                                {}),
                 std::invalid_argument);
    // Clients for a class without queues.
    EXPECT_THROW(sampler.sample(std::vector<int>{0, 0, 0, 0}, std::vector<int>{4, 0}, totals,
                                rng, counts),
                 std::invalid_argument);
    // A NaN, infinite or negative mean only picks the draw's route.
    const double nan = std::nan("");
    for (const double mean : {nan, HUGE_VAL, -1.0}) {
        const std::vector<double> means{mean, mean};
        sampler.sample(kStates, kClassQueues, totals, rng, counts, means);
        EXPECT_EQ(counts[1], 5u);
        EXPECT_EQ(counts[0] + counts[2] + counts[3], 5u);
    }
}

} // namespace
} // namespace mflb
