// Tests for the first-class service-time laws: parsing, the mean-1/rate
// normalization contract, closed-form moments against empirical samples and
// numeric integration, CDF correctness (KS-style), the fixed draw-count
// determinism the sharded backend's draw-order contract relies on, and the
// Pollaczek-Khinchine M/G/1 oracle.
#include "queueing/service_distribution.hpp"

#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace mflb {
namespace {

constexpr ServiceDistKind kAllKinds[] = {
    ServiceDistKind::Exponential,
    ServiceDistKind::Deterministic,
    ServiceDistKind::HyperExp,
    ServiceDistKind::BoundedPareto,
};

ServiceDistribution make(ServiceDistKind kind, double rate = 1.0) {
    ServiceConfig config;
    config.kind = kind;
    return ServiceDistribution(config, rate);
}

TEST(ServiceDistParse, RoundTripsAndAliases) {
    for (const ServiceDistKind kind : kAllKinds) {
        EXPECT_EQ(parse_service_dist(service_dist_name(kind)), kind);
    }
    EXPECT_EQ(parse_service_dist("exp"), ServiceDistKind::Exponential);
    EXPECT_EQ(parse_service_dist("markov"), ServiceDistKind::Exponential);
    EXPECT_EQ(parse_service_dist("det"), ServiceDistKind::Deterministic);
    EXPECT_EQ(parse_service_dist("h2"), ServiceDistKind::HyperExp);
    EXPECT_EQ(parse_service_dist("bounded-pareto"), ServiceDistKind::BoundedPareto);
    EXPECT_THROW(parse_service_dist("weibull"), std::invalid_argument);
}

TEST(ServiceDistMoments, MeanIsOneOverRateForEveryKind) {
    for (const ServiceDistKind kind : kAllKinds) {
        for (const double rate : {0.5, 1.0, 2.0}) {
            const ServiceDistribution dist = make(kind, rate);
            EXPECT_NEAR(dist.mean(), 1.0 / rate, 1e-12) << service_dist_name(kind);
            EXPECT_GE(dist.second_moment(), dist.mean() * dist.mean());
        }
    }
}

TEST(ServiceDistMoments, ScvMatchesEachLaw) {
    EXPECT_NEAR(make(ServiceDistKind::Exponential).scv(), 1.0, 1e-12);
    EXPECT_NEAR(make(ServiceDistKind::Deterministic).scv(), 0.0, 1e-12);
    // The balanced-mean H2 fit hits the configured SCV exactly.
    for (const double target : {1.5, 4.0, 10.0}) {
        ServiceConfig config;
        config.kind = ServiceDistKind::HyperExp;
        config.hyper_scv = target;
        EXPECT_NEAR(ServiceDistribution(config, 2.0).scv(), target, 1e-9);
    }
    // Heavier tail index -> more variability, always above exponential's 1
    // at these parameters.
    ServiceConfig pareto;
    pareto.kind = ServiceDistKind::BoundedPareto;
    pareto.pareto_alpha = 1.2;
    const double heavy = ServiceDistribution(pareto, 1.0).scv();
    pareto.pareto_alpha = 2.5;
    const double light = ServiceDistribution(pareto, 1.0).scv();
    EXPECT_GT(heavy, light);
    EXPECT_GT(light, 0.0);
}

TEST(ServiceDistMoments, ParetoMomentsMatchNumericIntegration) {
    // E[S^k] = integral of k t^(k-1) (1 - F(t)) dt over the bounded support;
    // validates the closed-form truncated moments (including the rescaled
    // lower bound) against the CDF they must be consistent with.
    for (const double alpha : {1.0, 1.5, 2.0, 3.0}) {
        ServiceConfig config;
        config.kind = ServiceDistKind::BoundedPareto;
        config.pareto_alpha = alpha;
        config.pareto_cap = 100.0;
        const ServiceDistribution dist(config, 1.0);
        // The support upper end: cdf reaches 1 there; bisect for it.
        double high = 1.0;
        while (dist.cdf(high) < 1.0) {
            high *= 2.0;
        }
        const std::size_t steps = 400000;
        const double dt = high / static_cast<double>(steps);
        double mean = 0.0;
        double second = 0.0;
        for (std::size_t i = 0; i < steps; ++i) {
            const double t = (static_cast<double>(i) + 0.5) * dt;
            const double tail = 1.0 - dist.cdf(t);
            mean += tail * dt;
            second += 2.0 * t * tail * dt;
        }
        EXPECT_NEAR(mean, dist.mean(), 1e-3) << "alpha=" << alpha;
        EXPECT_NEAR(second / dist.second_moment(), 1.0, 1e-2) << "alpha=" << alpha;
    }
}

TEST(ServiceDistSampler, EmpiricalMomentsMatchClosedForms) {
    const std::size_t n = 200000;
    for (const ServiceDistKind kind : kAllKinds) {
        const ServiceDistribution dist = make(kind, 2.0);
        Rng rng(2024);
        double sum = 0.0;
        double sum_sq = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double s = dist.sample(rng);
            ASSERT_GT(s, 0.0);
            sum += s;
            sum_sq += s * s;
        }
        const double inv_n = 1.0 / static_cast<double>(n);
        EXPECT_NEAR(sum * inv_n / dist.mean(), 1.0, 0.05) << service_dist_name(kind);
        // Second moments are noisier (the Pareto especially); 15% headroom.
        EXPECT_NEAR(sum_sq * inv_n / dist.second_moment(), 1.0, 0.15)
            << service_dist_name(kind);
    }
}

TEST(ServiceDistSampler, CdfMatchesEmpirical) {
    // KS-style check on a fixed grid spanning the bulk of each mean-0.5 law;
    // with n = 100k the KS critical value is ~0.0043, so 0.01 is ample.
    const std::size_t n = 100000;
    const double grid[] = {0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.5, 5.0};
    for (const ServiceDistKind kind :
         {ServiceDistKind::Exponential, ServiceDistKind::HyperExp,
          ServiceDistKind::BoundedPareto}) {
        const ServiceDistribution dist = make(kind, 2.0);
        Rng rng(7);
        std::vector<double> samples(n);
        for (double& s : samples) {
            s = dist.sample(rng);
        }
        for (const double t : grid) {
            const double empirical =
                static_cast<double>(std::count_if(samples.begin(), samples.end(),
                                                  [&](double s) { return s <= t; })) /
                static_cast<double>(n);
            EXPECT_NEAR(empirical, dist.cdf(t), 0.01)
                << service_dist_name(kind) << " at t=" << t;
        }
    }
}

TEST(ServiceDistSampler, SupportAndCdfBounds) {
    ServiceConfig config;
    config.kind = ServiceDistKind::BoundedPareto;
    config.pareto_alpha = 1.5;
    config.pareto_cap = 50.0;
    const ServiceDistribution dist(config, 1.0);
    Rng rng(3);
    double lo = 1e300;
    double hi = 0.0;
    for (int i = 0; i < 50000; ++i) {
        const double s = dist.sample(rng);
        lo = std::min(lo, s);
        hi = std::max(hi, s);
    }
    // The support is [L, 50 L]: the sample range can never exceed the cap
    // ratio, and the CDF is 0 / 1 outside it.
    EXPECT_LE(hi / lo, config.pareto_cap * (1.0 + 1e-9));
    EXPECT_DOUBLE_EQ(dist.cdf(lo * 0.999), 0.0);
    EXPECT_DOUBLE_EQ(dist.cdf(hi * config.pareto_cap), 1.0);
    EXPECT_DOUBLE_EQ(dist.cdf(-1.0), 0.0);
    // Deterministic: a step at the mean.
    const ServiceDistribution det = make(ServiceDistKind::Deterministic, 2.0);
    EXPECT_DOUBLE_EQ(det.cdf(0.499), 0.0);
    EXPECT_DOUBLE_EQ(det.cdf(0.5), 1.0);
}

TEST(ServiceDistDeterminism, FixedDrawCountPerKind) {
    // The simulators' draw-order contract: each kind consumes a fixed number
    // of 64-bit draws per sample (exponential 1, deterministic 0,
    // hyperexponential 2, bounded Pareto 1), independent of the outcome.
    const std::size_t expected[] = {1, 0, 2, 1};
    for (std::size_t k = 0; k < 4; ++k) {
        const ServiceDistribution dist = make(kAllKinds[k]);
        Rng sampled(99);
        Rng counted(99);
        for (int rep = 0; rep < 64; ++rep) {
            dist.sample(sampled);
            for (std::size_t i = 0; i < expected[k]; ++i) {
                counted.uniform();
            }
            ASSERT_EQ(sampled(), counted())
                << service_dist_name(kAllKinds[k]) << " rep " << rep;
        }
    }
}

TEST(ServiceDistDeterminism, ForkReproducesSequences) {
    for (const ServiceDistKind kind : kAllKinds) {
        const ServiceDistribution dist = make(kind);
        Rng a = Rng(41).fork(5);
        Rng b = Rng(41).fork(5);
        for (int i = 0; i < 100; ++i) {
            ASSERT_EQ(dist.sample(a), dist.sample(b)) << service_dist_name(kind);
        }
    }
}

TEST(Mg1Oracle, ReducesToMm1ForExponentialService) {
    // M/M/1: E[T] = 1 / (mu - lambda).
    EXPECT_NEAR(mg1_mean_sojourn(0.5, make(ServiceDistKind::Exponential, 1.0)), 2.0,
                1e-12);
    EXPECT_NEAR(mg1_mean_sojourn(0.8, make(ServiceDistKind::Exponential, 2.0)), 1.0 / 1.2,
                1e-12);
}

TEST(Mg1Oracle, OrdersByVariabilityAndGuardsStability) {
    // At equal load, mean sojourn is increasing in service variability.
    const double det = mg1_mean_sojourn(0.6, make(ServiceDistKind::Deterministic));
    const double exp = mg1_mean_sojourn(0.6, make(ServiceDistKind::Exponential));
    const double h2 = mg1_mean_sojourn(0.6, make(ServiceDistKind::HyperExp));
    EXPECT_LT(det, exp);
    EXPECT_LT(exp, h2);
    // Deterministic: E[T] = 1 + rho / (2 (1 - rho)).
    EXPECT_NEAR(det, 1.0 + 0.6 / (2.0 * 0.4), 1e-12);
    EXPECT_THROW(mg1_mean_sojourn(1.0, make(ServiceDistKind::Exponential)),
                 std::invalid_argument);
    EXPECT_THROW(mg1_mean_sojourn(0.0, make(ServiceDistKind::Exponential)),
                 std::invalid_argument);
}

TEST(ServiceDistConfig, RejectsBadParameters) {
    const double inf = std::numeric_limits<double>::infinity();
    for (const double rate : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
        EXPECT_THROW(ServiceDistribution(ServiceConfig{}, rate), std::invalid_argument) << rate;
    }
    ServiceConfig h2;
    h2.kind = ServiceDistKind::HyperExp;
    h2.hyper_scv = 1.0; // SCV must exceed exponential's 1
    EXPECT_THROW(ServiceDistribution(h2, 1.0), std::invalid_argument);
    ServiceConfig pareto;
    pareto.kind = ServiceDistKind::BoundedPareto;
    pareto.pareto_alpha = 0.0;
    EXPECT_THROW(ServiceDistribution(pareto, 1.0), std::invalid_argument);
    pareto.pareto_alpha = 1.5;
    pareto.pareto_cap = 1.0; // truncation ratio must exceed 1
    EXPECT_THROW(ServiceDistribution(pareto, 1.0), std::invalid_argument);
}

} // namespace
} // namespace mflb
