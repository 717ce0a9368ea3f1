// Tests for the exact discretization of the master equation (eqs. 20-28).
#include "field/transition.hpp"
#include "math/expm.hpp"
#include "math/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

namespace mflb {
namespace {

TEST(ExactDiscretization, ValidatesConstruction) {
    EXPECT_THROW(ExactDiscretization({0, 1.0}, 1.0), std::invalid_argument);
    EXPECT_THROW(ExactDiscretization({5, 1.0}, 0.0), std::invalid_argument);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double bad : {0.0, -1.0, nan, inf, -inf}) {
        EXPECT_THROW(ExactDiscretization({5, bad}, 2.0), std::invalid_argument) << bad;
    }
    EXPECT_THROW(ExactDiscretization({5, 1.0}, nan), std::invalid_argument);
    EXPECT_THROW(ExactDiscretization({5, 1.0}, inf), std::invalid_argument);
}

TEST(ExactDiscretization, GeneratorColumnsSumToArrivalInDropRow) {
    // Over the probability block, each column of the transposed generator
    // sums to zero except column B, whose dropped outflow is accounted in
    // the bookkeeping row.
    const ExactDiscretization disc({5, 1.0}, 2.0);
    const Matrix q = disc.extended_generator(0.7);
    const std::size_t b = 5;
    for (std::size_t col = 0; col <= b; ++col) {
        double sum = 0.0;
        for (std::size_t row = 0; row <= b + 1; ++row) {
            sum += q(row, col);
        }
        EXPECT_NEAR(sum, col == b ? 0.7 : 0.0, 1e-14) << "col=" << col;
    }
}

TEST(ExactDiscretization, PropagationConservesProbability) {
    const ExactDiscretization disc({5, 1.0}, 5.0);
    for (int z0 = 0; z0 <= 5; ++z0) {
        const auto out = disc.propagate_queue(z0, 0.9);
        double sum = 0.0;
        for (std::size_t i = 0; i < 6; ++i) {
            EXPECT_GE(out[i], -1e-12);
            sum += out[i];
        }
        EXPECT_NEAR(sum, 1.0, 1e-10) << "z0=" << z0;
        EXPECT_GE(out[6], 0.0);
    }
}

TEST(ExactDiscretization, ZeroArrivalsMeansNoDrops) {
    const ExactDiscretization disc({5, 1.0}, 10.0);
    for (int z0 = 0; z0 <= 5; ++z0) {
        EXPECT_NEAR(disc.expected_queue_drops(z0, 0.0), 0.0, 1e-12);
    }
    // With no arrivals and dt = 10, P(drained) = P(Erlang(5, 1) <= 10),
    // which is 1 - sum_{k<5} e^{-10} 10^k / k! ≈ 0.9707.
    const auto out = disc.propagate_queue(5, 0.0);
    EXPECT_NEAR(out[0], 0.970747, 1e-4);
}

TEST(ExactDiscretization, DropsBoundedByArrivalMass) {
    // E[drops] <= a * dt (cannot drop more than arrives).
    const ExactDiscretization disc({5, 1.0}, 4.0);
    for (double a : {0.3, 0.9, 2.0}) {
        for (int z0 : {0, 3, 5}) {
            const double drops = disc.expected_queue_drops(z0, a);
            EXPECT_GE(drops, 0.0);
            EXPECT_LE(drops, a * 4.0 + 1e-12);
        }
    }
}

TEST(ExactDiscretization, HeavyOverloadDropsAlmostEverything) {
    // a >> alpha and full buffer: nearly all of a*dt is lost.
    const ExactDiscretization disc({3, 0.01}, 50.0);
    const double drops = disc.expected_queue_drops(3, 5.0);
    EXPECT_GT(drops, 0.95 * 5.0 * 50.0 - 5.0);
}

TEST(ExactDiscretization, MatchesRk4Oracle) {
    const ExactDiscretization disc({5, 1.0}, 3.0);
    const double arrival = 1.2;
    const Matrix q = disc.extended_generator(arrival);
    std::vector<double> e0(7, 0.0);
    e0[2] = 1.0;
    const auto oracle = integrate_linear_ode_rk4(q * 3.0, 1.0, e0, 5000);
    const auto exact = disc.propagate_queue(2, arrival);
    for (std::size_t i = 0; i < 7; ++i) {
        EXPECT_NEAR(exact[i], oracle[i], 1e-7) << "i=" << i;
    }
}

TEST(MeanFieldStep, NuRemainsDistribution) {
    const QueueParams params{5, 1.0};
    const ExactDiscretization disc(params, 5.0);
    const TupleSpace space(params.num_states(), 2);
    const DecisionRule h = DecisionRule::mf_jsq(space);
    std::vector<double> nu{1.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    for (int t = 0; t < 20; ++t) {
        const MeanFieldStep step = disc.step(nu, h, 0.9);
        EXPECT_TRUE(is_probability_vector(step.nu_next, 1e-8)) << "t=" << t;
        EXPECT_GE(step.expected_drops, 0.0);
        nu = step.nu_next;
    }
}

TEST(MeanFieldStep, StartsEmptyNoDropsInitially) {
    // From ν = δ_0 with moderate load and small dt, drops are tiny (the
    // buffer must fill first).
    const ExactDiscretization disc({5, 1.0}, 0.5);
    const TupleSpace space(6, 2);
    const DecisionRule h = DecisionRule::mf_jsq(space);
    const std::vector<double> nu{1.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    const MeanFieldStep step = disc.step(nu, h, 0.9);
    EXPECT_LT(step.expected_drops, 1e-4);
}

TEST(MeanFieldStep, JsqBeatsRndInstantaneouslyAtHighFill) {
    // With a spread distribution, routing to shorter queues must lose fewer
    // packets over one epoch than random routing.
    const ExactDiscretization disc({5, 1.0}, 1.0);
    const TupleSpace space(6, 2);
    const std::vector<double> nu{0.1, 0.1, 0.2, 0.2, 0.2, 0.2};
    const MeanFieldStep jsq = disc.step(nu, DecisionRule::mf_jsq(space), 0.9);
    const MeanFieldStep rnd = disc.step(nu, DecisionRule::mf_rnd(space), 0.9);
    EXPECT_LT(jsq.expected_drops, rnd.expected_drops);
}

TEST(MeanFieldStep, StepWithRatesMatchesStep) {
    const ExactDiscretization disc({5, 1.0}, 2.0);
    const TupleSpace space(6, 2);
    const DecisionRule h = DecisionRule::greedy_softmax(space, 1.0);
    const std::vector<double> nu{0.4, 0.3, 0.1, 0.1, 0.05, 0.05};
    const MeanFieldStep via_step = disc.step(nu, h, 0.8);
    const ArrivalFlow flow = compute_arrival_flow(nu, h, 0.8);
    const MeanFieldStep via_rates = disc.step_with_rates(nu, flow.rate_by_state);
    for (std::size_t z = 0; z < nu.size(); ++z) {
        EXPECT_NEAR(via_step.nu_next[z], via_rates.nu_next[z], 1e-14);
    }
    EXPECT_NEAR(via_step.expected_drops, via_rates.expected_drops, 1e-14);
}

TEST(MeanFieldStep, MassBalance) {
    // Per-queue bookkeeping over one epoch: mean fill change equals accepted
    // arrivals minus completed services; accepted = offered - dropped.
    // We verify the weaker corollary: E[fill_{t+1}] - E[fill_t] <= offered - drops.
    const ExactDiscretization disc({5, 1.0}, 2.0);
    const TupleSpace space(6, 2);
    const DecisionRule h = DecisionRule::mf_rnd(space);
    const std::vector<double> nu{0.2, 0.2, 0.2, 0.2, 0.1, 0.1};
    const double lambda = 0.9;
    const MeanFieldStep step = disc.step(nu, h, lambda);
    auto mean_fill = [](std::span<const double> dist) {
        double m = 0.0;
        for (std::size_t z = 0; z < dist.size(); ++z) {
            m += static_cast<double>(z) * dist[z];
        }
        return m;
    };
    const double offered = lambda * 2.0; // per queue: λ·dt under RND
    const double delta_fill = mean_fill(step.nu_next) - mean_fill(nu);
    EXPECT_LE(delta_fill, offered - step.expected_drops + 1e-9);
}

// Property sweep: conservation holds across the paper's Δt and λ grid.
struct StepCase {
    double dt;
    double lambda;
    double beta;
};

class StepConservation : public ::testing::TestWithParam<StepCase> {};

TEST_P(StepConservation, DistributionAndDropBounds) {
    const auto [dt, lambda, beta] = GetParam();
    const ExactDiscretization disc({5, 1.0}, dt);
    const TupleSpace space(6, 2);
    const DecisionRule h = DecisionRule::greedy_softmax(space, beta);
    std::vector<double> nu{1.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    double total_drops = 0.0;
    for (int t = 0; t < 10; ++t) {
        const MeanFieldStep step = disc.step(nu, h, lambda);
        ASSERT_TRUE(is_probability_vector(step.nu_next, 1e-8));
        ASSERT_GE(step.expected_drops, -1e-12);
        ASSERT_LE(step.expected_drops, 2.0 * lambda * dt + 1e-9);
        total_drops += step.expected_drops;
        nu = step.nu_next;
    }
    EXPECT_LE(total_drops, 10.0 * lambda * dt);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StepConservation,
    ::testing::Values(StepCase{1.0, 0.9, 0.0}, StepCase{1.0, 0.6, 5.0}, StepCase{3.0, 0.9, 1.0},
                      StepCase{5.0, 0.9, 0.5}, StepCase{7.0, 0.6, 2.0}, StepCase{10.0, 0.9, 0.0},
                      StepCase{10.0, 0.9, 50.0}));

} // namespace
} // namespace mflb
