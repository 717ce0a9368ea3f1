// Tests for the Markov-modulated arrival process (eq. 1, 32-33) and the
// mean-field routing flow (eqs. 16-19).
#include "field/arrival_flow.hpp"
#include "field/arrival_process.hpp"
#include "math/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace mflb {
namespace {

TEST(ArrivalProcess, PaperChainShape) {
    const ArrivalProcess arrivals = ArrivalProcess::paper_two_state();
    EXPECT_EQ(arrivals.num_states(), 2u);
    EXPECT_DOUBLE_EQ(arrivals.level(0), 0.9);
    EXPECT_DOUBLE_EQ(arrivals.level(1), 0.6);
    EXPECT_DOUBLE_EQ(arrivals.transition()(0, 1), 0.2); // P(l | h)
    EXPECT_DOUBLE_EQ(arrivals.transition()(1, 0), 0.5); // P(h | l)
}

TEST(ArrivalProcess, StationaryDistributionMatchesHandComputation) {
    // pi_h * 0.2 = pi_l * 0.5  =>  pi_h = 5/7, pi_l = 2/7.
    const ArrivalProcess arrivals = ArrivalProcess::paper_two_state();
    const auto pi = arrivals.stationary();
    EXPECT_NEAR(pi[0], 5.0 / 7.0, 1e-10);
    EXPECT_NEAR(pi[1], 2.0 / 7.0, 1e-10);
    EXPECT_NEAR(arrivals.mean_rate(), 0.9 * 5.0 / 7.0 + 0.6 * 2.0 / 7.0, 1e-10);
}

TEST(ArrivalProcess, EmpiricalSwitchingMatchesTransitionLaw) {
    const ArrivalProcess arrivals = ArrivalProcess::paper_two_state();
    Rng rng(99);
    std::size_t state = 0; // high
    int high_to_low = 0, high_visits = 0, low_to_high = 0, low_visits = 0;
    for (int t = 0; t < 200000; ++t) {
        const std::size_t next = arrivals.step(state, rng);
        if (state == 0) {
            ++high_visits;
            high_to_low += (next == 1) ? 1 : 0;
        } else {
            ++low_visits;
            low_to_high += (next == 0) ? 1 : 0;
        }
        state = next;
    }
    EXPECT_NEAR(static_cast<double>(high_to_low) / high_visits, 0.2, 0.01);
    EXPECT_NEAR(static_cast<double>(low_to_high) / low_visits, 0.5, 0.01);
}

TEST(ArrivalProcess, ConstantProcessNeverSwitches) {
    const ArrivalProcess arrivals = ArrivalProcess::constant(0.8);
    Rng rng(1);
    EXPECT_EQ(arrivals.sample_initial(rng), 0u);
    EXPECT_EQ(arrivals.step(0, rng), 0u);
    EXPECT_DOUBLE_EQ(arrivals.mean_rate(), 0.8);
}

TEST(ArrivalProcess, ValidatesInput) {
    EXPECT_THROW(ArrivalProcess({}, Matrix(0, 0)), std::invalid_argument);
    EXPECT_THROW(ArrivalProcess({-1.0}, Matrix{{1.0}}), std::invalid_argument);
    // Non-finite levels would hang every backend's per-queue kernel.
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW(ArrivalProcess({bad}, Matrix{{1.0}}), std::invalid_argument) << bad;
        EXPECT_THROW(ArrivalProcess::paper_two_state(0.9, bad), std::invalid_argument) << bad;
    }
    EXPECT_THROW(ArrivalProcess({1.0, 2.0}, Matrix{{0.5, 0.4}, {0.5, 0.5}}),
                 std::invalid_argument);
    EXPECT_THROW(ArrivalProcess({1.0}, Matrix{{1.0}}, {0.5}), std::invalid_argument);
}

TEST(ArrivalFlow, TotalInflowIsConserved) {
    // Σ_z λ'(z) = λ: every packet lands in some state class (eq. 18).
    const TupleSpace space(6, 2);
    const DecisionRule h = DecisionRule::mf_jsq(space);
    const std::vector<double> nu{0.3, 0.25, 0.2, 0.15, 0.07, 0.03};
    const ArrivalFlow flow = compute_arrival_flow(nu, h, 0.9);
    double total = 0.0;
    for (double v : flow.inflow_by_state) {
        total += v;
    }
    EXPECT_NEAR(total, 0.9, 1e-12);
}

TEST(ArrivalFlow, RndGivesUniformPerQueueRates) {
    // Under MF-RND every queue sees rate λ regardless of its state
    // (destinations are uniform over queues).
    const TupleSpace space(6, 2);
    const DecisionRule h = DecisionRule::mf_rnd(space);
    const std::vector<double> nu{0.5, 0.2, 0.1, 0.1, 0.05, 0.05};
    const ArrivalFlow flow = compute_arrival_flow(nu, h, 0.75);
    for (std::size_t z = 0; z < nu.size(); ++z) {
        EXPECT_NEAR(flow.rate_by_state[z], 0.75, 1e-12) << "z=" << z;
    }
}

TEST(ArrivalFlow, JsqSendsEverythingToTheMinimumOccupiedState) {
    // If ν is supported on {0, 3}, JSQ routes a packet to state 3 only when
    // both sampled queues are in state 3 (probability ν(3)^2).
    const TupleSpace space(6, 2);
    const DecisionRule h = DecisionRule::mf_jsq(space);
    std::vector<double> nu(6, 0.0);
    nu[0] = 0.7;
    nu[3] = 0.3;
    const ArrivalFlow flow = compute_arrival_flow(nu, h, 1.0);
    EXPECT_NEAR(flow.inflow_by_state[3], 0.3 * 0.3, 1e-12);
    EXPECT_NEAR(flow.inflow_by_state[0], 1.0 - 0.09, 1e-12);
    // Per-queue rate in state 0: λ'(0)/ν(0).
    EXPECT_NEAR(flow.rate_by_state[0], 0.91 / 0.7, 1e-12);
    // Empty state classes get rate 0 by convention.
    EXPECT_DOUBLE_EQ(flow.rate_by_state[1], 0.0);
}

TEST(ArrivalFlow, RateBoundedByDTimesLambda) {
    // λ_t(ν, z) ≤ d·λ (the bound used in the proof of Theorem 1).
    const TupleSpace space(6, 2);
    Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> weights(6);
        for (double& w : weights) {
            w = rng.uniform() + 1e-3;
        }
        const std::vector<double> nu = normalized(weights);
        std::vector<double> logits(space.size() * 2);
        for (double& l : logits) {
            l = rng.normal();
        }
        const DecisionRule h = DecisionRule::from_logits(space, logits);
        const double lambda = 0.9;
        const ArrivalFlow flow = compute_arrival_flow(nu, h, lambda);
        for (double rate : flow.rate_by_state) {
            EXPECT_LE(rate, 2.0 * lambda + 1e-9);
        }
    }
}

TEST(ArrivalFlow, TupleProbabilityFactorizes) {
    const TupleSpace space(3, 2);
    const std::vector<double> nu{0.5, 0.3, 0.2};
    const std::vector<int> tuple{1, 2};
    const std::size_t idx = space.index_of(tuple);
    EXPECT_NEAR(tuple_probability(space, nu, idx), 0.3 * 0.2, 1e-14);
}

TEST(ArrivalFlow, DestinationDistributionSumsToOne) {
    const TupleSpace space(6, 2);
    const DecisionRule h = DecisionRule::greedy_softmax(space, 1.5);
    const std::vector<double> nu{0.4, 0.3, 0.15, 0.1, 0.04, 0.01};
    const auto dist = packet_destination_distribution(nu, h);
    EXPECT_TRUE(is_probability_vector(dist, 1e-9));
}

TEST(ArrivalFlow, SizeMismatchThrows) {
    const TupleSpace space(6, 2);
    const DecisionRule h = DecisionRule::mf_rnd(space);
    EXPECT_THROW(compute_arrival_flow(std::vector<double>{1.0}, h, 0.9), std::invalid_argument);
}

} // namespace
} // namespace mflb
