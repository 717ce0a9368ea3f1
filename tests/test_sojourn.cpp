// Tests for exact sojourn-time tracking and the M/M/1/B oracles — including
// the closing of the loop: the analytic oracle against sojourn times
// *measured* end-to-end by the event-driven system simulator.
#include "queueing/sojourn.hpp"

#include "core/evaluator.hpp"
#include "des/des_system.hpp"
#include "policies/fixed.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace mflb {
namespace {

TEST(JobRings, FifoOrder) {
    JobRings rings;
    rings.reset(std::vector<int>{0, 0}, 5);
    JobRing jobs = rings[1];
    jobs.push(1.0);
    jobs.push(2.5);
    jobs.push(3.0);
    EXPECT_EQ(jobs.size(), 3);
    EXPECT_EQ(rings[0].size(), 0); // the neighbouring queue is untouched.
    EXPECT_DOUBLE_EQ(jobs.pop(4.0), 3.0);  // job from t=1.0
    EXPECT_DOUBLE_EQ(jobs.pop(4.0), 1.5);  // job from t=2.5
    EXPECT_EQ(jobs.size(), 1);
    EXPECT_EQ(rings[1].size(), 1); // views share the ring's cursor.
}

TEST(JobRings, WrapAroundRing) {
    // Push two, pop one, push one, pop two: on capacity 2 both the tail and
    // the head wrap, starting from either slot, in every queue of the block.
    JobRings rings;
    rings.reset(std::vector<int>{0, 0, 0}, 2);
    for (int round = 0; round < 10; ++round) {
        for (std::size_t j = 0; j < 3; ++j) {
            JobRing jobs = rings[j];
            const double t = 10.0 * round + static_cast<double>(j);
            jobs.push(t);
            jobs.push(t + 0.25);
            EXPECT_DOUBLE_EQ(jobs.pop(t + 1.0), 1.0);
            jobs.push(t + 0.5);
            EXPECT_DOUBLE_EQ(jobs.pop(t + 2.0), 1.75);
            EXPECT_DOUBLE_EQ(jobs.pop(t + 2.0), 1.5);
            EXPECT_EQ(jobs.size(), 0);
        }
    }
}

TEST(JobRings, ResetSeedsInitialJobsAtTimeZero) {
    JobRings rings;
    rings.reset(std::vector<int>{2, 0, 3}, 3);
    EXPECT_EQ(rings[0].size(), 2);
    EXPECT_EQ(rings[1].size(), 0);
    EXPECT_EQ(rings[2].size(), 3);
    EXPECT_DOUBLE_EQ(rings[2].pop(1.5), 1.5);
    // A reset reuses the block and forgets the previous episode's jobs.
    rings.reset(std::vector<int>{1, 1, 0}, 3);
    EXPECT_EQ(rings[2].size(), 0);
    EXPECT_DOUBLE_EQ(rings[0].pop(2.0), 2.0);
    EXPECT_THROW(rings[0].pop(2.0), std::logic_error);
}

TEST(JobRings, GuardsMisuse) {
    JobRings rings;
    rings.reset(std::vector<int>{0}, 1);
    EXPECT_THROW(rings[0].pop(0.0), std::logic_error);
    rings[0].push(0.0);
    EXPECT_THROW(rings[0].push(1.0), std::logic_error);
    EXPECT_EQ(rings[0].size(), 1);
    EXPECT_THROW(rings.reset(std::vector<int>{0}, 0), std::invalid_argument);
    EXPECT_THROW(rings.reset(std::vector<int>{3}, 2), std::logic_error);
    EXPECT_FALSE(JobRing{});
    EXPECT_TRUE(rings[0]);
}

TEST(Mm1bOracles, MatchHandValues) {
    // rho = 1: stationary law uniform over 0..B.
    EXPECT_NEAR(mm1b_blocking_probability(1.0, 1.0, 4), 0.2, 1e-12);
    EXPECT_NEAR(mm1b_mean_length(1.0, 1.0, 4), 2.0, 1e-12);
    // B = 1, rho = 1: pi = (1/2, 1/2); E[T] = E[L]/(lambda(1-P_B)) = 1.
    EXPECT_NEAR(mm1b_mean_sojourn(1.0, 1.0, 1), 1.0, 1e-12);
    EXPECT_THROW(mm1b_mean_length(0.0, 1.0, 4), std::invalid_argument);
}

TEST(Mm1bOracles, LowLoadApproachesMm1) {
    // At rho = 0.2, B = 20 the finite buffer barely matters: E[T] ≈
    // 1/(mu - lambda) = 1.25.
    EXPECT_NEAR(mm1b_mean_sojourn(0.2, 1.0, 20), 1.25, 1e-3);
}

TEST(SojournSimulation, ConservationAndSupport) {
    Rng rng(1);
    JobRings rings;
    rings.reset(std::vector<int>{0}, 5);
    const JobRing jobs = rings[0];
    double t0 = 0.0;
    for (int epoch = 0; epoch < 50; ++epoch) {
        const int before = jobs.size();
        const SojournEpochResult r =
            simulate_queue_epoch_sojourn(jobs, t0, 0.9, 1.0, 5, 3.0, rng);
        EXPECT_EQ(r.queue.final_state, jobs.size());
        EXPECT_EQ(r.queue.final_state,
                  before + static_cast<int>(r.queue.arrivals) -
                      static_cast<int>(r.queue.services));
        EXPECT_EQ(r.sojourn.count(), r.queue.services);
        if (r.sojourn.count() > 0) {
            EXPECT_GT(r.sojourn.min(), 0.0);
        }
        t0 += 3.0;
    }
}

TEST(SojournSimulation, MatchesLittlesLawAtStationarity) {
    // Long-run mean sojourn of an M/M/1/B queue vs the analytic oracle.
    const double arrival = 0.8, service = 1.0;
    const int buffer = 5;
    Rng rng(2);
    JobRings rings;
    rings.reset(std::vector<int>{0}, buffer);
    const JobRing jobs = rings[0];
    RunningStat sojourn;
    double t0 = 0.0;
    const double dt = 10.0;
    // Warm up to stationarity first.
    for (int epoch = 0; epoch < 50; ++epoch) {
        simulate_queue_epoch_sojourn(jobs, t0, arrival, service, buffer, dt, rng);
        t0 += dt;
    }
    for (int epoch = 0; epoch < 3000; ++epoch) {
        const auto r = simulate_queue_epoch_sojourn(jobs, t0, arrival, service, buffer, dt, rng);
        sojourn.merge(r.sojourn);
        t0 += dt;
    }
    const double oracle = mm1b_mean_sojourn(arrival, service, buffer);
    EXPECT_NEAR(sojourn.mean(), oracle, 6.0 * sojourn.standard_error() + 0.02);
}

TEST(SojournSimulation, DesMeasuredSojournMatchesAnalyticOracle) {
    // Cross-validation of the whole sojourn path: under RND routing with a
    // constant arrival level λ, every queue of the event-driven system is an
    // independent M/M/1/B queue with Poisson(λ) input, so the measured mean
    // sojourn must agree with the stationary Little's-law oracle. This is
    // the first *empirical* check of queueing/sojourn's analytic formulas
    // against a full system simulation.
    const double arrival = 0.8, service = 1.0;
    const int buffer = 5;
    FiniteSystemConfig config;
    config.arrivals = ArrivalProcess::constant(arrival);
    config.queue = QueueParams{buffer, service};
    config.num_queues = 50;
    config.num_clients = 2500;
    config.dt = 10.0;
    config.horizon = 150; // 1500 time units: the empty-start transient is negligible
    config.track_sojourn = true;
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy rnd = make_rnd_policy(space);

    const EvaluationResult sojourn = evaluate_backend(SimBackend::Des, config, rnd, 8, 61);
    const double oracle = mm1b_mean_sojourn(arrival, service, buffer);
    EXPECT_GT(sojourn.sojourn_mean.n, 0u);
    EXPECT_NEAR(sojourn.sojourn_mean.mean, oracle, 3.0 * sojourn.sojourn_mean.half_width + 0.05)
        << "DES-measured mean sojourn disagrees with the analytic oracle " << oracle;
    // The percentile estimates must bracket the mean of this skewed law.
    EXPECT_LT(sojourn.sojourn_p50.mean, sojourn.sojourn_mean.mean);
    EXPECT_GT(sojourn.sojourn_p95.mean, sojourn.sojourn_mean.mean);
}

TEST(SojournSimulation, HigherLoadLongerSojourn) {
    auto mean_sojourn = [](double arrival) {
        Rng rng(3);
        JobRings rings;
        rings.reset(std::vector<int>{0}, 5);
        const JobRing jobs = rings[0];
        RunningStat sojourn;
        double t0 = 0.0;
        for (int epoch = 0; epoch < 1500; ++epoch) {
            sojourn.merge(
                simulate_queue_epoch_sojourn(jobs, t0, arrival, 1.0, 5, 10.0, rng).sojourn);
            t0 += 10.0;
        }
        return sojourn.mean();
    };
    EXPECT_LT(mean_sojourn(0.3), mean_sojourn(0.9));
}

} // namespace
} // namespace mflb
