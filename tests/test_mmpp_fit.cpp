// Tests for the Poisson-HMM (Baum-Welch) arrival-process estimator.
#include "field/mmpp_fit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace mflb {
namespace {

TEST(MmppFit, ValidatesInput) {
    const std::vector<std::uint64_t> one{5};
    EXPECT_THROW(fit_arrival_process(one, 100.0, 1.0), std::invalid_argument);
    const std::vector<std::uint64_t> two{5, 6};
    MmppFitConfig bad;
    bad.num_states = 0;
    EXPECT_THROW(fit_arrival_process(two, 100.0, 1.0, bad), std::invalid_argument);
    EXPECT_THROW(fit_arrival_process(two, 0.0, 1.0), std::invalid_argument);
}

TEST(MmppFit, RejectsNonFiniteOrNonPositiveScale) {
    // A NaN or infinite Poisson mean would send Rng::poisson into unbounded
    // recursion (a stack overflow), so both entry points check the scale.
    const ArrivalProcess truth = ArrivalProcess::paper_two_state();
    const std::vector<std::uint64_t> two{5, 6};
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : {nan, inf, -inf, 0.0}) {
        SCOPED_TRACE(bad);
        Rng rng(1);
        EXPECT_THROW(sample_arrival_counts(truth, bad, 1.0, 10, rng), std::invalid_argument);
        EXPECT_THROW(sample_arrival_counts(truth, 100.0, bad, 10, rng), std::invalid_argument);
        EXPECT_THROW(fit_arrival_process(two, bad, 1.0), std::invalid_argument);
        EXPECT_THROW(fit_arrival_process(two, 100.0, bad), std::invalid_argument);
    }
}

TEST(MmppFit, SampleTraceHasRightScale) {
    const ArrivalProcess truth = ArrivalProcess::paper_two_state();
    Rng rng(1);
    const auto counts = sample_arrival_counts(truth, 100.0, 1.0, 5000, rng);
    ASSERT_EQ(counts.size(), 5000u);
    double mean = 0.0;
    for (auto c : counts) {
        mean += static_cast<double>(c);
    }
    mean /= 5000.0;
    // Long-run mean = M * E[lambda] * dt = 100 * 0.8143.
    EXPECT_NEAR(mean, 100.0 * truth.mean_rate(), 2.0);
}

TEST(MmppFit, LogLikelihoodIsNonDecreasing) {
    const ArrivalProcess truth = ArrivalProcess::paper_two_state();
    Rng rng(2);
    const auto counts = sample_arrival_counts(truth, 100.0, 1.0, 800, rng);
    const MmppFitResult fit = fit_arrival_process(counts, 100.0, 1.0);
    ASSERT_GE(fit.log_likelihood_trace.size(), 2u);
    for (std::size_t i = 1; i < fit.log_likelihood_trace.size(); ++i) {
        EXPECT_GE(fit.log_likelihood_trace[i], fit.log_likelihood_trace[i - 1] - 1e-6)
            << "iteration " << i;
    }
}

TEST(MmppFit, RecoversTwoStateChain) {
    // Recover (0.9, 0.6) levels and the (0.2, 0.5) switching probabilities
    // from a long synthetic trace. M = 500 queues makes the levels easily
    // separable (means 450 vs 300 per epoch).
    const ArrivalProcess truth = ArrivalProcess::paper_two_state();
    Rng rng(3);
    const auto counts = sample_arrival_counts(truth, 500.0, 1.0, 4000, rng);
    const MmppFitResult fit = fit_arrival_process(counts, 500.0, 1.0);

    ASSERT_EQ(fit.levels.size(), 2u);
    EXPECT_NEAR(fit.levels[0], 0.9, 0.02); // sorted descending
    EXPECT_NEAR(fit.levels[1], 0.6, 0.02);
    EXPECT_NEAR(fit.transition(0, 1), 0.2, 0.05); // P(l | h)
    EXPECT_NEAR(fit.transition(1, 0), 0.5, 0.07); // P(h | l)

    // Round-trips into a usable ArrivalProcess.
    const ArrivalProcess fitted = fit.to_arrival_process();
    EXPECT_NEAR(fitted.mean_rate(), truth.mean_rate(), 0.02);
}

TEST(MmppFit, SingleStateDegeneratesToMean) {
    const ArrivalProcess truth = ArrivalProcess::constant(0.7);
    Rng rng(4);
    const auto counts = sample_arrival_counts(truth, 200.0, 2.0, 500, rng);
    MmppFitConfig config;
    config.num_states = 1;
    const MmppFitResult fit = fit_arrival_process(counts, 200.0, 2.0, config);
    ASSERT_EQ(fit.levels.size(), 1u);
    EXPECT_NEAR(fit.levels[0], 0.7, 0.01);
    EXPECT_NEAR(fit.transition(0, 0), 1.0, 1e-9);
}

TEST(MmppFit, ThreeStateModelFitsThreeLevels) {
    const Matrix chain{{0.8, 0.15, 0.05}, {0.2, 0.7, 0.1}, {0.3, 0.2, 0.5}};
    const ArrivalProcess truth({1.2, 0.7, 0.3}, chain);
    Rng rng(5);
    const auto counts = sample_arrival_counts(truth, 400.0, 1.0, 6000, rng);
    MmppFitConfig config;
    config.num_states = 3;
    const MmppFitResult fit = fit_arrival_process(counts, 400.0, 1.0, config);
    ASSERT_EQ(fit.levels.size(), 3u);
    EXPECT_NEAR(fit.levels[0], 1.2, 0.05);
    EXPECT_NEAR(fit.levels[1], 0.7, 0.05);
    EXPECT_NEAR(fit.levels[2], 0.3, 0.05);
}

TEST(MmppFit, DeterministicGivenSeed) {
    const ArrivalProcess truth = ArrivalProcess::paper_two_state();
    Rng rng(6);
    const auto counts = sample_arrival_counts(truth, 100.0, 1.0, 300, rng);
    const MmppFitResult a = fit_arrival_process(counts, 100.0, 1.0);
    const MmppFitResult b = fit_arrival_process(counts, 100.0, 1.0);
    EXPECT_DOUBLE_EQ(a.levels[0], b.levels[0]);
    EXPECT_DOUBLE_EQ(a.log_likelihood_trace.back(), b.log_likelihood_trace.back());
}

} // namespace
} // namespace mflb
