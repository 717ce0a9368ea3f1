// Tests for the Monte Carlo evaluation harness and experiment config.
#include "core/config.hpp"
#include "core/evaluator.hpp"
#include "policies/fixed.hpp"

#include <gtest/gtest.h>

namespace mflb {
namespace {

ExperimentConfig small_experiment() {
    ExperimentConfig config;
    config.dt = 5.0;
    config.num_queues = 40;
    config.num_clients = 1600;
    config.eval_total_time = 50.0; // 10 epochs
    return config;
}

TEST(ExperimentConfig, DerivedHorizons) {
    ExperimentConfig config;
    config.dt = 3.0;
    EXPECT_EQ(config.eval_horizon(), 167);
    config.dt = 10.0;
    EXPECT_EQ(config.eval_horizon(), 50);
    const MfcConfig train = config.mfc();
    EXPECT_EQ(train.horizon, 500);
    const MfcConfig eval = config.mfc(/*eval_horizon_instead=*/true);
    EXPECT_EQ(eval.horizon, 50);
    const FiniteSystemConfig finite = config.finite_system();
    EXPECT_EQ(finite.horizon, 50);
    EXPECT_EQ(finite.num_queues, 100u);
}

TEST(ExperimentConfig, TableContainsPaperRows) {
    const ExperimentConfig config;
    const std::string table = config.to_table().to_text();
    EXPECT_NE(table.find("Service rate"), std::string::npos);
    EXPECT_NE(table.find("Queue buffer size"), std::string::npos);
    EXPECT_NE(table.find("Monte Carlo simulations"), std::string::npos);
}

TEST(PpoTable, ContainsTable2Rows) {
    const rl::PpoConfig config;
    const std::string table = ppo_config_table(config).to_text();
    EXPECT_NE(table.find("Discount factor"), std::string::npos);
    EXPECT_NE(table.find("0.99"), std::string::npos);
    EXPECT_NE(table.find("4000"), std::string::npos);
    EXPECT_NE(table.find("128"), std::string::npos);
    EXPECT_NE(table.find("30"), std::string::npos);
}

TEST(Evaluator, FiniteEvaluationShapes) {
    const ExperimentConfig config = small_experiment();
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy rnd = make_rnd_policy(space);
    const EvaluationResult result =
        evaluate_backend(SimBackend::Finite, config.finite_system(), rnd, 8, 7);
    EXPECT_EQ(result.episodes, 8u);
    EXPECT_EQ(result.total_drops.n, 8u);
    EXPECT_GE(result.total_drops.mean, 0.0);
    EXPECT_GE(result.total_drops.half_width, 0.0);
    EXPECT_LE(result.discounted_return.mean, 0.0);
    EXPECT_GE(result.utilization.mean, 0.0);
    EXPECT_LE(result.utilization.mean, 1.0);
}

TEST(Evaluator, DeterministicAcrossThreadCounts) {
    const ExperimentConfig config = small_experiment();
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy jsq = make_jsq_policy(space);
    const EvaluationResult serial =
        evaluate_backend(SimBackend::Finite, config.finite_system(), jsq, 6, 11, 1);
    const EvaluationResult parallel =
        evaluate_backend(SimBackend::Finite, config.finite_system(), jsq, 6, 11, 4);
    EXPECT_DOUBLE_EQ(serial.total_drops.mean, parallel.total_drops.mean);
    EXPECT_DOUBLE_EQ(serial.total_drops.half_width, parallel.total_drops.half_width);
}

TEST(Evaluator, MfcEvaluationIsLowVariance) {
    // In the limit model the only randomness is the 2-state λ chain, so the
    // CI must be far tighter than a comparable finite evaluation.
    const ExperimentConfig config = small_experiment();
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy rnd = make_rnd_policy(space);
    const EvaluationResult mfc = evaluate_mfc(config.mfc(true), rnd, 16, 3);
    EXPECT_GT(mfc.total_drops.mean, 0.0);
    EXPECT_LT(mfc.total_drops.half_width, mfc.total_drops.mean);
}

TEST(Evaluator, CoupledEvaluationProducesSharedPath) {
    const ExperimentConfig config = small_experiment();
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy rnd = make_rnd_policy(space);
    const CoupledEvaluation coupled = evaluate_coupled(config.finite_system(), rnd, 6, 13);
    EXPECT_EQ(coupled.lambda_sequence.size(), static_cast<std::size_t>(config.eval_horizon()));
    EXPECT_GT(coupled.mean_field_drops, 0.0);
    EXPECT_GT(coupled.finite_drops.mean, 0.0);
    // Same seed reproduces the same λ path and results.
    const CoupledEvaluation again = evaluate_coupled(config.finite_system(), rnd, 6, 13);
    EXPECT_EQ(coupled.lambda_sequence, again.lambda_sequence);
    EXPECT_DOUBLE_EQ(coupled.finite_drops.mean, again.finite_drops.mean);
    EXPECT_DOUBLE_EQ(coupled.mean_field_drops, again.mean_field_drops);
}

TEST(Evaluator, JsqBeatsRndAtSmallDelay) {
    ExperimentConfig config = small_experiment();
    config.dt = 1.0;
    config.eval_total_time = 100.0;
    const TupleSpace space(config.queue.num_states(), config.d);
    const EvaluationResult jsq =
        evaluate_backend(SimBackend::Finite, config.finite_system(), make_jsq_policy(space), 15,
                         17);
    const EvaluationResult rnd =
        evaluate_backend(SimBackend::Finite, config.finite_system(), make_rnd_policy(space), 15,
                         17);
    EXPECT_LT(jsq.total_drops.mean, rnd.total_drops.mean);
}

} // namespace
} // namespace mflb
