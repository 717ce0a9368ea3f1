// End-to-end pipeline tests: train (CEM / PPO) on the MFC MDP, deploy to the
// finite system, serialize and reload.
#include "core/mflb.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

namespace mflb {
namespace {

MfcConfig training_config(double dt = 5.0, int horizon = 20) {
    MfcConfig config;
    config.dt = dt;
    config.horizon = horizon;
    return config;
}

TEST(Integration, CemPolicyBeatsBothBaselinesAtIntermediateDelay) {
    // The paper's headline claim (Fig. 5): at Δt = 5 the learned MF policy
    // outperforms both JSQ(2) (optimal at Δt → 0) and RND (optimal at
    // Δt → ∞). CEM on the exact mean-field objective reaches this in a few
    // hundred episodes.
    const MfcConfig config = training_config(5.0, 20);
    rl::CemConfig cem;
    cem.population = 32;
    cem.elites = 6;
    cem.generations = 25;
    const CemTrainingResult trained = train_tabular_cem(config, cem, 2, 1234);

    const TupleSpace space(config.queue.num_states(), config.d);
    const std::size_t eval_episodes = 40;
    const EvaluationResult learned = evaluate_mfc(config, trained.policy, eval_episodes, 99);
    const EvaluationResult jsq = evaluate_mfc(config, make_jsq_policy(space), eval_episodes, 99);
    const EvaluationResult rnd = evaluate_mfc(config, make_rnd_policy(space), eval_episodes, 99);

    EXPECT_LT(learned.total_drops.mean, jsq.total_drops.mean);
    EXPECT_LT(learned.total_drops.mean, rnd.total_drops.mean * 1.02);
}

TEST(Integration, CemPolicyTransfersToFiniteSystem) {
    const MfcConfig config = training_config(5.0, 20);
    rl::CemConfig cem;
    cem.population = 24;
    cem.elites = 5;
    cem.generations = 15;
    const CemTrainingResult trained = train_tabular_cem(config, cem, 2, 777);

    ExperimentConfig experiment;
    experiment.dt = 5.0;
    experiment.num_queues = 60;
    experiment.num_clients = 3600;
    experiment.eval_total_time = 100.0;
    const TupleSpace space(experiment.queue.num_states(), experiment.d);

    const EvaluationResult learned =
        evaluate_backend(SimBackend::Finite, experiment.finite_system(), trained.policy, 15, 5);
    const EvaluationResult rnd =
        evaluate_backend(SimBackend::Finite, experiment.finite_system(), make_rnd_policy(space),
                         15, 5);
    // Transfers: the MFC-trained policy is at least as good as RND on the
    // finite system (within CI noise).
    EXPECT_LT(learned.total_drops.mean,
              rnd.total_drops.mean + rnd.total_drops.half_width + 0.5);
}

TEST(Integration, PpoPipelineRunsOnMfcMdp) {
    // Smoke test of the paper-faithful trainer at a tiny budget: training
    // must run, improve numerics must stay finite, and the deployed policy
    // must produce valid decision rules in the finite system.
    MfcConfig config = training_config(5.0, 10);
    rl::PpoConfig ppo;
    ppo.hidden = {16, 16};
    ppo.train_batch_size = 200;
    ppo.minibatch_size = 50;
    ppo.num_epochs = 3;
    ppo.learning_rate = 1e-3;
    const PpoTrainingResult result = train_mfc_ppo(config, ppo, 2, 4, 31337);
    ASSERT_EQ(result.history.size(), 2u);
    EXPECT_TRUE(std::isfinite(result.history.back().mean_episode_return));
    EXPECT_TRUE(std::isfinite(result.final_eval_return));

    const NeuralUpperPolicy policy = make_neural_policy(config, result.network);
    FiniteSystemConfig finite;
    finite.dt = 5.0;
    finite.num_queues = 30;
    finite.num_clients = 900;
    finite.horizon = 5;
    FiniteSystem system(finite);
    Rng rng(1);
    system.reset(rng);
    const EpisodeStats stats = system.run_episode(policy, rng);
    EXPECT_GE(stats.total_drops_per_queue, 0.0);
}

TEST(Integration, PolicySaveLoadPreservesEvaluation) {
    const MfcConfig config = training_config(5.0, 10);
    rl::CemConfig cem;
    cem.population = 16;
    cem.elites = 4;
    cem.generations = 5;
    const CemTrainingResult trained = train_tabular_cem(config, cem, 1, 2024);

    const std::string path = "/tmp/mflb_test_policy.txt";
    ASSERT_TRUE(trained.policy.to_archive().save(path));
    const TabularPolicy loaded = TabularPolicy::from_archive(Archive::load(path));
    std::remove(path.c_str());

    const EvaluationResult a = evaluate_mfc(config, trained.policy, 6, 5);
    const EvaluationResult b = evaluate_mfc(config, loaded, 6, 5);
    EXPECT_DOUBLE_EQ(a.total_drops.mean, b.total_drops.mean);
}

TEST(Integration, SimplexParameterizationTrainsWorseOrEqual) {
    // The paper reports Dirichlet/simplex action parameterization performs
    // significantly worse; at equal small budget the logits version should
    // be at least as good (generous tolerance; both are optimized).
    const MfcConfig config = training_config(5.0, 15);
    rl::CemConfig cem;
    cem.population = 24;
    cem.elites = 5;
    cem.generations = 12;
    const CemTrainingResult logits =
        train_tabular_cem(config, cem, 2, 11, RuleParameterization::Logits);
    const CemTrainingResult simplex =
        train_tabular_cem(config, cem, 2, 11, RuleParameterization::Simplex);
    const EvaluationResult logits_eval = evaluate_mfc(config, logits.policy, 30, 55);
    const EvaluationResult simplex_eval = evaluate_mfc(config, simplex.policy, 30, 55);
    EXPECT_LE(logits_eval.total_drops.mean,
              simplex_eval.total_drops.mean + simplex_eval.total_drops.half_width + 0.3);
}

TEST(Integration, UmbrellaHeaderQuickstartCompiles) {
    // Mirrors the README quickstart.
    ExperimentConfig cfg;
    cfg.dt = 5.0;
    cfg.num_queues = 20;
    cfg.num_clients = 400;
    cfg.eval_total_time = 25.0;
    const TupleSpace space(cfg.queue.num_states(), cfg.d);
    const FixedRulePolicy jsq = make_jsq_policy(space);
    const EvaluationResult r = evaluate_backend(SimBackend::Finite, cfg.finite_system(), jsq, 4, 1);
    EXPECT_EQ(r.episodes, 4u);
}

} // namespace
} // namespace mflb
