// PPO end-to-end behaviour on small synthetic environments.
#include "rl/ppo.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>

namespace mflb::rl {
namespace {

/// Reward = -(a - target)^2 summed over a short episode; the optimal policy
/// outputs `target` deterministically. Observation is a constant.
class TargetEnv final : public Env {
public:
    explicit TargetEnv(double target, int horizon = 8) : target_(target), horizon_(horizon) {}

    std::size_t observation_dim() const override { return 2; }
    std::size_t action_dim() const override { return 1; }

    std::vector<double> reset(Rng& /*rng*/) override {
        t_ = 0;
        return {1.0, 0.5};
    }

    StepResult step(std::span<const double> action, Rng& /*rng*/) override {
        const double a = action[0];
        StepResult r;
        r.reward = -(a - target_) * (a - target_);
        ++t_;
        r.done = t_ >= horizon_;
        r.observation = {1.0, 0.5};
        return r;
    }

private:
    double target_;
    int horizon_;
    int t_ = 0;
};

/// Two-state contextual environment: the optimal action depends on the
/// observation (state 0 wants -1, state 1 wants +1).
class ContextualEnv final : public Env {
public:
    std::size_t observation_dim() const override { return 1; }
    std::size_t action_dim() const override { return 1; }

    std::vector<double> reset(Rng& rng) override {
        t_ = 0;
        state_ = rng.bernoulli(0.5) ? 1.0 : 0.0;
        return {state_};
    }

    StepResult step(std::span<const double> action, Rng& rng) override {
        const double target = state_ > 0.5 ? 1.0 : -1.0;
        StepResult r;
        r.reward = -(action[0] - target) * (action[0] - target);
        ++t_;
        r.done = t_ >= 6;
        state_ = rng.bernoulli(0.5) ? 1.0 : 0.0;
        r.observation = {state_};
        return r;
    }

private:
    int t_ = 0;
    double state_ = 0.0;
};

PpoConfig fast_config() {
    PpoConfig config;
    config.hidden = {32, 32};
    config.train_batch_size = 512;
    config.minibatch_size = 64;
    config.num_epochs = 8;
    config.learning_rate = 5e-3;
    return config;
}

PpoTrainer::EnvFactory target_env(double target) {
    return [target] { return std::make_unique<TargetEnv>(target); };
}

TEST(Ppo, ValidatesConfig) {
    // Each row breaks one field; the constructor must refuse it with a
    // message that names the field and the value it got.
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    struct Row {
        const char* field;
        const char* value;
        std::function<void(PpoConfig&)> corrupt;
    };
    const Row rows[] = {
        {"learning_rate", "0", [](PpoConfig& c) { c.learning_rate = 0.0; }},
        {"learning_rate", "-0.001", [](PpoConfig& c) { c.learning_rate = -1e-3; }},
        {"discount", "0", [](PpoConfig& c) { c.discount = 0.0; }},
        {"discount", "1.01", [](PpoConfig& c) { c.discount = 1.01; }},
        {"gae_lambda", "-0.1", [](PpoConfig& c) { c.gae_lambda = -0.1; }},
        {"gae_lambda", "1.5", [](PpoConfig& c) { c.gae_lambda = 1.5; }},
        {"clip_param", "0", [](PpoConfig& c) { c.clip_param = 0.0; }},
        {"kl_target", "-0.01", [](PpoConfig& c) { c.kl_target = -0.01; }},
        {"vf_clip_param", "0", [](PpoConfig& c) { c.vf_clip_param = 0.0; }},
        {"kl_coeff", "-0.2", [](PpoConfig& c) { c.kl_coeff = -0.2; }},
        {"vf_loss_coeff", "-1", [](PpoConfig& c) { c.vf_loss_coeff = -1.0; }},
        {"max_grad_norm", "-0.5", [](PpoConfig& c) { c.max_grad_norm = -0.5; }},
        {"learning_rate", "nan", [](PpoConfig& c) { c.learning_rate = kNan; }},
        {"vf_clip_param", "inf", [](PpoConfig& c) { c.vf_clip_param = kInf; }},
        {"entropy_coeff", "nan", [](PpoConfig& c) { c.entropy_coeff = kNan; }},
        {"initial_log_std", "-inf", [](PpoConfig& c) { c.initial_log_std = -kInf; }},
        {"max_grad_norm", "inf", [](PpoConfig& c) { c.max_grad_norm = kInf; }},
        {"train_batch_size", "0", [](PpoConfig& c) { c.train_batch_size = 0; }},
        {"minibatch_size", "0", [](PpoConfig& c) { c.minibatch_size = 0; }},
        {"num_epochs", "0", [](PpoConfig& c) { c.num_epochs = 0; }},
        {"num_envs", "0", [](PpoConfig& c) { c.num_envs = 0; }},
        {"num_envs", "513", [](PpoConfig& c) { c.num_envs = c.train_batch_size + 1; }},
    };
    for (const Row& row : rows) {
        PpoConfig config = fast_config();
        row.corrupt(config);
        SCOPED_TRACE(testing::Message() << row.field << " = " << row.value);
        try {
            PpoTrainer trainer(target_env(0.0), config, Rng(1));
            ADD_FAILURE() << "accepted";
        } catch (const std::invalid_argument& error) {
            const std::string message = error.what();
            EXPECT_NE(message.find(row.field), std::string::npos) << message;
            EXPECT_NE(message.find(std::string("got ") + row.value + ")"), std::string::npos)
                << message;
        }
    }
    // The edges of each range, and the negative values that stay legal.
    PpoConfig edges = fast_config();
    edges.discount = 1.0;
    edges.gae_lambda = 0.0;
    edges.kl_coeff = 0.0;
    edges.vf_loss_coeff = 0.0;
    edges.max_grad_norm = 0.0;
    edges.entropy_coeff = -0.01;
    edges.initial_log_std = -1.2;
    edges.num_envs = edges.train_batch_size;
    EXPECT_NO_THROW(PpoTrainer(target_env(0.0), edges, Rng(1)));
    EXPECT_NO_THROW(PpoConfig{}.validate()); // Table 2
}

TEST(Ppo, EvaluateRejectsZeroEpisodes) {
    PpoTrainer trainer(target_env(0.0), fast_config(), Rng(1));
    EXPECT_THROW((void)trainer.evaluate(0), std::invalid_argument);
    EXPECT_TRUE(std::isfinite(trainer.evaluate(1)));
}

TEST(Ppo, IterationProducesStats) {
    PpoTrainer trainer(target_env(0.3), fast_config(), Rng(2));
    const auto stats = trainer.train_iteration();
    EXPECT_EQ(stats.timesteps_total, 512u);
    EXPECT_GT(stats.episodes_completed, 0u);
    EXPECT_GE(stats.mean_kl, 0.0);
    EXPECT_EQ(trainer.history().size(), 1u);
}

TEST(Ppo, LearnsConstantTarget) {
    PpoTrainer trainer(target_env(0.7), fast_config(), Rng(3));
    const double before = trainer.evaluate(20);
    trainer.train(25);
    const double after = trainer.evaluate(20);
    EXPECT_GT(after, before);
    // Deterministic policy should be close to optimal (return 0).
    EXPECT_GT(after, -0.5);
}

TEST(Ppo, LearnsContextualTargets) {
    PpoTrainer trainer([] { return std::make_unique<ContextualEnv>(); }, fast_config(), Rng(4));
    trainer.train(35);
    // Check the mean action is state-dependent with the right signs.
    const auto low = trainer.policy().mean_action(std::vector<double>{0.0});
    const auto high = trainer.policy().mean_action(std::vector<double>{1.0});
    EXPECT_LT(low[0], 0.0);
    EXPECT_GT(high[0], 0.0);
}

TEST(Ppo, KlCoefficientAdapts) {
    PpoConfig config = fast_config();
    config.kl_target = 1e-9; // practically unattainable: coeff must grow
    PpoTrainer trainer(target_env(0.0), config, Rng(5));
    const double initial = trainer.current_kl_coeff();
    trainer.train(3);
    EXPECT_GT(trainer.current_kl_coeff(), initial);
}

TEST(Ppo, TimestepsAccumulateAcrossIterations) {
    PpoTrainer trainer(target_env(0.0), fast_config(), Rng(6));
    trainer.train(3);
    EXPECT_EQ(trainer.history().back().timesteps_total, 3u * 512u);
}

TEST(Ppo, DeterministicGivenSeed) {
    auto run = [] {
        PpoTrainer trainer(target_env(0.4), fast_config(), Rng(77));
        trainer.train(2);
        return trainer.history().back().mean_episode_return;
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

} // namespace
} // namespace mflb::rl
