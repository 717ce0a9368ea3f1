// Determinism and equivalence pins for the parallel training pipeline:
//  - PPO losses/returns/parameters are bitwise equal for fixed
//    (seed, num_envs) at 1, 2, 3, 4 and 8 worker threads (rollout fan-out +
//    fixed-order merge + the two-fan-out minibatch update, with and without
//    global-norm gradient clipping);
//  - the batched GEMM update agrees with the legacy per-sample update to
//    1e-12 (FMA contraction is the only difference), clipped or not;
//  - CEM population evaluation is thread-count-invariant;
//  - evaluate() runs on a dedicated env/stream and never perturbs the
//    training trajectory (regression for the legacy in-flight-episode
//    discard at ppo.cpp:199).
#include "rl/cem.hpp"
#include "rl/ppo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace mflb::rl {
namespace {

/// Stochastic contextual env: the optimal action tracks a random state and
/// both reset() and step() consume rng draws, so every rollout slot's
/// trajectory depends on its stream — exactly what the determinism contract
/// must survive.
class NoisyContextualEnv final : public Env {
public:
    std::size_t observation_dim() const override { return 2; }
    std::size_t action_dim() const override { return 1; }

    std::vector<double> reset(Rng& rng) override {
        t_ = 0;
        state_ = rng.uniform();
        return {state_, 1.0 - state_};
    }

    StepResult step(std::span<const double> action, Rng& rng) override {
        const double target = state_ > 0.5 ? 1.0 : -1.0;
        StepResult r;
        r.reward = -(action[0] - target) * (action[0] - target) + 0.1 * rng.normal();
        ++t_;
        r.done = t_ >= 5;
        state_ = rng.uniform();
        r.observation = {state_, 1.0 - state_};
        return r;
    }

private:
    int t_ = 0;
    double state_ = 0.0;
};

PpoTrainer::EnvFactory make_factory() {
    return [] { return std::make_unique<NoisyContextualEnv>(); };
}

PpoConfig small_config(std::size_t num_envs, std::size_t train_threads,
                       bool batched_update = true) {
    PpoConfig config;
    config.hidden = {16, 16};
    config.train_batch_size = 240;
    config.minibatch_size = 60;
    config.num_epochs = 3;
    config.learning_rate = 1e-3;
    config.num_envs = num_envs;
    config.train_threads = train_threads;
    config.batched_update = batched_update;
    return config;
}

struct RunResult {
    std::vector<PpoIterationStats> history;
    std::vector<double> policy_params;
    std::vector<double> value_params;
};

RunResult run_ppo(const PpoConfig& config, std::uint64_t seed, std::size_t iterations,
                  bool evaluate_between = false) {
    PpoTrainer trainer(make_factory(), config, Rng(seed));
    RunResult result;
    for (std::size_t i = 0; i < iterations; ++i) {
        trainer.train_iteration();
        if (evaluate_between) {
            (void)trainer.evaluate(3);
        }
    }
    result.history = trainer.history();
    const auto p = trainer.policy().network().parameters();
    result.policy_params.assign(p.begin(), p.end());
    const auto v = trainer.value_network().parameters();
    result.value_params.assign(v.begin(), v.end());
    return result;
}

/// Bit pattern of a double: equal patterns, not merely values within a few
/// ulps (EXPECT_DOUBLE_EQ), is the thread-count contract.
std::uint64_t bits(double x) {
    return std::bit_cast<std::uint64_t>(x);
}

void expect_bit_identical(const RunResult& a, const RunResult& b, const char* what) {
    ASSERT_EQ(a.history.size(), b.history.size()) << what;
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        const PpoIterationStats& x = a.history[i];
        const PpoIterationStats& y = b.history[i];
        EXPECT_EQ(x.timesteps_total, y.timesteps_total) << what << " iter " << i;
        EXPECT_EQ(x.episodes_completed, y.episodes_completed) << what << " iter " << i;
        EXPECT_EQ(bits(x.mean_episode_return), bits(y.mean_episode_return))
            << what << " iter " << i;
        EXPECT_EQ(bits(x.mean_kl), bits(y.mean_kl)) << what << " iter " << i;
        EXPECT_EQ(bits(x.policy_loss), bits(y.policy_loss)) << what << " iter " << i;
        EXPECT_EQ(bits(x.value_loss), bits(y.value_loss)) << what << " iter " << i;
        EXPECT_EQ(bits(x.entropy), bits(y.entropy)) << what << " iter " << i;
        EXPECT_EQ(bits(x.kl_coeff), bits(y.kl_coeff)) << what << " iter " << i;
    }
    ASSERT_EQ(a.policy_params.size(), b.policy_params.size());
    for (std::size_t i = 0; i < a.policy_params.size(); ++i) {
        ASSERT_EQ(bits(a.policy_params[i]), bits(b.policy_params[i]))
            << what << " policy param " << i;
    }
    ASSERT_EQ(a.value_params.size(), b.value_params.size());
    for (std::size_t i = 0; i < a.value_params.size(); ++i) {
        ASSERT_EQ(bits(a.value_params[i]), bits(b.value_params[i]))
            << what << " value param " << i;
    }
}

/// Global-norm bound that the small configs' gradients exceed, so a run
/// with it really clips (checked by expect_clipping_changed_both_nets).
constexpr double kClipNorm = 0.05;

/// Asserts that a clipped run ends with other policy and value parameters
/// than the unclipped run, i.e. that clipping took effect in both nets.
void expect_clipping_changed_both_nets(std::span<const double> unclipped_policy,
                                       std::span<const double> clipped_policy,
                                       std::span<const double> unclipped_value,
                                       std::span<const double> clipped_value) {
    const auto differs = [](std::span<const double> x, std::span<const double> y) {
        return !std::equal(x.begin(), x.end(), y.begin(), y.end());
    };
    EXPECT_TRUE(differs(unclipped_policy, clipped_policy)) << "clipping left the policy as is";
    EXPECT_TRUE(differs(unclipped_value, clipped_value)) << "clipping left the value net as is";
}

TEST(PpoParallel, BitIdenticalAcrossThreadCounts) {
    // The (seed, K) pair fixes the result; the worker-thread count must not.
    for (const std::size_t num_envs : {2u, 4u}) {
        const RunResult t1 = run_ppo(small_config(num_envs, 1), 99, 3);
        const RunResult t2 = run_ppo(small_config(num_envs, 2), 99, 3);
        const RunResult t8 = run_ppo(small_config(num_envs, 8), 99, 3);
        expect_bit_identical(t1, t2, "threads 1 vs 2");
        expect_bit_identical(t1, t8, "threads 1 vs 8");
    }
}

TEST(PpoParallel, UpdateIsBitwiseEqualAtAnyThreadCount) {
    // The update fans each minibatch out twice: row chunks (forward, loss
    // terms, delta back-propagation), then blocks of gradient rows summed
    // over the whole minibatch in row order. The chunk size follows the
    // thread count — minibatch 61 is cut into 1×61, 16+16+16+13,
    // 12×5+1, 8×7+5 and 4×15+1 rows at 1/2/3/4/8 threads — and the final
    // 6-row minibatch of batch 250 ends mid-tile; a 256-wide net gives the
    // reduction many blocks. With max_grad_norm > 0 the reduction runs as
    // two fan-outs around the serial norm sums.
    PpoConfig config = small_config(2, 1);
    config.hidden = {256, 256};
    config.train_batch_size = 250;
    config.minibatch_size = 61;
    config.num_epochs = 2;
    std::vector<RunResult> single_thread;
    for (const double max_grad_norm : {0.0, kClipNorm}) {
        config.max_grad_norm = max_grad_norm;
        config.train_threads = 1;
        const RunResult t1 = run_ppo(config, 17, 2);
        for (const std::size_t threads : {2u, 3u, 4u, 8u}) {
            config.train_threads = threads;
            const RunResult tn = run_ppo(config, 17, 2);
            SCOPED_TRACE(testing::Message() << threads << " threads, max_grad_norm "
                                            << max_grad_norm);
            expect_bit_identical(t1, tn, "update threads 1 vs n");
        }
        single_thread.push_back(t1);
    }
    expect_clipping_changed_both_nets(single_thread[0].policy_params,
                                      single_thread[1].policy_params,
                                      single_thread[0].value_params,
                                      single_thread[1].value_params);
}

TEST(PpoParallel, RepeatedRunsAreDeterministic) {
    const RunResult a = run_ppo(small_config(4, 0), 7, 2);
    const RunResult b = run_ppo(small_config(4, 0), 7, 2);
    expect_bit_identical(a, b, "same (seed, K)");
}

TEST(PpoParallel, NumEnvsIsPartOfTheSeedContract) {
    // Different K means different forked streams, hence different (but each
    // individually deterministic) trajectories.
    const RunResult k1 = run_ppo(small_config(1, 1), 7, 1);
    const RunResult k4 = run_ppo(small_config(4, 1), 7, 1);
    EXPECT_NE(k1.history.back().mean_episode_return, k4.history.back().mean_episode_return);
}

TEST(PpoParallel, BatchedUpdateMatchesScalar) {
    // The GEMM kernels accumulate in the scalar path's addition order; the
    // only permitted divergence is FMA contraction (one rounding per
    // multiply-add term instead of two on FMA hardware), so one full update
    // from an identical collected batch agrees far tighter than 1e-12 —
    // with and without global-norm clipping.
    for (const std::size_t num_envs : {1u, 3u}) {
        std::vector<std::vector<double>> policy_after;
        std::vector<std::vector<double>> value_after;
        for (const double max_grad_norm : {0.0, kClipNorm}) {
            SCOPED_TRACE(testing::Message()
                         << num_envs << " envs, max_grad_norm " << max_grad_norm);
            PpoConfig batched_config = small_config(num_envs, 1, true);
            PpoConfig scalar_config = small_config(num_envs, 1, false);
            batched_config.max_grad_norm = max_grad_norm;
            scalar_config.max_grad_norm = max_grad_norm;
            PpoTrainer batched(make_factory(), batched_config, Rng(42));
            PpoTrainer scalar(make_factory(), scalar_config, Rng(42));
            PpoIterationStats batched_stats;
            PpoIterationStats scalar_stats;
            batched.collect_phase(batched_stats);
            scalar.collect_phase(scalar_stats);
            // Collection runs the per-sample path in both trainers: identical.
            ASSERT_EQ(batched_stats.timesteps_total, scalar_stats.timesteps_total);
            ASSERT_DOUBLE_EQ(batched_stats.mean_episode_return,
                             scalar_stats.mean_episode_return);
            batched.optimize_phase(batched_stats);
            scalar.optimize_phase(scalar_stats);
            const auto tol = [](double reference) {
                return 1e-12 * std::max(1.0, std::abs(reference));
            };
            EXPECT_NEAR(batched_stats.policy_loss, scalar_stats.policy_loss,
                        tol(scalar_stats.policy_loss));
            EXPECT_NEAR(batched_stats.value_loss, scalar_stats.value_loss,
                        tol(scalar_stats.value_loss));
            EXPECT_NEAR(batched_stats.entropy, scalar_stats.entropy, tol(scalar_stats.entropy));
            EXPECT_NEAR(batched_stats.mean_kl, scalar_stats.mean_kl, tol(scalar_stats.mean_kl));
            EXPECT_DOUBLE_EQ(batched_stats.kl_coeff, scalar_stats.kl_coeff);
            const auto pb = batched.policy().network().parameters();
            const auto ps = scalar.policy().network().parameters();
            ASSERT_EQ(pb.size(), ps.size());
            for (std::size_t i = 0; i < pb.size(); ++i) {
                ASSERT_NEAR(pb[i], ps[i], 1e-10) << "policy param " << i;
            }
            const auto vb = batched.value_network().parameters();
            const auto vs = scalar.value_network().parameters();
            for (std::size_t i = 0; i < vb.size(); ++i) {
                ASSERT_NEAR(vb[i], vs[i], 1e-10) << "value param " << i;
            }
            policy_after.emplace_back(pb.begin(), pb.end());
            value_after.emplace_back(vb.begin(), vb.end());
        }
        expect_clipping_changed_both_nets(policy_after[0], policy_after[1], value_after[0],
                                          value_after[1]);
    }
}

TEST(PpoParallel, EvaluateDoesNotPerturbTraining) {
    // Regression for the legacy trainer discarding the in-flight collection
    // episode on evaluate(): interleaved evaluations must leave the training
    // trajectory bit-identical, for both single- and multi-env trainers.
    for (const std::size_t num_envs : {1u, 4u}) {
        const RunResult plain = run_ppo(small_config(num_envs, 1), 1234, 3, false);
        const RunResult interleaved = run_ppo(small_config(num_envs, 1), 1234, 3, true);
        expect_bit_identical(plain, interleaved, "evaluate interleaving");
    }
}

TEST(PpoParallel, EvaluateIsDeterministicAndFinite) {
    PpoTrainer trainer(make_factory(), small_config(2, 0), Rng(5));
    const double a = trainer.evaluate(4);
    EXPECT_TRUE(std::isfinite(a));
    PpoTrainer clone(make_factory(), small_config(2, 0), Rng(5));
    EXPECT_DOUBLE_EQ(a, clone.evaluate(4));
}

TEST(CemParallel, BitIdenticalAcrossThreadCounts) {
    const auto objective = [](std::span<const double> x, Rng& rng) {
        double loss = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            loss += (x[i] - 1.0) * (x[i] - 1.0);
        }
        return -loss + 0.05 * rng.normal();
    };
    auto run = [&](std::size_t threads) {
        CemConfig config;
        config.population = 16;
        config.elites = 4;
        config.generations = 6;
        config.threads = threads;
        Rng rng(2024);
        const std::vector<double> x0(3, 0.0);
        return cem_maximize(objective, x0, config, rng);
    };
    const CemResult t1 = run(1);
    const CemResult t2 = run(2);
    const CemResult t8 = run(8);
    EXPECT_DOUBLE_EQ(t1.best_score, t2.best_score);
    EXPECT_DOUBLE_EQ(t1.best_score, t8.best_score);
    for (std::size_t i = 0; i < t1.best_parameters.size(); ++i) {
        EXPECT_DOUBLE_EQ(t1.best_parameters[i], t2.best_parameters[i]);
        EXPECT_DOUBLE_EQ(t1.best_parameters[i], t8.best_parameters[i]);
    }
    ASSERT_EQ(t1.history.size(), t8.history.size());
    for (std::size_t g = 0; g < t1.history.size(); ++g) {
        EXPECT_DOUBLE_EQ(t1.history[g].best_score, t8.history[g].best_score);
        EXPECT_DOUBLE_EQ(t1.history[g].population_mean_score,
                         t8.history[g].population_mean_score);
    }
}

} // namespace
} // namespace mflb::rl
