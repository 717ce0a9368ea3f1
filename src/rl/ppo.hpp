/// \file ppo.hpp
/// Proximal Policy Optimization (Schulman et al., 2017) with the RLlib-style
/// combination the paper trains with: clipped surrogate objective *plus* an
/// adaptive KL penalty, a clipped value-function loss, and minibatched SGD
/// epochs over each on-policy batch. Defaults reproduce Table 2 exactly
/// (γ = 0.99, λ_RL = 1, KL coeff 0.2, clip 0.3, lr 5e-5, batch 4000,
/// minibatch 128, 30 epochs).
///
/// The trainer is batch-major and parallel, and `train_threads` never
/// changes a result bit:
///  - rollout collection fans out over `num_envs` independent environment
///    slots (each with its own forked RNG stream) on the shared thread pool
///    and merges slot trajectories into the rollout buffer by a fixed-order
///    serial reduction — results are bit-identical for fixed
///    (seed, num_envs) at any `train_threads` count;
///  - the SGD epochs run whole minibatches through the GEMM-backed batched
///    MLP passes (rl/mlp.hpp), each minibatch as two fan-outs on the thread
///    team: (A) chunks of rows run the forward passes, the per-row loss
///    terms and delta back-propagation; (B) blocks of gradient rows finish
///    the minibatch for their own weight and bias rows: zero the gradient,
///    sum it over all minibatch rows in ascending order, apply Adam
///    (Adam::step_range) and re-transpose the updated weights for the next
///    forward pass. The permutation, the loss sums and Adam's step counter
///    stay serial, so parameters are bitwise equal at any thread count.
///    With `max_grad_norm > 0`, (B) splits in two around the serial
///    global-norm sums that clipping needs. Workspaces are
///    constructor-sized, so the steady-state update is allocation-free at
///    any `train_threads`. The legacy per-sample update is kept behind
///    `batched_update = false` as the benchmark baseline; the two paths
///    agree to 1e-12 (FMA contraction in the GEMM kernels is the only
///    difference).
#pragma once

#include "rl/adam.hpp"
#include "rl/env.hpp"
#include "rl/gaussian_policy.hpp"
#include "rl/rollout_buffer.hpp"
#include "support/telemetry.hpp"

#include <functional>
#include <memory>
#include <vector>

namespace mflb::rl {

/// Hyperparameters; defaults are the paper's Table 2.
struct PpoConfig {
    double discount = 0.99;           ///< γ.
    double gae_lambda = 1.0;          ///< λ_RL.
    double kl_coeff = 0.2;            ///< β, adapted toward kl_target.
    double kl_target = 0.01;          ///< RLlib default target KL.
    double clip_param = 0.3;          ///< ε.
    double learning_rate = 5e-5;      ///< lr.
    std::size_t train_batch_size = 4000; ///< B_b environment steps per iteration.
    std::size_t minibatch_size = 128;    ///< B_m.
    std::size_t num_epochs = 30;         ///< T_b SGD passes per batch.
    double vf_loss_coeff = 1.0;
    double vf_clip_param = 10.0;      ///< clip on squared value error (RLlib).
    double entropy_coeff = 0.0;
    double max_grad_norm = 0.0;       ///< 0 disables global-norm clipping.
    bool normalize_advantages = true;
    std::vector<std::size_t> hidden = {256, 256}; ///< tanh layers (Fig. 2).
    /// Initial exploration log-std of the Gaussian head (0 = network
    /// default, sigma ~ 1). Negative values tighten exploration — useful for
    /// high-dimensional decision-rule actions at small step budgets.
    double initial_log_std = 0.0;
    /// K independent rollout environments collecting each batch in parallel.
    /// Part of the result-determining (seed, K) pair: results depend on K
    /// but never on the number of worker threads. K = 1 reproduces the
    /// legacy single-stream trajectory exactly.
    std::size_t num_envs = 1;
    /// Worker threads for the trainer's fan-outs: rollout collection and
    /// both fan-outs of every update minibatch (0 = all hardware threads;
    /// 1 runs everything inline). Never changes results, only wall clock.
    std::size_t train_threads = 0;
    /// When false, runs the legacy per-sample update loop instead of the
    /// batched GEMM path (results agree to 1e-12; kept as the benchmark
    /// baseline for bench_train_scale). The per-sample loop is serial.
    bool batched_update = true;
    /// Optional telemetry session (non-owning; nullptr = fully disabled).
    /// Enables one "ppo_iter" series row per train_iteration (losses, KL,
    /// entropy, returns, collect/update wall-clock) plus collect/update/slot
    /// tracer spans. Never consumes RNG draws or perturbs training results.
    TelemetrySession* telemetry = nullptr;

    /// Throws std::invalid_argument, naming the field and its value, unless
    /// every real-valued field is finite and: learning_rate, clip_param,
    /// kl_target and vf_clip_param are > 0; discount is in (0, 1];
    /// gae_lambda is in [0, 1]; kl_coeff, vf_loss_coeff and max_grad_norm are
    /// ≥ 0; the batch sizes, num_epochs and num_envs are positive; and
    /// num_envs ≤ train_batch_size. PpoTrainer's constructor calls it first.
    void validate() const;
};

/// Per-iteration training diagnostics (one row of the Fig. 3 curve).
struct PpoIterationStats {
    std::size_t timesteps_total = 0;     ///< cumulative env steps.
    double mean_episode_return = 0.0;    ///< over episodes completed this iter.
    std::size_t episodes_completed = 0;
    double mean_kl = 0.0;
    double policy_loss = 0.0;
    double value_loss = 0.0;
    double entropy = 0.0;
    double kl_coeff = 0.0;               ///< coefficient after adaptation.
};

/// PPO trainer over factory-created environment instances.
class PpoTrainer {
public:
    /// Creates one independent environment per call. Invoked num_envs + 1
    /// times at construction (rollout slots plus the dedicated evaluation
    /// environment); must not share mutable state between instances.
    using EnvFactory = std::function<std::unique_ptr<Env>()>;

    PpoTrainer(const EnvFactory& make_env, PpoConfig config, Rng rng);

    /// Collects one on-policy batch and performs the SGD epochs.
    PpoIterationStats train_iteration();
    /// Convenience: runs `iterations` and returns the full history.
    std::vector<PpoIterationStats> train(std::size_t iterations,
                                         const std::function<void(const PpoIterationStats&)>&
                                             on_iteration = nullptr);

    /// Phase hooks for benches and the allocation tests: train_iteration()
    /// is collect_phase() followed by optimize_phase() on the same stats
    /// object (plus history bookkeeping). optimize_phase() requires a
    /// preceding collect_phase().
    void collect_phase(PpoIterationStats& stats);
    void optimize_phase(PpoIterationStats& stats);

    const GaussianPolicy& policy() const noexcept { return policy_; }
    GaussianPolicy& policy() noexcept { return policy_; }
    const Mlp& value_network() const noexcept { return value_net_; }
    const std::vector<PpoIterationStats>& history() const noexcept { return history_; }
    double current_kl_coeff() const noexcept { return kl_coeff_; }
    std::size_t num_envs() const noexcept { return slots_.size(); }

    /// Mean undiscounted return of the deterministic (mean-action) policy
    /// over `episodes` fresh episodes, on a dedicated evaluation environment
    /// with its own forked RNG stream — interleaved collect/evaluate calls
    /// never perturb the training trajectory. Throws std::invalid_argument
    /// when `episodes` is 0.
    double evaluate(std::size_t episodes);

private:
    /// One rollout environment with its trajectory state and private
    /// collection buffer (capacity = this slot's share of the batch).
    struct Slot {
        Slot(std::unique_ptr<Env> env_in, std::size_t quota, std::size_t obs_dim,
             std::size_t act_dim)
            : env(std::move(env_in)),
              buffer(quota, obs_dim, act_dim),
              action(act_dim, 0.0),
              mean(act_dim, 0.0),
              log_std(act_dim, 0.0) {}

        std::unique_ptr<Env> env;
        Rng rng{0};             ///< fork(k) stream (unused when num_envs == 1).
        RolloutBuffer buffer;
        Mlp::Workspace policy_ws;
        Mlp::Workspace value_ws;
        std::vector<double> current_obs;
        std::vector<double> action;  ///< sample_with_moments scratch rows.
        std::vector<double> mean;
        std::vector<double> log_std;
        bool episode_active = false;
        double episode_return = 0.0;
        double bootstrap = 0.0;       ///< V(s_T) of a truncated trajectory.
        double return_sum = 0.0;      ///< per-iteration episode-return total.
        std::size_t episodes_completed = 0;
    };

    void collect_slot(Slot& slot, Rng& rng) const;
    /// Emits the iteration's "ppo_iter" series row (no-op when metrics are
    /// disabled); the step index is the iteration count before this one.
    void record_iteration_telemetry(const PpoIterationStats& stats, double collect_seconds,
                                    double update_seconds);
    /// One work item of the update's reduction fan-out: output units
    /// [begin, end) of weight layer `layer` of the policy or value network,
    /// and the entries of their weight rows and biases in the flat parameter
    /// and gradient vectors.
    struct GradBlock {
        bool value_net;
        std::size_t layer;
        std::size_t begin;
        std::size_t end;
        std::size_t weights_begin;
        std::size_t weights_end;
        std::size_t bias_begin;
        std::size_t bias_end;
    };
    /// Cuts every layer of `net` into GradBlocks on the GEMM row-tile grid.
    static void append_grad_blocks(const Mlp& net, bool value_net,
                                   std::vector<GradBlock>& blocks);
    /// Zeroes the block's gradient entries, then sums them over all rows of
    /// the minibatch (Mlp::accumulate_gradient()).
    void accumulate_block(const GradBlock& block);
    /// Applies the begun Adam step to the block's parameters, with each
    /// gradient times `scale`, and re-transposes its weight rows into the
    /// batch workspace for the next forward pass.
    void step_block(const GradBlock& block, double scale);

    void optimize_batched(PpoIterationStats& stats);
    void optimize_scalar(PpoIterationStats& stats);
    void finish_optimize(PpoIterationStats& stats, double kl_sum, double policy_loss_sum,
                         double value_loss_sum, double entropy_sum, std::size_t samples);

    PpoConfig config_;
    std::unique_ptr<Env> eval_env_;
    std::size_t obs_dim_;
    std::size_t act_dim_;
    Rng rng_;
    GaussianPolicy policy_;
    Mlp value_net_;
    Adam policy_opt_;
    Adam value_opt_;
    double kl_coeff_;
    Rng eval_rng_{0};
    std::vector<Slot> slots_;
    RolloutBuffer buffer_; ///< merged batch, capacity train_batch_size.
    std::vector<PpoIterationStats> history_;
    std::size_t timesteps_total_ = 0;
    trace::Tracer* tracer_ = nullptr; ///< null = spans disabled (one branch).
    MetricsRow telemetry_row_;        ///< reused per iteration (allocation-free).

    // Constructor-sized update workspaces (rows = min(minibatch, batch)).
    std::vector<std::uint32_t> order_;
    std::vector<double> obs_batch_;
    std::vector<double> act_batch_;
    std::vector<double> old_mean_batch_;
    std::vector<double> old_log_std_batch_;
    std::vector<double> adv_batch_;
    std::vector<double> target_batch_;
    std::vector<double> logp_old_batch_;
    std::vector<double> mean_batch_;
    std::vector<double> log_std_batch_;
    std::vector<double> logp_new_batch_;
    std::vector<double> entropy_batch_;
    std::vector<double> c_logp_batch_;
    std::vector<double> surrogate_batch_;
    std::vector<double> kl_batch_;
    std::vector<double> value_loss_batch_;
    std::vector<double> grad_out_policy_;
    std::vector<double> grad_out_value_;
    Mlp::BatchWorkspace policy_bws_;
    Mlp::BatchWorkspace value_bws_;
    std::vector<double> policy_grad_;
    std::vector<double> value_grad_;
    std::vector<GradBlock> grad_blocks_; ///< the reduction fan-out's work items.
    /// Work items per minibatch of the row-parallel fan-out: one per
    /// training thread (see optimize_batched()).
    std::size_t row_chunks_ = 1;
    // Scalar-path scratch (legacy update baseline).
    Mlp::Workspace scalar_policy_ws_;
    Mlp::Workspace scalar_value_ws_;
    GaussianPolicy::Moments old_moments_scratch_;
};

} // namespace mflb::rl
