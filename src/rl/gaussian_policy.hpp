/// \file gaussian_policy.hpp
/// Diagonal-Gaussian stochastic policy over a continuous action vector. The
/// network (tanh MLP, Fig. 2 of the paper) outputs mean and log-std for each
/// action dimension; the raw sampled actions are the *logits* of the decision
/// rule, which the environment adapter normalizes per row ("manual
/// normalization" in the paper's Section 4).
#pragma once

#include "rl/mlp.hpp"
#include "support/rng.hpp"

#include <span>
#include <vector>

namespace mflb::rl {

/// π_θ(a|s) = N(μ_θ(s), diag(σ_θ(s)^2)); log-std is clamped to a stable
/// range before exponentiation.
class GaussianPolicy {
public:
    /// \param hidden e.g. {256, 256}.
    GaussianPolicy(std::size_t obs_dim, std::size_t action_dim,
                   const std::vector<std::size_t>& hidden, Rng& rng);

    std::size_t obs_dim() const noexcept { return obs_dim_; }
    std::size_t action_dim() const noexcept { return action_dim_; }
    Mlp& network() noexcept { return net_; }
    const Mlp& network() const noexcept { return net_; }
    std::size_t parameter_count() const noexcept { return net_.parameter_count(); }

    /// Distribution parameters at a state.
    struct Moments {
        std::vector<double> mean;
        std::vector<double> log_std; ///< clamped.
    };
    Moments moments(std::span<const double> obs) const;

    struct Sample {
        std::vector<double> action;
        double log_prob = 0.0;
    };
    /// Samples an action and returns its log-density.
    Sample sample(std::span<const double> obs, Rng& rng) const;
    /// Sampling variant for rollout workers: reuses `ws` for the forward
    /// pass, writes the action and the clamped distribution moments into
    /// caller buffers (each sized action_dim()), and returns the
    /// log-density. Draws the same rng sequence as sample().
    double sample_with_moments(std::span<const double> obs, Rng& rng, Mlp::Workspace& ws,
                               std::span<double> action, std::span<double> mean,
                               std::span<double> log_std) const;
    /// Deterministic (mean) action for evaluation.
    std::vector<double> mean_action(std::span<const double> obs) const;

    /// Log-density and entropy of `action` at `obs`, with activations cached
    /// for a subsequent backward().
    struct Eval {
        double log_prob = 0.0;
        double entropy = 0.0;
        Moments moments;
    };
    Eval evaluate(std::span<const double> obs, std::span<const double> action,
                  Mlp::Workspace& ws) const;

    /// Accumulates into `grad_params` the gradient of
    ///   loss = c_logp * log π(a|s) + c_entropy * H(π(·|s))
    ///        + c_kl * KL(N(old) || π(·|s))
    /// using the workspace cached by evaluate(). `old` may be null when
    /// c_kl == 0.
    void backward(const Mlp::Workspace& ws, const Eval& eval, std::span<const double> action,
                  double c_logp, double c_entropy, double c_kl, const Moments* old,
                  std::span<double> grad_params) const;

    /// Batched evaluate over `batch` row-major (obs, action) rows: writes the
    /// clamped moments (batch × action_dim each), per-row log-densities and
    /// entropies, and caches activations in `ws` for backward_batch(). Row b
    /// agrees with evaluate() on that row to 1e-12. Allocation-free.
    void evaluate_batch(std::span<const double> obs, std::span<const double> actions,
                        std::size_t batch, Mlp::BatchWorkspace& ws, std::span<double> means,
                        std::span<double> log_stds, std::span<double> log_probs,
                        std::span<double> entropies) const;
    /// evaluate_batch() for rows [r0, r1) of a pass begun with
    /// network().begin_batch(); every span holds just those rows. The row
    /// and concurrency rules are Mlp::forward_rows()'s, and so is the need
    /// for current transposed weights (network().transpose_weights()).
    void evaluate_rows(std::span<const double> obs, std::span<const double> actions,
                       std::size_t r0, std::size_t r1, Mlp::BatchWorkspace& ws,
                       std::span<double> means, std::span<double> log_stds,
                       std::span<double> log_probs, std::span<double> entropies) const;

    /// Batched counterpart of backward(): accumulates into `grad_params` the
    /// gradient of Σ_b c_logp[b]·log π(a_b|s_b) + c_entropy·H + c_kl·KL(old_b‖·),
    /// reusing the activations cached by evaluate_batch(). `grad_out` is
    /// caller scratch sized batch × 2·action_dim; `old_means`/`old_log_stds`
    /// may be empty when c_kl == 0. Agrees with per-row backward() calls in
    /// ascending row order to 1e-12. Allocation-free.
    void backward_batch(Mlp::BatchWorkspace& ws, std::size_t batch,
                        std::span<const double> actions, std::span<const double> means,
                        std::span<const double> log_stds, std::span<const double> c_logp,
                        double c_entropy, double c_kl, std::span<const double> old_means,
                        std::span<const double> old_log_stds, std::span<double> grad_out,
                        std::span<double> grad_params) const;
    /// The per-row half of backward_batch() for rows [r0, r1) (every span
    /// holds just those rows): writes their output gradients into `grad_out`
    /// and back-propagates them (Mlp::backprop_rows()). The parameter
    /// gradient is then summed by network().accumulate_gradient().
    void backprop_rows(Mlp::BatchWorkspace& ws, std::size_t r0, std::size_t r1,
                       std::span<const double> actions, std::span<const double> means,
                       std::span<const double> log_stds, std::span<const double> c_logp,
                       double c_entropy, double c_kl, std::span<const double> old_means,
                       std::span<const double> old_log_stds, std::span<double> grad_out) const;

    /// Analytic KL(N(old) || N(current at obs)). Used for the adaptive KL
    /// penalty coefficient of RLlib-style PPO.
    static double kl(const Moments& old_moments, const Moments& new_moments) noexcept;
    /// Span overload over raw moment rows (same arithmetic, same order).
    static double kl(std::span<const double> old_mean, std::span<const double> old_log_std,
                     std::span<const double> new_mean,
                     std::span<const double> new_log_std) noexcept;

    /// Sets the log-std head bias so the initial exploration noise is
    /// exp(log_std) regardless of observation (the head weights are near
    /// zero at init). Tighter noise helps in high-dimensional action spaces.
    void set_initial_log_std(double log_std) noexcept;

    /// Sets the mean head bias, i.e. the (state-independent) initial mean
    /// action — used to warm-start training from a known-good rule.
    void set_initial_mean(std::span<const double> mean);

    static constexpr double kMinLogStd = -5.0;
    static constexpr double kMaxLogStd = 2.0;

private:
    /// dLoss/d(raw network output) for rows [r0, r1) of the current pass.
    void output_gradients(const Mlp::BatchWorkspace& ws, std::size_t r0, std::size_t r1,
                          std::span<const double> actions, std::span<const double> means,
                          std::span<const double> log_stds, std::span<const double> c_logp,
                          double c_entropy, double c_kl, std::span<const double> old_means,
                          std::span<const double> old_log_stds,
                          std::span<double> grad_out) const;

    std::size_t obs_dim_;
    std::size_t action_dim_;
    Mlp net_;
};

} // namespace mflb::rl
