/// \file adam.hpp
/// Adam optimizer (Kingma & Ba, 2015) over a flat parameter vector, with
/// optional global-norm gradient clipping as used by RLlib's PPO trainer.
/// \see rl/ppo.hpp, whose Table 2 defaults set the learning rate consumed
/// here.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mflb::rl {

/// First-order optimizer state for a fixed-size parameter vector.
class Adam {
public:
    Adam(std::size_t parameter_count, double learning_rate, double beta1 = 0.9,
         double beta2 = 0.999, double epsilon = 1e-8);

    /// Applies one update in place; `grads` is dLoss/dparams (minimized).
    /// If `max_grad_norm` > 0 the gradient is rescaled to that global norm
    /// when it exceeds it. Equals clip_scale(), begin_step() and one
    /// step_range() over every entry.
    void step(std::span<double> params, std::span<const double> grads,
              double max_grad_norm = 0.0);

    /// The range form of step(), for updates spread over threads: one
    /// serial begin_step() advances the step counter, then step_range()
    /// calls over disjoint entry ranges — concurrently if need be — apply
    /// it. Every entry gets the same arithmetic as in step(), so any split
    /// gives bitwise the same parameters.
    void begin_step();
    /// Updates entries [begin, end) of `params` (the whole vector, as in
    /// step()) with the step begun last; `scale` multiplies each gradient
    /// (clip_scale() of the whole gradient, or 1).
    void step_range(std::span<double> params, std::span<const double> grads, std::size_t begin,
                    std::size_t end, double scale = 1.0);
    /// Factor that rescales `grads` to global norm `max_grad_norm` when it
    /// exceeds it, else 1 (also when `max_grad_norm` ≤ 0). The norm sums the
    /// squares in ascending entry order.
    static double clip_scale(std::span<const double> grads, double max_grad_norm) noexcept;

    double learning_rate() const noexcept { return lr_; }
    void set_learning_rate(double lr) noexcept { lr_ = lr; }
    std::size_t updates() const noexcept { return t_; }

private:
    double lr_;
    double beta1_;
    double beta2_;
    double eps_;
    std::size_t t_ = 0;
    double bias1_ = 0.0; ///< 1 − β₁ᵗ of the step begun last.
    double bias2_ = 0.0; ///< 1 − β₂ᵗ of the step begun last.
    std::vector<double> m_;
    std::vector<double> v_;
};

} // namespace mflb::rl
