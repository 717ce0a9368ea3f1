#include "rl/adam.hpp"

#include "math/simd_dispatch.hpp"

#include <cmath>
#include <stdexcept>

// The update sweep is element-independent (no reductions), so SIMD lanes
// map one-to-one onto parameters and the sweep stays deterministic for a
// fixed machine at any thread count, however the entries are split between
// step_range() calls. The AVX2 clone (4-wide mul/div/sqrt + FMA
// contraction) is selected once by the loader; both the batched and the
// per-sample PPO update run through this same sweep, so the two paths
// remain mutually consistent on every ISA.

namespace mflb::rl {

namespace {
/// The fused Adam sweep over a run of the flat parameter vector: moment
/// updates, bias correction, and the parameter step in one pass, with no
/// per-sample or per-layer loops left (the gradients already arrive
/// batched).
MFLB_SIMD_CLONES
void adam_sweep(double* __restrict params, const double* __restrict grads,
                double* __restrict m, double* __restrict v, std::size_t count, double scale,
                double lr, double beta1, double beta2, double eps, double bias1,
                double bias2) noexcept {
    for (std::size_t i = 0; i < count; ++i) {
        const double g = grads[i] * scale;
        m[i] = beta1 * m[i] + (1.0 - beta1) * g;
        v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
        const double m_hat = m[i] / bias1;
        const double v_hat = v[i] / bias2;
        params[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
}
} // namespace

Adam::Adam(std::size_t parameter_count, double learning_rate, double beta1, double beta2,
           double epsilon)
    : lr_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      eps_(epsilon),
      m_(parameter_count, 0.0),
      v_(parameter_count, 0.0) {}

double Adam::clip_scale(std::span<const double> grads, double max_grad_norm) noexcept {
    if (max_grad_norm <= 0.0) {
        return 1.0;
    }
    double norm_sq = 0.0;
    for (double g : grads) {
        norm_sq += g * g;
    }
    const double norm = std::sqrt(norm_sq);
    return norm > max_grad_norm ? max_grad_norm / norm : 1.0;
}

void Adam::begin_step() {
    ++t_;
    bias1_ = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    bias2_ = 1.0 - std::pow(beta2_, static_cast<double>(t_));
}

void Adam::step_range(std::span<double> params, std::span<const double> grads,
                      std::size_t begin, std::size_t end, double scale) {
    if (params.size() != m_.size() || grads.size() != m_.size()) {
        throw std::invalid_argument("Adam::step: size mismatch");
    }
    if (begin > end || end > m_.size()) {
        throw std::invalid_argument("Adam::step_range: entries outside the vector");
    }
    if (t_ == 0) {
        throw std::logic_error("Adam::step_range: no step begun");
    }
    adam_sweep(params.data() + begin, grads.data() + begin, m_.data() + begin, v_.data() + begin,
               end - begin, scale, lr_, beta1_, beta2_, eps_, bias1_, bias2_);
}

void Adam::step(std::span<double> params, std::span<const double> grads, double max_grad_norm) {
    if (params.size() != m_.size() || grads.size() != m_.size()) {
        throw std::invalid_argument("Adam::step: size mismatch");
    }
    const double scale = clip_scale(grads, max_grad_norm);
    begin_step();
    step_range(params, grads, 0, m_.size(), scale);
}

} // namespace mflb::rl
