#include "rl/gaussian_policy.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace mflb::rl {

namespace {
constexpr double kHalfLog2Pi = 0.9189385332046727; // 0.5 * ln(2π)

std::vector<std::size_t> layer_spec(std::size_t obs_dim, const std::vector<std::size_t>& hidden,
                                    std::size_t action_dim) {
    std::vector<std::size_t> layers;
    layers.push_back(obs_dim);
    layers.insert(layers.end(), hidden.begin(), hidden.end());
    layers.push_back(2 * action_dim); // mean and log-std heads
    return layers;
}
} // namespace

GaussianPolicy::GaussianPolicy(std::size_t obs_dim, std::size_t action_dim,
                               const std::vector<std::size_t>& hidden, Rng& rng)
    : obs_dim_(obs_dim), action_dim_(action_dim), net_(layer_spec(obs_dim, hidden, action_dim), rng) {}

GaussianPolicy::Moments GaussianPolicy::moments(std::span<const double> obs) const {
    const std::vector<double> out = net_.forward(obs);
    Moments m;
    m.mean.assign(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(action_dim_));
    m.log_std.resize(action_dim_);
    for (std::size_t i = 0; i < action_dim_; ++i) {
        m.log_std[i] = std::clamp(out[action_dim_ + i], kMinLogStd, kMaxLogStd);
    }
    return m;
}

GaussianPolicy::Sample GaussianPolicy::sample(std::span<const double> obs, Rng& rng) const {
    const Moments m = moments(obs);
    Sample s;
    s.action.resize(action_dim_);
    for (std::size_t i = 0; i < action_dim_; ++i) {
        const double sigma = std::exp(m.log_std[i]);
        s.action[i] = m.mean[i] + sigma * rng.normal();
        const double zscore = (s.action[i] - m.mean[i]) / sigma;
        s.log_prob += -0.5 * zscore * zscore - m.log_std[i] - kHalfLog2Pi;
    }
    return s;
}

double GaussianPolicy::sample_with_moments(std::span<const double> obs, Rng& rng,
                                           Mlp::Workspace& ws, std::span<double> action,
                                           std::span<double> mean,
                                           std::span<double> log_std) const {
    if (action.size() != action_dim_ || mean.size() != action_dim_ ||
        log_std.size() != action_dim_) {
        throw std::invalid_argument("GaussianPolicy::sample_with_moments: size mismatch");
    }
    const std::span<const double> out = net_.forward_span(obs, ws);
    double log_prob = 0.0;
    for (std::size_t i = 0; i < action_dim_; ++i) {
        mean[i] = out[i];
        log_std[i] = std::clamp(out[action_dim_ + i], kMinLogStd, kMaxLogStd);
        const double sigma = std::exp(log_std[i]);
        action[i] = mean[i] + sigma * rng.normal();
        const double zscore = (action[i] - mean[i]) / sigma;
        log_prob += -0.5 * zscore * zscore - log_std[i] - kHalfLog2Pi;
    }
    return log_prob;
}

std::vector<double> GaussianPolicy::mean_action(std::span<const double> obs) const {
    return moments(obs).mean;
}

GaussianPolicy::Eval GaussianPolicy::evaluate(std::span<const double> obs,
                                              std::span<const double> action,
                                              Mlp::Workspace& ws) const {
    if (action.size() != action_dim_) {
        throw std::invalid_argument("GaussianPolicy::evaluate: action size mismatch");
    }
    const std::vector<double> out = net_.forward_cached(obs, ws);
    Eval eval;
    eval.moments.mean.assign(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(action_dim_));
    eval.moments.log_std.resize(action_dim_);
    for (std::size_t i = 0; i < action_dim_; ++i) {
        const double ls = std::clamp(out[action_dim_ + i], kMinLogStd, kMaxLogStd);
        eval.moments.log_std[i] = ls;
        const double sigma = std::exp(ls);
        const double zscore = (action[i] - eval.moments.mean[i]) / sigma;
        eval.log_prob += -0.5 * zscore * zscore - ls - kHalfLog2Pi;
        eval.entropy += ls + 0.5 + kHalfLog2Pi;
    }
    return eval;
}

void GaussianPolicy::backward(const Mlp::Workspace& ws, const Eval& eval,
                              std::span<const double> action, double c_logp, double c_entropy,
                              double c_kl, const Moments* old,
                              std::span<double> grad_params) const {
    const std::vector<double>& raw = ws.activations.back();
    std::vector<double> grad_out(2 * action_dim_, 0.0);
    for (std::size_t i = 0; i < action_dim_; ++i) {
        const double mu = eval.moments.mean[i];
        const double ls = eval.moments.log_std[i];
        const double sigma = std::exp(ls);
        const double var = sigma * sigma;
        const double diff = action[i] - mu;

        double g_mu = c_logp * diff / var;
        // log-prob: d/dls = z^2 - 1; entropy: d/dls = 1.
        double g_ls = c_logp * (diff * diff / var - 1.0) + c_entropy;
        if (c_kl != 0.0 && old != nullptr) {
            const double mu_o = old->mean[i];
            const double sigma_o = std::exp(old->log_std[i]);
            const double delta = mu - mu_o;
            g_mu += c_kl * delta / var;
            g_ls += c_kl * (1.0 - (sigma_o * sigma_o + delta * delta) / var);
        }
        grad_out[i] = g_mu;
        // Straight-through clamp: no gradient where the raw log-std output
        // sits outside the clamp range.
        const double raw_ls = raw[action_dim_ + i];
        grad_out[action_dim_ + i] =
            (raw_ls > kMinLogStd && raw_ls < kMaxLogStd) ? g_ls : 0.0;
    }
    net_.backward(ws, grad_out, grad_params);
}

void GaussianPolicy::evaluate_batch(std::span<const double> obs, std::span<const double> actions,
                                    std::size_t batch, Mlp::BatchWorkspace& ws,
                                    std::span<double> means, std::span<double> log_stds,
                                    std::span<double> log_probs,
                                    std::span<double> entropies) const {
    net_.begin_batch(ws, batch);
    net_.transpose_weights(ws);
    evaluate_rows(obs, actions, 0, batch, ws, means, log_stds, log_probs, entropies);
}

void GaussianPolicy::evaluate_rows(std::span<const double> obs, std::span<const double> actions,
                                   std::size_t r0, std::size_t r1, Mlp::BatchWorkspace& ws,
                                   std::span<double> means, std::span<double> log_stds,
                                   std::span<double> log_probs,
                                   std::span<double> entropies) const {
    const std::size_t rows = r1 - r0;
    if (r0 > r1 || actions.size() != rows * action_dim_ || means.size() != rows * action_dim_ ||
        log_stds.size() != rows * action_dim_ || log_probs.size() != rows ||
        entropies.size() != rows) {
        throw std::invalid_argument("GaussianPolicy::evaluate_rows: size mismatch");
    }
    const std::span<const double> out = net_.forward_rows(obs, r0, r1, ws);
    for (std::size_t row = 0; row < rows; ++row) {
        const double* raw = out.data() + row * 2 * action_dim_;
        const double* a = actions.data() + row * action_dim_;
        double* mu = means.data() + row * action_dim_;
        double* ls = log_stds.data() + row * action_dim_;
        double log_prob = 0.0;
        double entropy = 0.0;
        for (std::size_t i = 0; i < action_dim_; ++i) {
            mu[i] = raw[i];
            ls[i] = std::clamp(raw[action_dim_ + i], kMinLogStd, kMaxLogStd);
            const double sigma = std::exp(ls[i]);
            const double zscore = (a[i] - mu[i]) / sigma;
            log_prob += -0.5 * zscore * zscore - ls[i] - kHalfLog2Pi;
            entropy += ls[i] + 0.5 + kHalfLog2Pi;
        }
        log_probs[row] = log_prob;
        entropies[row] = entropy;
    }
}

void GaussianPolicy::backward_batch(Mlp::BatchWorkspace& ws, std::size_t batch,
                                    std::span<const double> actions,
                                    std::span<const double> means,
                                    std::span<const double> log_stds,
                                    std::span<const double> c_logp, double c_entropy,
                                    double c_kl, std::span<const double> old_means,
                                    std::span<const double> old_log_stds,
                                    std::span<double> grad_out,
                                    std::span<double> grad_params) const {
    output_gradients(ws, 0, batch, actions, means, log_stds, c_logp, c_entropy, c_kl, old_means,
                     old_log_stds, grad_out);
    net_.backward_batch(ws, grad_out, grad_params);
}

void GaussianPolicy::backprop_rows(Mlp::BatchWorkspace& ws, std::size_t r0, std::size_t r1,
                                   std::span<const double> actions,
                                   std::span<const double> means,
                                   std::span<const double> log_stds,
                                   std::span<const double> c_logp, double c_entropy,
                                   double c_kl, std::span<const double> old_means,
                                   std::span<const double> old_log_stds,
                                   std::span<double> grad_out) const {
    output_gradients(ws, r0, r1, actions, means, log_stds, c_logp, c_entropy, c_kl, old_means,
                     old_log_stds, grad_out);
    net_.backprop_rows(ws, r0, r1, grad_out);
}

void GaussianPolicy::output_gradients(const Mlp::BatchWorkspace& ws, std::size_t r0,
                                      std::size_t r1, std::span<const double> actions,
                                      std::span<const double> means,
                                      std::span<const double> log_stds,
                                      std::span<const double> c_logp, double c_entropy,
                                      double c_kl, std::span<const double> old_means,
                                      std::span<const double> old_log_stds,
                                      std::span<double> grad_out) const {
    const std::size_t rows = r1 - r0;
    const bool with_kl = c_kl != 0.0 && !old_means.empty();
    if (r0 > r1 || r1 > ws.batch || actions.size() != rows * action_dim_ ||
        means.size() != rows * action_dim_ || log_stds.size() != rows * action_dim_ ||
        c_logp.size() != rows || grad_out.size() != rows * 2 * action_dim_ ||
        (with_kl && (old_means.size() != rows * action_dim_ ||
                     old_log_stds.size() != rows * action_dim_))) {
        throw std::invalid_argument("GaussianPolicy::backward: size mismatch");
    }
    const double* raw_rows = ws.activations.back().data() + r0 * 2 * action_dim_;
    for (std::size_t row = 0; row < rows; ++row) {
        const double* a = actions.data() + row * action_dim_;
        const double* mu_row = means.data() + row * action_dim_;
        const double* ls_row = log_stds.data() + row * action_dim_;
        const double* raw = raw_rows + row * 2 * action_dim_;
        double* g = grad_out.data() + row * 2 * action_dim_;
        const double cp = c_logp[row];
        for (std::size_t i = 0; i < action_dim_; ++i) {
            const double mu = mu_row[i];
            const double ls = ls_row[i];
            const double sigma = std::exp(ls);
            const double var = sigma * sigma;
            const double diff = a[i] - mu;

            double g_mu = cp * diff / var;
            // log-prob: d/dls = z^2 - 1; entropy: d/dls = 1.
            double g_ls = cp * (diff * diff / var - 1.0) + c_entropy;
            if (with_kl) {
                const double mu_o = old_means[row * action_dim_ + i];
                const double sigma_o = std::exp(old_log_stds[row * action_dim_ + i]);
                const double delta = mu - mu_o;
                g_mu += c_kl * delta / var;
                g_ls += c_kl * (1.0 - (sigma_o * sigma_o + delta * delta) / var);
            }
            g[i] = g_mu;
            // Straight-through clamp: no gradient where the raw log-std
            // output sits outside the clamp range.
            const double raw_ls = raw[action_dim_ + i];
            g[action_dim_ + i] = (raw_ls > kMinLogStd && raw_ls < kMaxLogStd) ? g_ls : 0.0;
        }
    }
}

void GaussianPolicy::set_initial_mean(std::span<const double> mean) {
    if (mean.size() != action_dim_) {
        throw std::invalid_argument("GaussianPolicy::set_initial_mean: size mismatch");
    }
    std::span<double> bias = net_.output_bias();
    for (std::size_t i = 0; i < action_dim_; ++i) {
        bias[i] = mean[i];
    }
}

void GaussianPolicy::set_initial_log_std(double log_std) noexcept {
    std::span<double> bias = net_.output_bias();
    for (std::size_t i = action_dim_; i < 2 * action_dim_; ++i) {
        bias[i] = log_std;
    }
}

double GaussianPolicy::kl(const Moments& old_moments, const Moments& new_moments) noexcept {
    return kl(old_moments.mean, old_moments.log_std, new_moments.mean, new_moments.log_std);
}

double GaussianPolicy::kl(std::span<const double> old_mean,
                          std::span<const double> old_log_std,
                          std::span<const double> new_mean,
                          std::span<const double> new_log_std) noexcept {
    double total = 0.0;
    const std::size_t n = old_mean.size();
    for (std::size_t i = 0; i < n; ++i) {
        const double ls_o = old_log_std[i];
        const double ls_n = new_log_std[i];
        const double var_o = std::exp(2.0 * ls_o);
        const double var_n = std::exp(2.0 * ls_n);
        const double delta = old_mean[i] - new_mean[i];
        total += ls_n - ls_o + (var_o + delta * delta) / (2.0 * var_n) - 0.5;
    }
    return total;
}

} // namespace mflb::rl
