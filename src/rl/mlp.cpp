#include "rl/mlp.hpp"

#include "math/gemm.hpp"
#include "math/vec_ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mflb::rl {

Mlp::Mlp(std::vector<std::size_t> layer_sizes, Rng& rng, double output_scale)
    : layers_(std::move(layer_sizes)) {
    if (layers_.size() < 2) {
        throw std::invalid_argument("Mlp: need at least input and output layer");
    }
    for (std::size_t n : layers_) {
        if (n == 0) {
            throw std::invalid_argument("Mlp: zero-width layer");
        }
    }
    std::size_t total = 0;
    offsets_.clear();
    for (std::size_t l = 0; l + 1 < layers_.size(); ++l) {
        offsets_.push_back(total);                    // weights
        total += layers_[l] * layers_[l + 1];
        offsets_.push_back(total);                    // biases
        total += layers_[l + 1];
    }
    params_.assign(total, 0.0);

    for (std::size_t l = 0; l + 1 < layers_.size(); ++l) {
        const std::size_t fan_in = layers_[l];
        const std::size_t fan_out = layers_[l + 1];
        const bool is_output = (l + 2 == layers_.size());
        const double limit =
            std::sqrt(6.0 / static_cast<double>(fan_in + fan_out)) * (is_output ? output_scale : 1.0);
        double* w = params_.data() + offsets_[2 * l];
        for (std::size_t i = 0; i < fan_in * fan_out; ++i) {
            w[i] = rng.uniform(-limit, limit);
        }
        // biases stay zero
    }
}

void Mlp::set_parameters(std::span<const double> params) {
    if (params.size() != params_.size()) {
        throw std::invalid_argument("Mlp::set_parameters: wrong size");
    }
    params_.assign(params.begin(), params.end());
}

std::size_t Mlp::weight_offset(std::size_t layer) const noexcept {
    return offsets_[2 * layer];
}

std::size_t Mlp::bias_offset(std::size_t layer) const noexcept {
    return offsets_[2 * layer + 1];
}

std::vector<double> Mlp::forward(std::span<const double> input) const {
    Workspace ws;
    return forward_cached(input, ws);
}

std::vector<double> Mlp::forward_cached(std::span<const double> input, Workspace& ws) const {
    const std::span<const double> out = forward_span(input, ws);
    return std::vector<double>(out.begin(), out.end());
}

std::span<const double> Mlp::forward_span(std::span<const double> input, Workspace& ws) const {
    if (input.size() != layers_.front()) {
        throw std::invalid_argument("Mlp::forward: wrong input size");
    }
    const std::size_t num_layers = layers_.size();
    ws.activations.resize(num_layers);
    ws.activations[0].assign(input.begin(), input.end());
    const std::span<const double> params(params_);
    for (std::size_t l = 0; l + 1 < num_layers; ++l) {
        const std::size_t out_dim = layers_[l + 1];
        std::vector<double>& y = ws.activations[l + 1];
        y.resize(out_dim);
        matvec(params.subspan(weight_offset(l), out_dim * layers_[l]), ws.activations[l],
               params.subspan(bias_offset(l), out_dim), y);
        if (l + 2 < num_layers) {
            vec_tanh(y);
        }
    }
    return ws.activations.back();
}

void Mlp::backward(const Workspace& ws, std::span<const double> grad_output,
                   std::span<double> grad_params, std::vector<double>* grad_input) const {
    if (grad_output.size() != layers_.back()) {
        throw std::invalid_argument("Mlp::backward: wrong grad_output size");
    }
    if (grad_params.size() != params_.size()) {
        throw std::invalid_argument("Mlp::backward: wrong grad_params size");
    }
    if (ws.activations.size() != layers_.size()) {
        throw std::invalid_argument("Mlp::backward: workspace not from forward_cached");
    }
    std::vector<double> delta(grad_output.begin(), grad_output.end());
    for (std::size_t l = layers_.size() - 1; l-- > 0;) {
        const std::size_t in_dim = layers_[l];
        const std::size_t out_dim = layers_[l + 1];
        const double* w = params_.data() + weight_offset(l);
        double* gw = grad_params.data() + weight_offset(l);
        double* gb = grad_params.data() + bias_offset(l);
        const std::vector<double>& x = ws.activations[l];
        const std::vector<double>& y = ws.activations[l + 1];
        const bool is_output = (l + 2 == layers_.size());

        // For hidden layers y = tanh(pre), so dpre = delta * (1 - y^2).
        if (!is_output) {
            for (std::size_t o = 0; o < out_dim; ++o) {
                delta[o] *= 1.0 - y[o] * y[o];
            }
        }
        for (std::size_t o = 0; o < out_dim; ++o) {
            const double d = delta[o];
            if (d == 0.0) {
                continue;
            }
            gb[o] += d;
            double* grow = gw + o * in_dim;
            for (std::size_t i = 0; i < in_dim; ++i) {
                grow[i] += d * x[i];
            }
        }
        if (l > 0 || grad_input != nullptr) {
            std::vector<double> next_delta(in_dim, 0.0);
            for (std::size_t o = 0; o < out_dim; ++o) {
                const double d = delta[o];
                if (d == 0.0) {
                    continue;
                }
                const double* row = w + o * in_dim;
                for (std::size_t i = 0; i < in_dim; ++i) {
                    next_delta[i] += d * row[i];
                }
            }
            delta = std::move(next_delta);
        }
    }
    if (grad_input != nullptr) {
        *grad_input = std::move(delta);
    }
}

Mlp::BatchWorkspace::BatchWorkspace(const Mlp& net, std::size_t max_batch_rows)
    : max_batch(max_batch_rows) {
    if (max_batch == 0) {
        throw std::invalid_argument("Mlp::BatchWorkspace: max_batch must be positive");
    }
    const std::vector<std::size_t>& layers = net.layer_sizes();
    activations.resize(layers.size());
    deltas.resize(layers.size() - 1);
    wt.resize(layers.size() - 1);
    for (std::size_t l = 0; l < layers.size(); ++l) {
        activations[l].assign(max_batch * layers[l], 0.0);
        widest = std::max(widest, layers[l]);
        if (l + 1 < layers.size()) {
            deltas[l].assign(max_batch * layers[l + 1], 0.0);
            wt[l].assign(layers[l] * layers[l + 1], 0.0);
        }
    }
    at.assign(max_batch * widest, 0.0);
}

void Mlp::forward_batch(std::span<const double> inputs, std::size_t batch, BatchWorkspace& ws,
                        std::span<double> outputs) const {
    const std::span<const double> out = forward_cached_batch(inputs, batch, ws);
    if (outputs.size() != out.size()) {
        throw std::invalid_argument("Mlp::forward_batch: wrong outputs size");
    }
    std::copy(out.begin(), out.end(), outputs.begin());
}

std::span<const double> Mlp::forward_cached_batch(std::span<const double> inputs,
                                                  std::size_t batch, BatchWorkspace& ws) const {
    begin_batch(ws, batch);
    transpose_weights(ws);
    return forward_rows(inputs, 0, batch, ws);
}

void Mlp::backward_batch(BatchWorkspace& ws, std::span<const double> grad_outputs,
                         std::span<double> grad_params, std::span<double> grad_inputs) const {
    if (ws.batch == 0) {
        throw std::invalid_argument("Mlp::backward_batch: workspace not from forward");
    }
    backprop_rows(ws, 0, ws.batch, grad_outputs, grad_inputs);
    for (std::size_t l = 0; l + 1 < layers_.size(); ++l) {
        accumulate_gradient(ws, l, 0, layers_[l + 1], grad_params);
    }
}

void Mlp::begin_batch(BatchWorkspace& ws, std::size_t batch) const {
    if (ws.activations.size() != layers_.size() || batch > ws.max_batch) {
        throw std::invalid_argument("Mlp::begin_batch: workspace too small");
    }
    ws.batch = batch;
}

void Mlp::transpose_weights(BatchWorkspace& ws) const {
    for (std::size_t l = 0; l + 1 < layers_.size(); ++l) {
        transpose_weight_rows(ws, l, 0, layers_[l + 1]);
    }
}

void Mlp::transpose_weight_rows(BatchWorkspace& ws, std::size_t layer, std::size_t o0,
                                std::size_t o1) const {
    if (layer + 1 >= layers_.size() || o0 > o1 || o1 > layers_[layer + 1] ||
        ws.wt.size() + 1 != layers_.size()) {
        throw std::invalid_argument("Mlp::transpose_weight_rows: units outside the layer");
    }
    transpose_rows(layers_[layer + 1], layers_[layer], o0, o1,
                   params_.data() + weight_offset(layer), ws.wt[layer].data());
}

std::span<const double> Mlp::forward_rows(std::span<const double> inputs, std::size_t r0,
                                          std::size_t r1, BatchWorkspace& ws) const {
    if (ws.activations.size() != layers_.size() || r0 > r1 || r1 > ws.batch) {
        throw std::invalid_argument("Mlp::forward_rows: rows outside the pass");
    }
    const std::size_t rows = r1 - r0;
    if (inputs.size() != rows * layers_.front()) {
        throw std::invalid_argument("Mlp::forward_rows: wrong inputs size");
    }
    std::copy(inputs.begin(), inputs.end(),
              ws.activations[0].begin() + static_cast<std::ptrdiff_t>(r0 * layers_.front()));
    double* at = ws.at.data() + r0 * ws.widest;
    const std::size_t num_layers = layers_.size();
    for (std::size_t l = 0; l + 1 < num_layers; ++l) {
        const std::size_t in_dim = layers_[l];
        const std::size_t out_dim = layers_[l + 1];
        const double* b = params_.data() + bias_offset(l);
        const double* x = ws.activations[l].data() + r0 * in_dim;
        double* y = ws.activations[l + 1].data() + r0 * out_dim;
        // Seed each output row with the bias, then accumulate X · Wᵀ in
        // ascending input order — the same FP addition order as the scalar
        // path (which starts its accumulator at the bias). Both operands are
        // transposed so the product runs through the k-major gemm_tn kernel;
        // transposition reorders memory, never the per-element addition
        // sequence.
        for (std::size_t row = 0; row < rows; ++row) {
            std::copy(b, b + out_dim, y + row * out_dim);
        }
        transpose(rows, in_dim, x, at); // -> in x rows
        gemm_tn_acc(rows, out_dim, in_dim, at, ws.wt[l].data(), y);
        if (l + 2 < num_layers) {
            vec_tanh(std::span<double>(y, rows * out_dim));
        }
    }
    return std::span<const double>(ws.activations.back().data() + r0 * layers_.back(),
                                   rows * layers_.back());
}

void Mlp::backprop_rows(BatchWorkspace& ws, std::size_t r0, std::size_t r1,
                        std::span<const double> grad_outputs,
                        std::span<double> grad_inputs) const {
    if (ws.activations.size() != layers_.size() || r0 > r1 || r1 > ws.batch) {
        throw std::invalid_argument("Mlp::backprop_rows: rows outside the pass");
    }
    const std::size_t rows = r1 - r0;
    if (grad_outputs.size() != rows * layers_.back()) {
        throw std::invalid_argument("Mlp::backprop_rows: wrong grad_outputs size");
    }
    if (!grad_inputs.empty() && grad_inputs.size() != rows * layers_.front()) {
        throw std::invalid_argument("Mlp::backprop_rows: wrong grad_inputs size");
    }
    const std::size_t last = layers_.size() - 2;
    std::copy(grad_outputs.begin(), grad_outputs.end(),
              ws.deltas[last].begin() + static_cast<std::ptrdiff_t>(r0 * layers_.back()));
    double* at = ws.at.data() + r0 * ws.widest;
    for (std::size_t l = last + 1; l-- > 0;) {
        const std::size_t in_dim = layers_[l];
        const std::size_t out_dim = layers_[l + 1];
        double* delta = ws.deltas[l].data() + r0 * out_dim;
        // For hidden layers y = tanh(pre), so dpre = delta * (1 - y^2).
        if (l != last) {
            const double* y = ws.activations[l + 1].data() + r0 * out_dim;
            for (std::size_t idx = 0; idx < rows * out_dim; ++idx) {
                delta[idx] *= 1.0 - y[idx] * y[idx];
            }
        }
        if (l == 0 && grad_inputs.empty()) {
            break;
        }
        double* next = l > 0 ? ws.deltas[l - 1].data() + r0 * in_dim : grad_inputs.data();
        // Input deltas Δ · W as Δᵀᵀ · W: transpose Δ to out × rows so the
        // product is k-major too (o-ascending accumulation, exactly the
        // scalar path's order).
        std::fill(next, next + rows * in_dim, 0.0);
        transpose(rows, out_dim, delta, at); // -> out x rows
        gemm_tn_acc(rows, in_dim, out_dim, at, params_.data() + weight_offset(l), next);
    }
}

void Mlp::accumulate_gradient(const BatchWorkspace& ws, std::size_t layer, std::size_t o0,
                              std::size_t o1, std::span<double> grad_params) const {
    if (layer + 1 >= layers_.size() || o0 > o1 || o1 > layers_[layer + 1] ||
        ws.deltas.size() + 1 != layers_.size()) {
        throw std::invalid_argument("Mlp::accumulate_gradient: units outside the layer");
    }
    if (grad_params.size() != params_.size()) {
        throw std::invalid_argument("Mlp::accumulate_gradient: wrong grad_params size");
    }
    const std::size_t in_dim = layers_[layer];
    const std::size_t out_dim = layers_[layer + 1];
    const double* delta = ws.deltas[layer].data();
    // Bias gradient: per-sample contributions in ascending row order.
    double* gb = grad_params.data() + bias_offset(layer);
    for (std::size_t row = 0; row < ws.batch; ++row) {
        const double* d = delta + row * out_dim;
        for (std::size_t o = o0; o < o1; ++o) {
            gb[o] += d[o];
        }
    }
    // Weight gradient: Δᵀ · X accumulated in ascending sample order.
    gemm_tn_acc_rows(out_dim, in_dim, ws.batch, o0, o1, delta, ws.activations[layer].data(),
                     grad_params.data() + weight_offset(layer));
}

std::span<double> Mlp::output_bias() noexcept {
    const std::size_t last = layers_.size() - 2;
    return std::span<double>(params_.data() + bias_offset(last), layers_.back());
}

} // namespace mflb::rl
