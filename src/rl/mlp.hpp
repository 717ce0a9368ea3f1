/// \file mlp.hpp
/// Fully-connected network with tanh hidden activations and a linear output
/// layer — the paper's policy/value architecture (Fig. 2 shows 256-256 tanh).
/// Implements manual reverse-mode differentiation; parameters and gradients
/// are flat vectors so a single Adam instance optimizes the whole model.
///
/// Two compute paths share the same parameters:
///  - the per-sample path (`forward`/`forward_cached`/`backward`) used by
///    rollout collection and policy inference (core/neural_policy.hpp), and
///  - the batch-major path (`forward_batch`/`forward_cached_batch`/
///    `backward_batch`) over row-major (batch × dim) buffers, built on the
///    cache-blocked GEMM kernels of math/gemm.hpp. The GEMM kernels
///    accumulate every reduction in ascending order, so the batched passes
///    agree with running the per-sample path row by row to 1e-12 (the only
///    difference is FMA contraction in the kernels' AVX2 clone).
/// The batched pass also comes in pieces for multi-threaded training: after
/// a serial `begin_batch`, `forward_rows` and `backprop_rows` work on one
/// range of rows each, and `accumulate_gradient` sums one range of a
/// layer's output units over all rows. Ranges on the GEMM row-tile grid give
/// results bitwise equal to the whole-batch pass, however they are split.
/// The forward GEMMs multiply by transposed weights kept in the workspace:
/// the whole-batch passes refresh them up front, while a caller driving the
/// pieces refreshes them itself after each parameter change —
/// `transpose_weights` for all layers, or `transpose_weight_rows` for one
/// range of a layer's output units, which the PPO trainer runs right after
/// its Adam step on the same units (rl/ppo.hpp).
/// The `BatchWorkspace` is constructor-sized for a maximum batch, making the
/// steady-state training step allocation-free.
#pragma once

#include "support/rng.hpp"

#include <cstddef>
#include <span>
#include <vector>

namespace mflb::rl {

/// Multi-layer perceptron with tanh hidden units.
class Mlp {
public:
    /// \param layer_sizes e.g. {8, 256, 256, 144}: input, hidden..., output.
    /// Weights use Xavier-uniform init; final layer is scaled down by 0.01
    /// (standard policy-head practice so the initial policy is near-uniform).
    Mlp(std::vector<std::size_t> layer_sizes, Rng& rng, double output_scale = 0.01);

    std::size_t input_dim() const noexcept { return layers_.front(); }
    std::size_t output_dim() const noexcept { return layers_.back(); }
    std::size_t parameter_count() const noexcept { return params_.size(); }
    std::span<double> parameters() noexcept { return params_; }
    std::span<const double> parameters() const noexcept { return params_; }
    void set_parameters(std::span<const double> params);
    const std::vector<std::size_t>& layer_sizes() const noexcept { return layers_; }

    /// Scratch space reused across forward/backward calls; owning it outside
    /// the network keeps the network const-thread-safe for rollouts.
    struct Workspace {
        std::vector<std::vector<double>> activations; ///< act[0] = input, act[L] = output.
    };

    /// Plain inference (batch-of-1 semantics; equals `forward_batch` row 0).
    std::vector<double> forward(std::span<const double> input) const;
    /// Forward pass that records activations for a later backward().
    std::vector<double> forward_cached(std::span<const double> input, Workspace& ws) const;
    /// Forward pass reusing `ws` without copying the output: returns a view
    /// of the output activations, valid until the next call with this
    /// workspace. Allocation-free once `ws` is warm.
    std::span<const double> forward_span(std::span<const double> input, Workspace& ws) const;
    /// Accumulates dLoss/dparams into `grad_params` (size parameter_count())
    /// given dLoss/doutput; optionally also returns dLoss/dinput.
    void backward(const Workspace& ws, std::span<const double> grad_output,
                  std::span<double> grad_params, std::vector<double>* grad_input = nullptr) const;

    /// Batch-major scratch, constructor-sized so the steady-state training
    /// step never touches the heap. Buffers hold up to `max_batch` rows; a
    /// pass over `batch` ≤ max_batch rows packs them contiguously. Row-range
    /// calls write only their own rows (and their own slice of `at`), so
    /// disjoint ranges of one pass may run on different threads.
    struct BatchWorkspace {
        BatchWorkspace() = default;
        BatchWorkspace(const Mlp& net, std::size_t max_batch);

        std::size_t max_batch = 0;
        std::size_t batch = 0;  ///< rows of the pass begun by begin_batch().
        std::size_t widest = 0; ///< widest layer.
        std::vector<std::vector<double>> activations; ///< act[l]: batch × layers[l].
        /// deltas[l]: batch × layers[l+1], dLoss/d(pre-activation) of weight
        /// layer l's outputs, written by backprop_rows().
        std::vector<std::vector<double>> deltas;
        /// wt[l]: layer-l weights transposed (in × out), as of the last
        /// transpose_weights() or transpose_weight_rows() calls.
        std::vector<std::vector<double>> wt;
        /// Transposed-operand scratch, max_batch × widest; rows [r0, r1) use
        /// the slice starting at r0 · widest.
        std::vector<double> at;
    };

    /// Batched forward over `batch` row-major input rows (batch × input_dim),
    /// writing `batch × output_dim` rows into `outputs`. Pure inference
    /// convenience over forward_cached_batch().
    void forward_batch(std::span<const double> inputs, std::size_t batch, BatchWorkspace& ws,
                       std::span<double> outputs) const;
    /// Batched forward recording all activations for backward_batch; returns
    /// a view of the output rows (batch × output_dim) inside `ws`. Transposes
    /// the current weights into `ws` first.
    std::span<const double> forward_cached_batch(std::span<const double> inputs,
                                                 std::size_t batch, BatchWorkspace& ws) const;
    /// Accumulates dLoss/dparams over the whole batch into `grad_params`
    /// given per-row output gradients (batch × output_dim). Optionally writes
    /// per-row input gradients (batch × input_dim) into `grad_inputs`.
    /// Agrees with summing per-sample backward() calls in row order to 1e-12.
    void backward_batch(BatchWorkspace& ws, std::span<const double> grad_outputs,
                        std::span<double> grad_params,
                        std::span<double> grad_inputs = {}) const;

    /// Starts a pass over `batch` rows: records the row count. Call once,
    /// serially, before the row-range calls.
    void begin_batch(BatchWorkspace& ws, std::size_t batch) const;
    /// Transposes every layer's current weights into `ws.wt`, which
    /// forward_rows() multiplies by. Call it after any parameter change,
    /// before the next forward_rows().
    void transpose_weights(BatchWorkspace& ws) const;
    /// The part of transpose_weights() for output units [o0, o1) of weight
    /// layer `layer`: writes only their columns of `ws.wt[layer]`, so
    /// disjoint ranges may run concurrently.
    void transpose_weight_rows(BatchWorkspace& ws, std::size_t layer, std::size_t o0,
                               std::size_t o1) const;
    /// Forward over rows [r0, r1) of the pass; `inputs` holds just those rows
    /// ((r1 − r0) × input_dim). Records activations for backprop_rows() and
    /// returns a view of the output rows. With r0, and r1 unless it is the
    /// batch end, on the kGemmRowTile grid, every row is bitwise the row of
    /// a whole-batch pass. Multiplies by the transposed weights in `ws`
    /// (transpose_weights()), which must match the current parameters.
    std::span<const double> forward_rows(std::span<const double> inputs, std::size_t r0,
                                         std::size_t r1, BatchWorkspace& ws) const;
    /// Delta back-propagation for rows [r0, r1): from their output gradients
    /// ((r1 − r0) × output_dim) fills those rows of every `ws.deltas[l]`,
    /// and optionally their input gradients into `grad_inputs`. Same grid
    /// rule as forward_rows().
    void backprop_rows(BatchWorkspace& ws, std::size_t r0, std::size_t r1,
                       std::span<const double> grad_outputs,
                       std::span<double> grad_inputs = {}) const;
    /// Adds to `grad_params` the weight and bias gradients of output units
    /// [o0, o1) of weight layer `layer`, each summed over all rows of the
    /// pass in ascending order. Disjoint ranges touch disjoint gradient
    /// entries; ranges on the kGemmRowTile grid (o1 may also be the layer
    /// width) are bitwise equal to the whole-layer sum.
    void accumulate_gradient(const BatchWorkspace& ws, std::size_t layer, std::size_t o0,
                             std::size_t o1, std::span<double> grad_params) const;

    /// Mutable view of the output layer's bias vector (size output_dim()).
    /// Used to initialize policy heads (e.g. the log-std bias).
    std::span<double> output_bias() noexcept;

    /// Offsets into the flat parameter (and gradient) vector of weight layer
    /// `layer`: its weights, row-major out × in (output unit o's row starts
    /// at weight_offset + o · in), and its out biases.
    std::size_t weight_offset(std::size_t layer) const noexcept;
    std::size_t bias_offset(std::size_t layer) const noexcept;

private:
    std::vector<std::size_t> layers_;
    std::vector<double> params_;
    std::vector<std::size_t> offsets_; ///< per layer: [w_offset, b_offset]...
};

} // namespace mflb::rl
