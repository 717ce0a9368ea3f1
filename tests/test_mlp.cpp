// Gradient-check and shape tests for the MLP and Adam, plus the bitwise
// contracts behind the parallel update: row-range GEMM and MLP passes, range
// Adam steps, and the AVX-512 GEMM kernel against the AVX2 one.
#include "math/gemm.hpp"
#include "rl/adam.hpp"
#include "rl/mlp.hpp"
#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

namespace mflb::rl {
namespace {

TEST(Mlp, ShapeValidation) {
    Rng rng(1);
    EXPECT_THROW(Mlp({4}, rng), std::invalid_argument);
    EXPECT_THROW(Mlp({4, 0, 2}, rng), std::invalid_argument);
    Mlp net({3, 8, 2}, rng);
    EXPECT_EQ(net.input_dim(), 3u);
    EXPECT_EQ(net.output_dim(), 2u);
    EXPECT_EQ(net.parameter_count(), 3u * 8 + 8 + 8 * 2 + 2);
    EXPECT_THROW(net.forward(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Mlp, DeterministicForward) {
    Rng rng(2);
    Mlp net({4, 16, 3}, rng);
    const std::vector<double> x{0.1, -0.5, 0.3, 0.9};
    const auto y1 = net.forward(x);
    const auto y2 = net.forward(x);
    ASSERT_EQ(y1.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_DOUBLE_EQ(y1[i], y2[i]);
    }
}

TEST(Mlp, OutputScaleShrinksInitialOutputs) {
    Rng rng1(3), rng2(3);
    Mlp small({6, 32, 4}, rng1, 0.01);
    Mlp large({6, 32, 4}, rng2, 1.0);
    const std::vector<double> x{0.5, 0.5, 0.5, 0.5, 0.5, 0.5};
    double small_norm = 0.0, large_norm = 0.0;
    for (double v : small.forward(x)) {
        small_norm += std::abs(v);
    }
    for (double v : large.forward(x)) {
        large_norm += std::abs(v);
    }
    EXPECT_LT(small_norm, large_norm);
}

TEST(Mlp, GradientMatchesFiniteDifferences) {
    Rng rng(4);
    Mlp net({3, 8, 5, 2}, rng, 1.0);
    const std::vector<double> x{0.2, -0.7, 0.5};
    // Scalar loss: L = sum(w_i * y_i) with fixed weights.
    const std::vector<double> loss_weights{1.3, -0.8};

    Mlp::Workspace ws;
    net.forward_cached(x, ws);
    std::vector<double> analytic(net.parameter_count(), 0.0);
    net.backward(ws, loss_weights, analytic);

    auto loss_at = [&](const Mlp& m) {
        const auto y = m.forward(x);
        return loss_weights[0] * y[0] + loss_weights[1] * y[1];
    };
    const double eps = 1e-6;
    Mlp probe = net;
    std::vector<double> params(net.parameters().begin(), net.parameters().end());
    for (std::size_t i = 0; i < params.size(); i += 7) { // sample every 7th
        std::vector<double> bumped = params;
        bumped[i] += eps;
        probe.set_parameters(bumped);
        const double up = loss_at(probe);
        bumped[i] -= 2 * eps;
        probe.set_parameters(bumped);
        const double down = loss_at(probe);
        const double numeric = (up - down) / (2 * eps);
        EXPECT_NEAR(analytic[i], numeric, 1e-5 * std::max(1.0, std::abs(numeric)))
            << "param " << i;
    }
}

TEST(Mlp, GradInputMatchesFiniteDifferences) {
    Rng rng(5);
    Mlp net({4, 6, 1}, rng, 1.0);
    const std::vector<double> x{0.3, 0.1, -0.2, 0.8};
    Mlp::Workspace ws;
    net.forward_cached(x, ws);
    std::vector<double> grad_params(net.parameter_count(), 0.0);
    std::vector<double> grad_input;
    const std::vector<double> grad_out{1.0};
    net.backward(ws, grad_out, grad_params, &grad_input);
    ASSERT_EQ(grad_input.size(), 4u);
    const double eps = 1e-6;
    for (std::size_t i = 0; i < 4; ++i) {
        std::vector<double> xp = x;
        xp[i] += eps;
        const double up = net.forward(xp)[0];
        xp[i] -= 2 * eps;
        const double down = net.forward(xp)[0];
        EXPECT_NEAR(grad_input[i], (up - down) / (2 * eps), 1e-6);
    }
}

TEST(Mlp, BackwardAccumulates) {
    Rng rng(6);
    Mlp net({2, 4, 1}, rng, 1.0);
    const std::vector<double> x{0.5, -0.5};
    Mlp::Workspace ws;
    net.forward_cached(x, ws);
    std::vector<double> grad_once(net.parameter_count(), 0.0);
    const std::vector<double> g{1.0};
    net.backward(ws, g, grad_once);
    std::vector<double> grad_twice(net.parameter_count(), 0.0);
    net.backward(ws, g, grad_twice);
    net.backward(ws, g, grad_twice);
    for (std::size_t i = 0; i < grad_once.size(); ++i) {
        EXPECT_NEAR(grad_twice[i], 2.0 * grad_once[i], 1e-12);
    }
}

TEST(Mlp, BatchedForwardMatchesScalarRows) {
    // A small net and the Table-2 policy net, whose per-sample pass runs the
    // 8-lane matvec against the batched pass's ascending GEMM.
    Rng rng(21);
    for (const std::vector<std::size_t>& layers :
         {std::vector<std::size_t>{4, 16, 9, 3}, std::vector<std::size_t>{8, 256, 256, 144}}) {
        Mlp net(layers, rng, 1.0);
        const std::size_t in = layers.front();
        const std::size_t outs = layers.back();
        const std::size_t batch = 7;
        std::vector<double> inputs(batch * in);
        for (double& v : inputs) {
            v = rng.normal();
        }
        Mlp::BatchWorkspace bws(net, batch);
        const std::span<const double> out = net.forward_cached_batch(inputs, batch, bws);
        ASSERT_EQ(out.size(), batch * outs);
        for (std::size_t row = 0; row < batch; ++row) {
            const auto scalar =
                net.forward(std::span<const double>(inputs.data() + row * in, in));
            for (std::size_t o = 0; o < outs; ++o) {
                EXPECT_NEAR(out[row * outs + o], scalar[o], 1e-12)
                    << "in " << in << " row " << row << " out " << o;
            }
        }
        // forward_batch copies the same rows into a caller buffer.
        std::vector<double> copied(batch * outs, 0.0);
        net.forward_batch(inputs, batch, bws, copied);
        for (std::size_t i = 0; i < copied.size(); ++i) {
            EXPECT_DOUBLE_EQ(copied[i], out[i]);
        }
        // A smaller batch through the same constructor-sized workspace.
        const std::span<const double> small = net.forward_cached_batch(
            std::span<const double>(inputs.data(), 2 * in), 2, bws);
        EXPECT_EQ(small.size(), 2u * outs);
        EXPECT_THROW(net.forward_cached_batch(inputs, batch + 1, bws), std::invalid_argument);
    }
}

TEST(Mlp, BatchedBackwardMatchesScalarSum) {
    Rng rng(22);
    Mlp net({3, 12, 5, 2}, rng, 1.0);
    const std::size_t batch = 6;
    std::vector<double> inputs(batch * 3), grad_out(batch * 2);
    for (double& v : inputs) {
        v = rng.normal();
    }
    for (double& v : grad_out) {
        v = rng.normal();
    }

    // Scalar reference: per-sample backward() accumulated in row order.
    std::vector<double> scalar_grad(net.parameter_count(), 0.0);
    std::vector<std::vector<double>> scalar_grad_inputs(batch);
    for (std::size_t row = 0; row < batch; ++row) {
        Mlp::Workspace ws;
        net.forward_cached(std::span<const double>(inputs.data() + row * 3, 3), ws);
        net.backward(ws, std::span<const double>(grad_out.data() + row * 2, 2), scalar_grad,
                     &scalar_grad_inputs[row]);
    }

    Mlp::BatchWorkspace bws(net, batch);
    net.forward_cached_batch(inputs, batch, bws);
    std::vector<double> batched_grad(net.parameter_count(), 0.0);
    std::vector<double> batched_grad_inputs(batch * 3, 0.0);
    net.backward_batch(bws, grad_out, batched_grad, batched_grad_inputs);

    for (std::size_t i = 0; i < scalar_grad.size(); ++i) {
        EXPECT_NEAR(batched_grad[i], scalar_grad[i],
                    1e-12 * std::max(1.0, std::abs(scalar_grad[i])))
            << "param " << i;
    }
    for (std::size_t row = 0; row < batch; ++row) {
        for (std::size_t i = 0; i < 3; ++i) {
            EXPECT_NEAR(batched_grad_inputs[row * 3 + i], scalar_grad_inputs[row][i], 1e-12)
                << "row " << row << " input " << i;
        }
    }
}

TEST(Mlp, BatchedBackwardAccumulates) {
    Rng rng(23);
    Mlp net({2, 4, 1}, rng, 1.0);
    const std::vector<double> inputs{0.5, -0.5, 0.25, 0.75};
    const std::vector<double> grad_out{1.0, -2.0};
    Mlp::BatchWorkspace bws(net, 2);
    net.forward_cached_batch(inputs, 2, bws);
    std::vector<double> once(net.parameter_count(), 0.0);
    net.backward_batch(bws, grad_out, once);
    std::vector<double> twice(net.parameter_count(), 0.0);
    net.backward_batch(bws, grad_out, twice);
    net.backward_batch(bws, grad_out, twice);
    for (std::size_t i = 0; i < once.size(); ++i) {
        EXPECT_NEAR(twice[i], 2.0 * once[i], 1e-12);
    }
}

std::uint64_t bits(double x) {
    return std::bit_cast<std::uint64_t>(x);
}

std::vector<double> normals(Rng& rng, std::size_t count) {
    std::vector<double> v(count);
    for (double& x : v) {
        x = rng.normal();
    }
    return v;
}

TEST(Gemm, RowRangesConcatenateToTheFullCallBitwise) {
    // Row ranges on the 4-row tile grid run every row through the same tile
    // code as the full call; n = 19 also exercises the 8-wide column tail.
    Rng rng(31);
    const std::size_t n = 19;
    const std::size_t k = 37;
    for (const std::size_t m : {1u, 5u, 127u, 128u}) {
        const std::vector<double> a = normals(rng, k * m);
        const std::vector<double> b = normals(rng, k * n);
        const std::vector<double> c0 = normals(rng, m * n);
        std::vector<double> full = c0;
        gemm_tn_acc(m, n, k, a.data(), b.data(), full.data());
        for (const std::size_t step : {kGemmRowTile, 2 * kGemmRowTile, 3 * kGemmRowTile}) {
            std::vector<double> pieces = c0;
            // Last range first: the order of the calls must not matter.
            for (std::size_t range = (m + step - 1) / step; range-- > 0;) {
                const std::size_t i0 = range * step;
                gemm_tn_acc_rows(m, n, k, i0, std::min(m, i0 + step), a.data(), b.data(),
                                 pieces.data());
            }
            for (std::size_t i = 0; i < full.size(); ++i) {
                ASSERT_EQ(bits(pieces[i]), bits(full[i]))
                    << "m " << m << " step " << step << " entry " << i;
            }
        }
    }
}

TEST(Gemm, WideKernelMatchesNarrowBitwise) {
    // The AVX-512 kernel's 4x32 panels take one FMA per term in ascending k
    // for every element, like the AVX2 clone's 4x8 panels, so on hosts that
    // run it results do not depend on the kernel. The widths straddle both
    // panel widths; the row ranges start and end on and off the tile grid.
    if (!detail::wide_gemm_available()) {
        GTEST_SKIP() << "no AVX-512 GEMM kernel in this build or on this CPU";
    }
    Rng rng(33);
    for (const std::size_t n : {1u, 7u, 8u, 9u, 31u, 32u, 33u, 40u, 144u, 256u, 257u}) {
        for (const std::size_t k : {1u, 8u, 144u, 256u}) {
            for (const std::size_t m : {1u, 3u, 4u, 5u, 16u, 17u, 128u}) {
                const std::vector<double> a = normals(rng, k * m);
                const std::vector<double> b = normals(rng, k * n);
                const std::vector<double> c0 = normals(rng, m * n);
                const std::pair<std::size_t, std::size_t> ranges[] = {
                    {0, m}, {1, m}, {0, m - 1}, {m / 2, m}, {m / 3, m - m / 4}};
                for (const auto& [i0, i1] : ranges) {
                    if (i0 >= i1) {
                        continue;
                    }
                    std::vector<double> narrow = c0;
                    std::vector<double> wide = c0;
                    detail::gemm_tn_acc_rows_narrow(m, n, k, i0, i1, a.data(), b.data(),
                                                    narrow.data());
                    detail::gemm_tn_acc_rows_wide(m, n, k, i0, i1, a.data(), b.data(),
                                                  wide.data());
                    for (std::size_t i = 0; i < c0.size(); ++i) {
                        ASSERT_EQ(bits(wide[i]), bits(narrow[i]))
                            << "m " << m << " n " << n << " k " << k << " rows [" << i0 << ", "
                            << i1 << ") entry " << i;
                    }
                }
            }
        }
    }
}

TEST(Mlp, RowRangePassesMatchTheWholeBatchBitwise) {
    // The pieces of a pass — weight transposes per unit range, row-range
    // forward and back-propagation on the pool, then per-unit-range
    // gradient sums — reproduce the whole-batch pass bit for bit.
    Rng rng(32);
    Mlp net({5, 64, 37, 7}, rng, 1.0);
    const std::size_t batch = 61;
    const std::size_t chunk = 8;
    const std::vector<double> inputs = normals(rng, batch * 5);
    const std::vector<double> grad_out = normals(rng, batch * 7);

    Mlp::BatchWorkspace whole_ws(net, batch);
    const std::span<const double> whole_out = net.forward_cached_batch(inputs, batch, whole_ws);
    std::vector<double> whole_grad(net.parameter_count(), 0.0);
    std::vector<double> whole_grad_inputs(batch * 5, 0.0);
    net.backward_batch(whole_ws, grad_out, whole_grad, whole_grad_inputs);

    Mlp::BatchWorkspace ws(net, batch);
    std::vector<double> grad(net.parameter_count(), 0.0);
    std::vector<double> grad_inputs(batch * 5, 0.0);
    net.begin_batch(ws, batch);
    const std::vector<std::size_t>& sizes = net.layer_sizes();
    parallel_for(
        sizes.size() - 1,
        [&](std::size_t l) {
            for (std::size_t o = 0; o < sizes[l + 1]; o += kGemmRowTile) {
                net.transpose_weight_rows(ws, l, o, std::min(sizes[l + 1], o + kGemmRowTile));
            }
        },
        4);
    parallel_for(
        (batch + chunk - 1) / chunk,
        [&](std::size_t c) {
            const std::size_t r0 = c * chunk;
            const std::size_t r1 = std::min(batch, r0 + chunk);
            (void)net.forward_rows(
                std::span<const double>(inputs.data() + r0 * 5, (r1 - r0) * 5), r0, r1, ws);
            net.backprop_rows(ws, r0, r1,
                              std::span<const double>(grad_out.data() + r0 * 7, (r1 - r0) * 7),
                              std::span<double>(grad_inputs.data() + r0 * 5, (r1 - r0) * 5));
        },
        4);
    parallel_for(
        sizes.size() - 1,
        [&](std::size_t l) {
            for (std::size_t o = 0; o < sizes[l + 1]; o += kGemmRowTile) {
                net.accumulate_gradient(ws, l, o, std::min(sizes[l + 1], o + kGemmRowTile),
                                        grad);
            }
        },
        4);

    const std::span<const double> out(ws.activations.back().data(), batch * 7);
    for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(bits(out[i]), bits(whole_out[i])) << "output " << i;
    }
    for (std::size_t i = 0; i < grad.size(); ++i) {
        ASSERT_EQ(bits(grad[i]), bits(whole_grad[i])) << "param " << i;
    }
    for (std::size_t i = 0; i < grad_inputs.size(); ++i) {
        ASSERT_EQ(bits(grad_inputs[i]), bits(whole_grad_inputs[i])) << "input grad " << i;
    }
    EXPECT_THROW(net.forward_rows(std::span<const double>(inputs.data(), 5), batch, batch + 1,
                                  ws),
                 std::invalid_argument);
    EXPECT_THROW(net.accumulate_gradient(ws, 0, 0, 65, grad), std::invalid_argument);
    EXPECT_THROW(net.transpose_weight_rows(ws, 3, 0, 1), std::invalid_argument);
}

TEST(Adam, MinimizesQuadratic) {
    // f(p) = sum (p_i - target_i)^2
    const std::vector<double> target{1.0, -2.0, 0.5};
    std::vector<double> params{0.0, 0.0, 0.0};
    Adam opt(3, 0.05);
    for (int it = 0; it < 2000; ++it) {
        std::vector<double> grads(3);
        for (std::size_t i = 0; i < 3; ++i) {
            grads[i] = 2.0 * (params[i] - target[i]);
        }
        opt.step(params, grads);
    }
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_NEAR(params[i], target[i], 1e-3);
    }
    EXPECT_EQ(opt.updates(), 2000u);
}

TEST(Adam, GradientClippingLimitsStepSize) {
    std::vector<double> params{0.0};
    Adam opt(1, 1.0);
    const std::vector<double> huge_grad{1e9};
    opt.step(params, huge_grad, /*max_grad_norm=*/1.0);
    // With clipping the first Adam step is bounded by lr (m_hat/sqrt(v_hat) ≈ 1).
    EXPECT_LT(std::abs(params[0]), 1.5);
}

TEST(Adam, SizeMismatchThrows) {
    Adam opt(2, 0.1);
    std::vector<double> params{0.0, 0.0};
    EXPECT_THROW(opt.step(params, std::vector<double>{1.0}), std::invalid_argument);
    opt.begin_step();
    EXPECT_THROW(opt.step_range(params, std::vector<double>{1.0, 1.0}, 1, 3),
                 std::invalid_argument);
}

TEST(Adam, RangeStepsMatchTheWholeStepBitwise) {
    // Adam is element-wise, so a step spread over ranges of any length —
    // here uneven ones, last range first, each clipped by the norm of the
    // whole gradient — is bitwise the whole-vector step.
    Rng rng(34);
    const std::size_t count = 1001;
    std::vector<double> whole = normals(rng, count);
    std::vector<double> pieces = whole;
    Adam whole_opt(count, 1e-2);
    Adam pieces_opt(count, 1e-2);
    EXPECT_THROW(pieces_opt.step_range(pieces, whole, 0, count), std::logic_error)
        << "a range step before any begin_step()";
    const std::size_t bounds[] = {0, 3, 4, 131, 132, 640, 1001};
    for (int it = 0; it < 5; ++it) {
        const std::vector<double> grads = normals(rng, count);
        const double max_norm = it % 2 == 0 ? 0.0 : 5.0;
        whole_opt.step(whole, grads, max_norm);
        const double scale = Adam::clip_scale(grads, max_norm);
        EXPECT_EQ(scale == 1.0, it % 2 == 0);
        pieces_opt.begin_step();
        for (std::size_t r = std::size(bounds) - 1; r-- > 0;) {
            pieces_opt.step_range(pieces, grads, bounds[r], bounds[r + 1], scale);
        }
        for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(bits(pieces[i]), bits(whole[i])) << "step " << it << " entry " << i;
        }
    }
    EXPECT_EQ(pieces_opt.updates(), whole_opt.updates());
}

TEST(Mlp, TrainsXorWithAdam) {
    // End-to-end sanity: a 2-8-1 tanh net learns XOR.
    Rng rng(7);
    Mlp net({2, 8, 1}, rng, 1.0);
    Adam opt(net.parameter_count(), 0.02);
    const double inputs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    const double targets[4] = {0, 1, 1, 0};
    Mlp::Workspace ws;
    std::vector<double> grads(net.parameter_count());
    for (int epoch = 0; epoch < 3000; ++epoch) {
        std::fill(grads.begin(), grads.end(), 0.0);
        for (int k = 0; k < 4; ++k) {
            const std::vector<double> x{inputs[k][0], inputs[k][1]};
            const auto y = net.forward_cached(x, ws);
            const std::vector<double> grad_out{2.0 * (y[0] - targets[k])};
            net.backward(ws, grad_out, grads);
        }
        opt.step(net.parameters(), grads);
    }
    for (int k = 0; k < 4; ++k) {
        const std::vector<double> x{inputs[k][0], inputs[k][1]};
        EXPECT_NEAR(net.forward(x)[0], targets[k], 0.2) << "case " << k;
    }
}

} // namespace
} // namespace mflb::rl
