#include "math/gemm.hpp"

#include "math/simd_dispatch.hpp"

#include <algorithm>

// Runtime ISA dispatch (MFLB_SIMD_CLONES, shared with math/vec_ops.cpp):
// each kernel is cloned for AVX2+FMA (4-wide double lanes, fused
// multiply-add) with the baseline build as fallback, selected once by the
// loader. Lanes map one-to-one onto output elements and no reduction is ever
// split, so results stay deterministic for a fixed machine and thread count;
// FMA contraction rounds each multiply-add once instead of twice, which
// keeps the batched passes within ~1 ulp per term of the scalar path (the
// 1e-12 agreement contract pinned in test_mlp.cpp), in exchange for ~2x
// per-core throughput.

namespace mflb {

MFLB_SIMD_CLONES
void gemm_nt_acc(std::size_t m, std::size_t n, std::size_t k,
                 const double* __restrict a, const double* __restrict b,
                 double* __restrict c) noexcept {
    // 4x4 register tile; the k reduction stays innermost with 16 independent
    // accumulators, each summing in ascending p order (same order as the
    // naive dot product, so results are bit-identical to it).
    std::size_t i = 0;
    for (; i + kGemmRowTile <= m; i += kGemmRowTile) {
        const double* a0 = a + (i + 0) * k;
        const double* a1 = a + (i + 1) * k;
        const double* a2 = a + (i + 2) * k;
        const double* a3 = a + (i + 3) * k;
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const double* b0 = b + (j + 0) * k;
            const double* b1 = b + (j + 1) * k;
            const double* b2 = b + (j + 2) * k;
            const double* b3 = b + (j + 3) * k;
            double acc0[4];
            double acc1[4];
            double acc2[4];
            double acc3[4];
            for (std::size_t jj = 0; jj < 4; ++jj) {
                acc0[jj] = c[(i + 0) * n + j + jj];
                acc1[jj] = c[(i + 1) * n + j + jj];
                acc2[jj] = c[(i + 2) * n + j + jj];
                acc3[jj] = c[(i + 3) * n + j + jj];
            }
            const double* rows[4] = {b0, b1, b2, b3};
            for (std::size_t p = 0; p < k; ++p) {
                const double x0 = a0[p];
                const double x1 = a1[p];
                const double x2 = a2[p];
                const double x3 = a3[p];
                for (std::size_t jj = 0; jj < 4; ++jj) {
                    const double y = rows[jj][p];
                    acc0[jj] += x0 * y;
                    acc1[jj] += x1 * y;
                    acc2[jj] += x2 * y;
                    acc3[jj] += x3 * y;
                }
            }
            for (std::size_t jj = 0; jj < 4; ++jj) {
                c[(i + 0) * n + j + jj] = acc0[jj];
                c[(i + 1) * n + j + jj] = acc1[jj];
                c[(i + 2) * n + j + jj] = acc2[jj];
                c[(i + 3) * n + j + jj] = acc3[jj];
            }
        }
        for (; j < n; ++j) {
            const double* bj = b + j * k;
            double s0 = c[(i + 0) * n + j];
            double s1 = c[(i + 1) * n + j];
            double s2 = c[(i + 2) * n + j];
            double s3 = c[(i + 3) * n + j];
            for (std::size_t p = 0; p < k; ++p) {
                const double y = bj[p];
                s0 += a0[p] * y;
                s1 += a1[p] * y;
                s2 += a2[p] * y;
                s3 += a3[p] * y;
            }
            c[(i + 0) * n + j] = s0;
            c[(i + 1) * n + j] = s1;
            c[(i + 2) * n + j] = s2;
            c[(i + 3) * n + j] = s3;
        }
    }
    for (; i < m; ++i) {
        const double* ai = a + i * k;
        for (std::size_t j = 0; j < n; ++j) {
            const double* bj = b + j * k;
            double s = c[i * n + j];
            for (std::size_t p = 0; p < k; ++p) {
                s += ai[p] * bj[p];
            }
            c[i * n + j] = s;
        }
    }
}

MFLB_SIMD_CLONES
void gemm_tn_acc_rows(std::size_t m, std::size_t n, std::size_t k, std::size_t i0,
                      std::size_t i1, const double* __restrict a, const double* __restrict b,
                      double* __restrict c) noexcept {
    // Sum of k rank-1 updates accumulated in ascending p (sample) order —
    // identical addition order to a per-sample gradient loop. 4x8 register
    // tile; A is k x m, so the four scalars per p are the contiguous
    // a[p][i..i+3]. Tiles start at i0, so a range whose bounds sit on the
    // tile grid runs every row through the same code as the full call.
    constexpr std::size_t kTj = 8;
    std::size_t i = i0;
    for (; i + kGemmRowTile <= i1; i += kGemmRowTile) {
        std::size_t j = 0;
        for (; j + kTj <= n; j += kTj) {
            double acc0[kTj], acc1[kTj], acc2[kTj], acc3[kTj];
            for (std::size_t jj = 0; jj < kTj; ++jj) {
                acc0[jj] = c[(i + 0) * n + j + jj];
                acc1[jj] = c[(i + 1) * n + j + jj];
                acc2[jj] = c[(i + 2) * n + j + jj];
                acc3[jj] = c[(i + 3) * n + j + jj];
            }
            for (std::size_t p = 0; p < k; ++p) {
                const double* ap = a + p * m + i;
                const double* bp = b + p * n + j;
                const double x0 = ap[0], x1 = ap[1], x2 = ap[2], x3 = ap[3];
                for (std::size_t jj = 0; jj < kTj; ++jj) {
                    const double y = bp[jj];
                    acc0[jj] += x0 * y;
                    acc1[jj] += x1 * y;
                    acc2[jj] += x2 * y;
                    acc3[jj] += x3 * y;
                }
            }
            for (std::size_t jj = 0; jj < kTj; ++jj) {
                c[(i + 0) * n + j + jj] = acc0[jj];
                c[(i + 1) * n + j + jj] = acc1[jj];
                c[(i + 2) * n + j + jj] = acc2[jj];
                c[(i + 3) * n + j + jj] = acc3[jj];
            }
        }
        for (; j < n; ++j) {
            double s0 = c[(i + 0) * n + j], s1 = c[(i + 1) * n + j], s2 = c[(i + 2) * n + j],
                   s3 = c[(i + 3) * n + j];
            for (std::size_t p = 0; p < k; ++p) {
                const double* ap = a + p * m + i;
                const double y = b[p * n + j];
                s0 += ap[0] * y;
                s1 += ap[1] * y;
                s2 += ap[2] * y;
                s3 += ap[3] * y;
            }
            c[(i + 0) * n + j] = s0;
            c[(i + 1) * n + j] = s1;
            c[(i + 2) * n + j] = s2;
            c[(i + 3) * n + j] = s3;
        }
    }
    for (; i < i1; ++i) {
        std::size_t j = 0;
        for (; j + kTj <= n; j += kTj) {
            double acc[kTj];
            for (std::size_t jj = 0; jj < kTj; ++jj) {
                acc[jj] = c[i * n + j + jj];
            }
            for (std::size_t p = 0; p < k; ++p) {
                const double* bp = b + p * n + j;
                const double x = a[p * m + i];
                for (std::size_t jj = 0; jj < kTj; ++jj) {
                    acc[jj] += x * bp[jj];
                }
            }
            for (std::size_t jj = 0; jj < kTj; ++jj) {
                c[i * n + j + jj] = acc[jj];
            }
        }
        for (; j < n; ++j) {
            double s = c[i * n + j];
            for (std::size_t p = 0; p < k; ++p) {
                s += a[p * m + i] * b[p * n + j];
            }
            c[i * n + j] = s;
        }
    }
}

void gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k, const double* a, const double* b,
                 double* c) noexcept {
    gemm_tn_acc_rows(m, n, k, 0, m, a, b, c);
}

void transpose_rows(std::size_t rows, std::size_t cols, std::size_t row_begin,
                    std::size_t row_end, const double* __restrict in,
                    double* __restrict out) noexcept {
    // 8x8 blocks keep both the source rows and the destination rows within
    // cache lines; plain copies, no arithmetic, so no ordering concerns.
    constexpr std::size_t kBlock = 8;
    for (std::size_t r0 = row_begin; r0 < row_end; r0 += kBlock) {
        const std::size_t r1 = std::min(row_end, r0 + kBlock);
        for (std::size_t c0 = 0; c0 < cols; c0 += kBlock) {
            const std::size_t c1 = std::min(cols, c0 + kBlock);
            for (std::size_t r = r0; r < r1; ++r) {
                for (std::size_t c = c0; c < c1; ++c) {
                    out[c * rows + r] = in[r * cols + c];
                }
            }
        }
    }
}

void transpose(std::size_t rows, std::size_t cols, const double* in, double* out) noexcept {
    transpose_rows(rows, cols, 0, rows, in, out);
}

} // namespace mflb
