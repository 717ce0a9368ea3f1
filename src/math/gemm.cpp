#include "math/gemm.hpp"

#include "math/simd_dispatch.hpp"

#include <algorithm>

#if MFLB_SIMD_DISPATCH
#include <immintrin.h>
#endif

// Runtime ISA dispatch (math/simd_dispatch.hpp): the narrow kernel is cloned
// for AVX2+FMA (4-wide double lanes, fused multiply-add) with the baseline
// build as fallback, selected once by the loader; on AVX-512 hosts
// gemm_tn_acc_rows runs the wide kernel instead, selected once from the CPU.
// Lanes map one-to-one onto output elements and no reduction is ever split,
// so results stay deterministic for a fixed machine and thread count; FMA
// contraction rounds each multiply-add once instead of twice, which keeps
// the batched passes within ~1 ulp per term of the scalar path (the 1e-12
// agreement contract pinned in test_mlp.cpp), in exchange for ~2x per-core
// throughput. The wide kernel's 32-column panels spell the same FMAs out in
// intrinsics and share every other loop with the narrow kernel, so each
// output element sees the same FMA sequence in either: they are
// bit-identical.

namespace mflb {

namespace {

/// Column width of the narrow kernel's register panels.
constexpr std::size_t kPanelCols = 8;

/// Columns [j0, n) of the 4-row tile at row i: 4×8 register panels while
/// they fit, then single columns. Sum of k rank-1 updates accumulated in
/// ascending p (sample) order — identical addition order to a per-sample
/// gradient loop. A is k × m, so the four scalars per p are the contiguous
/// a[p][i..i+3].
[[gnu::always_inline]] inline void tile_columns(std::size_t m, std::size_t n, std::size_t k,
                                                std::size_t i, std::size_t j0,
                                                const double* __restrict a,
                                                const double* __restrict b,
                                                double* __restrict c) noexcept {
    std::size_t j = j0;
    for (; j + kPanelCols <= n; j += kPanelCols) {
        double acc0[kPanelCols], acc1[kPanelCols], acc2[kPanelCols], acc3[kPanelCols];
        for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
            acc0[jj] = c[(i + 0) * n + j + jj];
            acc1[jj] = c[(i + 1) * n + j + jj];
            acc2[jj] = c[(i + 2) * n + j + jj];
            acc3[jj] = c[(i + 3) * n + j + jj];
        }
        for (std::size_t p = 0; p < k; ++p) {
            const double* ap = a + p * m + i;
            const double* bp = b + p * n + j;
            const double x0 = ap[0], x1 = ap[1], x2 = ap[2], x3 = ap[3];
            for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
                const double y = bp[jj];
                acc0[jj] += x0 * y;
                acc1[jj] += x1 * y;
                acc2[jj] += x2 * y;
                acc3[jj] += x3 * y;
            }
        }
        for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
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

/// End of the 4-row tiles that start at i0: the rows from there to i1 are
/// left over, fewer than a tile.
std::size_t tiles_end(std::size_t i0, std::size_t i1) noexcept {
    return i0 + (i1 - i0) / kGemmRowTile * kGemmRowTile;
}

} // namespace

namespace detail {

MFLB_SIMD_CLONES
void gemm_tn_acc_rows_narrow(std::size_t m, std::size_t n, std::size_t k, std::size_t i0,
                             std::size_t i1, const double* __restrict a,
                             const double* __restrict b, double* __restrict c) noexcept {
    // Tiles start at i0, so a range whose bounds sit on the tile grid runs
    // every row through the same code as the full call.
    const std::size_t tiled = tiles_end(i0, i1);
    for (std::size_t i = i0; i < tiled; i += kGemmRowTile) {
        tile_columns(m, n, k, i, 0, a, b, c);
    }
    // Leftover rows one at a time, in 8-column panels then single columns.
    for (std::size_t i = tiled; i < i1; ++i) {
        std::size_t j = 0;
        for (; j + kPanelCols <= n; j += kPanelCols) {
            double acc[kPanelCols];
            for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
                acc[jj] = c[i * n + j + jj];
            }
            for (std::size_t p = 0; p < k; ++p) {
                const double* bp = b + p * n + j;
                const double x = a[p * m + i];
                for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
                    acc[jj] += x * bp[jj];
                }
            }
            for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
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

#if MFLB_SIMD_DISPATCH
namespace {

/// The AVX-512 panel: C rows [i, i+4) × columns [j, j+32) in 16 zmm
/// accumulators. Per p, four B loads and four broadcasts of a[p][i..i+3]
/// feed one FMA per element — 24 of the 32 registers, so nothing spills.
MFLB_SIMD_WIDE [[gnu::always_inline]] inline void panel_4x32(
    std::size_t m, std::size_t n, std::size_t k, std::size_t i, std::size_t j,
    const double* __restrict a, const double* __restrict b, double* __restrict c) noexcept {
    constexpr std::size_t kLanes = 8;
    constexpr std::size_t kVecs = 4; // 32 columns
    __m512d acc[kGemmRowTile][kVecs];
    for (std::size_t r = 0; r < kGemmRowTile; ++r) {
        for (std::size_t q = 0; q < kVecs; ++q) {
            acc[r][q] = _mm512_loadu_pd(c + (i + r) * n + j + q * kLanes);
        }
    }
    const double* ap = a + i;
    const double* bp = b + j;
    for (std::size_t p = 0; p < k; ++p, ap += m, bp += n) {
        __m512d y[kVecs];
        for (std::size_t q = 0; q < kVecs; ++q) {
            y[q] = _mm512_loadu_pd(bp + q * kLanes);
        }
        for (std::size_t r = 0; r < kGemmRowTile; ++r) {
            const __m512d x = _mm512_set1_pd(ap[r]);
            for (std::size_t q = 0; q < kVecs; ++q) {
                acc[r][q] = _mm512_fmadd_pd(x, y[q], acc[r][q]);
            }
        }
    }
    for (std::size_t r = 0; r < kGemmRowTile; ++r) {
        for (std::size_t q = 0; q < kVecs; ++q) {
            _mm512_storeu_pd(c + (i + r) * n + j + q * kLanes, acc[r][q]);
        }
    }
}

/// 4-row tiles of rows [i0, i1), a whole number of them: 32-column panels,
/// then the narrow kernel's 8-column panels and single columns.
MFLB_SIMD_WIDE
void wide_row_tiles(std::size_t m, std::size_t n, std::size_t k, std::size_t i0, std::size_t i1,
                    const double* __restrict a, const double* __restrict b,
                    double* __restrict c) noexcept {
    constexpr std::size_t kWideCols = 32;
    for (std::size_t i = i0; i < i1; i += kGemmRowTile) {
        std::size_t j = 0;
        for (; j + kWideCols <= n; j += kWideCols) {
            panel_4x32(m, n, k, i, j, a, b, c);
        }
        tile_columns(m, n, k, i, j, a, b, c);
    }
}

} // namespace

void gemm_tn_acc_rows_wide(std::size_t m, std::size_t n, std::size_t k, std::size_t i0,
                           std::size_t i1, const double* a, const double* b,
                           double* c) noexcept {
    // Leftover rows (and so the batch-1 policy query) keep the narrow
    // kernel's single-row code: its one 8-wide accumulator chain per row
    // runs no faster in zmm than in two ymm.
    const std::size_t tiled = tiles_end(i0, i1);
    wide_row_tiles(m, n, k, i0, tiled, a, b, c);
    gemm_tn_acc_rows_narrow(m, n, k, tiled, i1, a, b, c);
}

bool wide_gemm_available() noexcept {
    static const bool available = __builtin_cpu_supports("x86-64-v4");
    return available;
}
#else
void gemm_tn_acc_rows_wide(std::size_t m, std::size_t n, std::size_t k, std::size_t i0,
                           std::size_t i1, const double* a, const double* b,
                           double* c) noexcept {
    gemm_tn_acc_rows_narrow(m, n, k, i0, i1, a, b, c);
}

bool wide_gemm_available() noexcept {
    return false;
}
#endif

} // namespace detail

void gemm_tn_acc_rows(std::size_t m, std::size_t n, std::size_t k, std::size_t i0,
                      std::size_t i1, const double* a, const double* b, double* c) noexcept {
    if (detail::wide_gemm_available()) {
        detail::gemm_tn_acc_rows_wide(m, n, k, i0, i1, a, b, c);
    } else {
        detail::gemm_tn_acc_rows_narrow(m, n, k, i0, i1, a, b, c);
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
