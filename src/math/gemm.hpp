/// \file gemm.hpp
/// Cache-blocked dense matrix-multiply kernels for the batched training
/// stack (rl/mlp.hpp). All matrices are row-major double buffers. One
/// kernel shape covers every layer pass of an MLP training step:
/// gemm_tn_acc, C += Aᵀ · B with both operands k-major. The forward,
/// input-delta, and weight-gradient passes all reduce to it by transposing
/// the smaller operand into a workspace buffer.
///
/// Determinism contract: every output element accumulates its reduction in
/// strictly ascending k order, exactly like the naive three-loop product;
/// blocking reorders *which* elements are computed when, never the
/// floating-point addition order *within* an element. The one numeric
/// effect of the AVX2 clone is FMA contraction, which keeps the kernels
/// within the 1e-12 agreement contract against the per-sample scalar loops
/// (not bit-identical to them). Results never depend on how the rows of C are
/// split between calls, as long as the splits sit on the kGemmRowTile grid —
/// which is what lets the parallel PPO update run row ranges on different
/// threads and stay bitwise equal to the whole-matrix call.
///
/// Two kernels (math/simd_dispatch.hpp):
///  - the narrow kernel, 4-row × 8-column register panels, cloned for AVX2
///    with a baseline fallback;
///  - on AVX-512 hosts, a wide kernel compiled for x86-64-v4: 4-row ×
///    32-column panels in 16 zmm accumulators (FMA intrinsics), then the
///    narrow kernel's 8-column panels and single columns; rows left over
///    after the last 4-row tile run the narrow kernel. gemm_tn_acc_rows
///    selects it once from the CPU (`__builtin_cpu_supports("x86-64-v4")`),
///    under the same build guards as the AVX2 clones, so TSan and non-GCC
///    builds never use it.
/// Each output element of the wide kernel still takes one FMA per term in
/// ascending k, exactly like the AVX2 clone, so the two are bit-identical
/// and results do not depend on which of the two a host picks
/// (`Gemm.WideKernelMatchesNarrowBitwise`).
/// \see rl/mlp.hpp for the batch-major layer passes built on these kernels.
#pragma once

#include <cstddef>

namespace mflb {

/// C-row tile of gemm_tn_acc. Row ranges that start and end on multiples of
/// it (or end at m) reproduce the full call bit for bit.
inline constexpr std::size_t kGemmRowTile = 4;

/// The buffers of one call must not overlap (spelled `__restrict` in the
/// implementation so the row-streaming inner loops vectorize under the
/// strict FP model — lanes are distinct output elements, never a split
/// reduction).
///
/// C (m×n) += Aᵀ · B where A is k×m and B is k×n row-major;
/// c[i][j] += Σ_p a[p][i] · b[p][j], p ascending. The training workhorse:
/// a sum of k rank-1 updates accumulated in order, with a register-resident
/// 4×8 C tile and contiguous per-p loads of both operands — the shape GCC
/// SLP-vectorizes cleanly under strict FP (4×32 zmm in the AVX-512 kernel).
void gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k, const double* a, const double* b,
                 double* c) noexcept;

/// Rows [i0, i1) of gemm_tn_acc(m, n, k, a, b, c), through the same tile
/// code: with i0 a multiple of kGemmRowTile and i1 a multiple of it or m,
/// concatenated row-range calls equal the full call bitwise. Disjoint row
/// ranges touch disjoint C rows, so they may run concurrently.
void gemm_tn_acc_rows(std::size_t m, std::size_t n, std::size_t k, std::size_t i0,
                      std::size_t i1, const double* a, const double* b, double* c) noexcept;

namespace detail {
/// The two kernels behind gemm_tn_acc_rows, exposed so a test can hold them
/// to bit equality. True when this build and CPU run the wide kernel.
bool wide_gemm_available() noexcept;
/// The 4×8-panel kernel (its AVX2 clone on AVX2 hosts).
void gemm_tn_acc_rows_narrow(std::size_t m, std::size_t n, std::size_t k, std::size_t i0,
                             std::size_t i1, const double* a, const double* b,
                             double* c) noexcept;
/// The 4×32-panel AVX-512 kernel. Call it only when wide_gemm_available();
/// builds without it forward to the narrow kernel.
void gemm_tn_acc_rows_wide(std::size_t m, std::size_t n, std::size_t k, std::size_t i0,
                           std::size_t i1, const double* a, const double* b,
                           double* c) noexcept;
} // namespace detail

/// OUT (cols×rows) = transpose of the row-major IN (rows×cols). Helper for
/// bringing operands into the k-major layout gemm_tn_acc wants without
/// changing any accumulation order.
void transpose(std::size_t rows, std::size_t cols, const double* in, double* out) noexcept;

/// Rows [r0, r1) of transpose(rows, cols, in, out): writes only OUT columns
/// r0..r1-1, so disjoint row ranges may run concurrently.
void transpose_rows(std::size_t rows, std::size_t cols, std::size_t r0, std::size_t r1,
                    const double* in, double* out) noexcept;

} // namespace mflb
