/// \file vec_ops.hpp
/// Vectorized kernels: the O(M) epoch-barrier pieces — block sums (router
/// shard masses), inclusive prefix sums (DES thinning) and the `jsq-d`/
/// `sed-d` cell-weight gather — and rl::Mlp's per-sample `matvec` and
/// `vec_tanh`. All use the `target_clones` AVX2 dispatch of math/gemm.cpp
/// (math/simd_dispatch.hpp).
///
/// Contract, mirroring the GEMM kernels:
///  - Every kernel has a `_reference` twin (strict left-to-right
///    accumulation; std::tanh for `vec_tanh`) that it agrees with to 1e-12
///    relative error, 2 ulp for `vec_tanh` (tests/test_vec_kernels.cpp).
///  - The accumulator split is *fixed by the code shape* (4 lanes for the
///    sums, 8 for `matvec`; block boundaries at n/4), never by thread count
///    or ISA, and vec_ops.cpp is built `-ffp-contract=off`, so no
///    multiply-add is fused: the baseline and AVX2 clones are bit-identical,
///    and results are machine- and thread-count-independent.
///  - For integer-valued inputs below 2^53 (client counts, queue weights of
///    the counting client models) every reassociation is exact, so the
///    dispatched sums equal the reference *bit for bit*.
#pragma once

#include <cstdint>
#include <span>

namespace mflb {

/// Σ xs with a fixed 4-lane accumulator split: lane j sums xs[4i+j], lanes
/// combine as (l0+l1)+(l2+l3), then the tail (n mod 4 elements) is appended
/// left to right. Exact for integer-valued inputs; 1e-12 vs the reference
/// otherwise.
double vec_sum(std::span<const double> xs) noexcept;

/// Strict left-to-right sum — the scalar reference path.
double vec_sum_reference(std::span<const double> xs) noexcept;

/// Inclusive prefix sum out[i] = Σ_{j<=i} in[j] of integer weights (client
/// counts), the thinning realization of the event-driven backend (binary
/// search on `out` draws destinations). Segmented two-pass scan: four equal
/// blocks are summed first, then scanned in parallel chains seeded with the
/// block offsets; exact for totals below 2^53. `out` must have in.size()
/// elements.
void inclusive_prefix_sum(std::span<const std::uint64_t> in, std::span<double> out);

/// Strict serial scan — the scalar reference path.
void inclusive_prefix_sum_reference(std::span<const std::uint64_t> in, std::span<double> out);

/// out[i] = scale * table[idx[i]] — the destination-law gather: per-queue
/// law from the per-state sums. Pure per-element arithmetic (no reductions),
/// so the result is bit-identical regardless of ISA clone.
void gather_scale(std::span<const int> idx, std::span<const double> table, double scale,
                  std::span<double> out);

/// y = b + W·x for a row-major W (y.size() × x.size()), rl::Mlp's per-sample
/// layer pass: each row in 8 lanes (lane j sums columns 8i+j) combined as
/// ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)), then the in mod 8 tail left to
/// right, then the bias. Throws std::invalid_argument on a size mismatch.
void matvec(std::span<const double> w, std::span<const double> x, std::span<const double> b,
            std::span<double> y);
/// The same product accumulated strictly left to right from the bias.
void matvec_reference(std::span<const double> w, std::span<const double> x,
                      std::span<const double> b, std::span<double> y) noexcept;

/// xs[i] = tanh(xs[i]) in place, within 2 ulp of std::tanh: a rational form
/// below |x| = 0.625, 1 − 2/(e^{2|x|} + 1) above, exactly ±1 from |x| ≥ 19.1
/// (where tanh rounds to ±1). Keeps the sign of ±0; ±inf → ±1, NaN → NaN.
void vec_tanh(std::span<double> xs) noexcept;
/// std::tanh element by element.
void vec_tanh_reference(std::span<double> xs) noexcept;

} // namespace mflb
