/// \file vec_ops.hpp
/// Vectorized epoch-barrier kernels: block sums, inclusive prefix sums, and
/// the destination-law gather. These are the O(M) pieces of the epoch
/// barriers — the sharded backend's router shard masses (`vec_sum`), the
/// DES thinning prefix sums (`inclusive_prefix_sum`) and the `jsq-d`/`sed-d`
/// routers' cell-weight gather (`gather_scale`) — compiled with the same
/// `target_clones` AVX2 dispatch as math/gemm.cpp (see math/simd_dispatch.hpp).
///
/// Contract, mirroring the GEMM kernels:
///  - Every kernel has a `_reference` twin with strict left-to-right
///    accumulation; the dispatched kernel agrees with it to 1e-12 relative
///    error (pinned in tests/test_vec_kernels.cpp).
///  - The dispatched kernels' accumulator split is *fixed by the code shape*
///    (4 lanes, block boundaries at n/4), never by thread count or ISA: the
///    sums are pure additions with no FMA-contractible pattern, so the AVX2
///    and baseline clones are bit-identical to each other, and results are
///    machine- and thread-count-independent.
///  - For integer-valued inputs below 2^53 (client counts, queue weights of
///    the counting client models) every reassociation is exact, so the
///    dispatched kernels equal the reference *bit for bit*.
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

} // namespace mflb
