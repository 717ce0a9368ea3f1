/// \file simd_dispatch.hpp
/// Shared runtime ISA dispatch for the handful of hot numeric kernels
/// (math/gemm.cpp, math/vec_ops.cpp, rl/adam.cpp):
///  - `MFLB_SIMD_CLONES` clones a function for AVX2+FMA (`arch=x86-64-v3`,
///    4-wide double lanes) with the baseline build as fallback, selected once
///    by the loader via ifunc;
///  - `MFLB_SIMD_WIDE` compiles one function for AVX-512 (`arch=x86-64-v4`,
///    8-wide double lanes in 32 zmm registers). There is no fallback clone:
///    the caller selects it once from the CPU (`__builtin_cpu_supports`) and
///    keeps a `MFLB_SIMD_CLONES` kernel for every other host. Only the GEMM
///    uses it (math/gemm.hpp); x86-64-v4 is deliberately not a clone target
///    of `MFLB_SIMD_CLONES`, which also serves the DES paths' `vec_ops`.
///
/// The guards (`MFLB_SIMD_DISPATCH`) mirror what target_clones actually
/// requires: GCC on x86-64 emitting ELF. Clang is excluded (different
/// multiversioning semantics for this attribute), and so is any
/// ThreadSanitizer build — TSan's interceptors are not ifunc-safe, the
/// resolver would run before the TSan runtime is initialized.
///
/// Determinism: cloning never changes *which* additions happen in which
/// order — kernels under these macros are written so lanes map to distinct
/// output elements or to a fixed accumulator split that is part of the
/// kernel's contract. The only machine-visible difference the AVX2 clone may
/// introduce is FMA contraction (one rounding per multiply-add instead of
/// two), bounded by the 1e-12 agreement tests; pure-add kernels (prefix
/// sums, partition sums) have no contractible pattern and are bit-identical
/// across ISAs. The AVX-512 GEMM does one FMA per multiply-add, as the
/// AVX2 clone's contraction does, so the two are bit-identical (pinned in
/// test_mlp.cpp).
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    defined(__ELF__) && !defined(__SANITIZE_THREAD__)
#define MFLB_SIMD_DISPATCH 1
#define MFLB_SIMD_CLONES __attribute__((target_clones("arch=x86-64-v3", "default")))
#define MFLB_SIMD_WIDE __attribute__((target("arch=x86-64-v4")))
#else
#define MFLB_SIMD_DISPATCH 0
#define MFLB_SIMD_CLONES
#endif
