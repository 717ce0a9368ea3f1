#include "math/vec_ops.hpp"

#include "math/simd_dispatch.hpp"

#include <stdexcept>

namespace mflb {

namespace {

/// Below this block length the two-pass scan's extra pass costs more than
/// the broken dependency chain saves; fall back to the serial reference.
/// Part of the code shape (fixed constant), so results never depend on it
/// dynamically.
constexpr std::size_t kMinScanBlock = 16;

template <class Src>
double sum4_impl(Src xs, std::size_t n) noexcept {
    // Fixed 4-lane split: lane j sums xs[4i+j]; lanes combine as
    // (l0+l1)+(l2+l3); the tail is appended left to right. The split is part
    // of the kernel contract — pure adds, no FMA pattern, so the AVX2 and
    // baseline clones agree bit for bit.
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    const std::size_t n4 = n / 4 * 4;
    for (std::size_t i = 0; i < n4; i += 4) {
        l0 += static_cast<double>(xs[i + 0]);
        l1 += static_cast<double>(xs[i + 1]);
        l2 += static_cast<double>(xs[i + 2]);
        l3 += static_cast<double>(xs[i + 3]);
    }
    double total = (l0 + l1) + (l2 + l3);
    for (std::size_t i = n4; i < n; ++i) {
        total += static_cast<double>(xs[i]);
    }
    return total;
}

template <class In>
double sum_reference_impl(const In* __restrict xs, std::size_t n) noexcept {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        total += static_cast<double>(xs[i]);
    }
    return total;
}

template <class In>
void scan_reference_impl(const In* __restrict in, double* __restrict out,
                         std::size_t n) noexcept {
    double running = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        running += static_cast<double>(in[i]);
        out[i] = running;
    }
}

template <class Src>
void scan4_impl(Src in, double* out, std::size_t n) noexcept {
    // Segmented two-pass scan over four equal blocks of length L = n/4:
    // pass 1 sums blocks 0-2 (three independent chains), pass 2 scans all
    // four blocks as independent chains seeded with the block offsets, then
    // finishes the n mod 4 tail serially. Reassociation happens only at the
    // three block boundaries — exact for integer-valued inputs.
    const std::size_t len = n / 4;
    if (len < kMinScanBlock) {
        double running = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            running += static_cast<double>(in[i]);
            out[i] = running;
        }
        return;
    }
    const Src b0 = in;
    const Src b1 = in + len;
    const Src b2 = in + 2 * len;
    const Src b3 = in + 3 * len;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
        s0 += static_cast<double>(b0[i]);
        s1 += static_cast<double>(b1[i]);
        s2 += static_cast<double>(b2[i]);
    }
    double c0 = 0.0;
    double c1 = s0;
    double c2 = s0 + s1;
    double c3 = (s0 + s1) + s2;
    double* o0 = out;
    double* o1 = out + len;
    double* o2 = out + 2 * len;
    double* o3 = out + 3 * len;
    for (std::size_t i = 0; i < len; ++i) {
        c0 += static_cast<double>(b0[i]);
        c1 += static_cast<double>(b1[i]);
        c2 += static_cast<double>(b2[i]);
        c3 += static_cast<double>(b3[i]);
        o0[i] = c0;
        o1[i] = c1;
        o2[i] = c2;
        o3[i] = c3;
    }
    for (std::size_t i = 4 * len; i < n; ++i) {
        c3 += static_cast<double>(in[i]);
        out[i] = c3;
    }
}

} // namespace

MFLB_SIMD_CLONES
double vec_sum(std::span<const double> xs) noexcept {
    return sum4_impl(xs.data(), xs.size());
}

double vec_sum_reference(std::span<const double> xs) noexcept {
    return sum_reference_impl(xs.data(), xs.size());
}

MFLB_SIMD_CLONES
void inclusive_prefix_sum(std::span<const std::uint64_t> in, std::span<double> out) {
    if (out.size() != in.size()) {
        throw std::invalid_argument("inclusive_prefix_sum: output size mismatch");
    }
    scan4_impl(in.data(), out.data(), in.size());
}

void inclusive_prefix_sum_reference(std::span<const std::uint64_t> in, std::span<double> out) {
    if (out.size() != in.size()) {
        throw std::invalid_argument("inclusive_prefix_sum_reference: output size mismatch");
    }
    scan_reference_impl(in.data(), out.data(), in.size());
}

MFLB_SIMD_CLONES
void gather_scale(std::span<const int> idx, std::span<const double> table, double scale,
                  std::span<double> out) {
    if (out.size() != idx.size()) {
        throw std::invalid_argument("gather_scale: output size mismatch");
    }
    const int* __restrict ix = idx.data();
    const double* __restrict tab = table.data();
    double* __restrict o = out.data();
    for (std::size_t i = 0; i < idx.size(); ++i) {
        o[i] = scale * tab[static_cast<std::size_t>(ix[i])];
    }
}

} // namespace mflb
