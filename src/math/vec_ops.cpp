#include "math/vec_ops.hpp"

#include "math/simd_dispatch.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
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

typedef double Vec4 __attribute__((vector_size(32))); // elementwise IEEE ops

/// Rows of y = b + W·x from o on, in blocks of R sharing each x load while
/// whole blocks fit; returns the first row left over. Lane j of a row sums
/// w[8i+j]·x[8i+j] (two Vec4s), then the fixed tree, the tail and the bias:
/// R does not change a row's arithmetic.
template <std::size_t R>
[[gnu::always_inline]] inline std::size_t matvec_rows(std::size_t o, std::span<const double> w,
                                                      std::span<const double> x,
                                                      std::span<const double> b,
                                                      std::span<double> y) noexcept {
    const std::size_t in = x.size();
    const std::size_t in8 = in / 8 * 8;
    for (; o + R <= y.size(); o += R) {
        const double* __restrict row = w.data() + o * in;
        Vec4 acc[R][2] = {};
        for (std::size_t i = 0; i < in8; i += 8) {
            for (std::size_t q = 0; q < 2; ++q) {
                Vec4 xv, wv;
                std::memcpy(&xv, x.data() + i + 4 * q, sizeof xv);
                for (std::size_t r = 0; r < R; ++r) {
                    std::memcpy(&wv, row + r * in + i + 4 * q, sizeof wv);
                    acc[r][q] += wv * xv;
                }
            }
        }
        for (std::size_t r = 0; r < R; ++r) {
            double l[8];
            std::memcpy(l, acc[r], sizeof l);
            double sum = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
            for (std::size_t i = in8; i < in; ++i) {
                sum += row[r * in + i] * x[i];
            }
            y[o + r] = b[o + r] + sum;
        }
    }
    return o;
}

} // namespace

MFLB_SIMD_CLONES
double vec_sum(std::span<const double> xs) noexcept {
    return sum4_impl(xs.data(), xs.size());
}

double vec_sum_reference(std::span<const double> xs) noexcept {
    double total = 0.0;
    for (const double x : xs) {
        total += x;
    }
    return total;
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
    double running = 0.0;
    for (std::size_t i = 0; i < in.size(); ++i) {
        running += static_cast<double>(in[i]);
        out[i] = running;
    }
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

MFLB_SIMD_CLONES
void matvec(std::span<const double> w, std::span<const double> x, std::span<const double> b,
            std::span<double> y) {
    if (w.size() != y.size() * x.size() || b.size() != y.size()) {
        throw std::invalid_argument("matvec: size mismatch");
    }
    matvec_rows<1>(matvec_rows<4>(0, w, x, b, y), w, x, b, y);
}

void matvec_reference(std::span<const double> w, std::span<const double> x,
                      std::span<const double> b, std::span<double> y) noexcept {
    for (std::size_t o = 0; o < y.size(); ++o) {
        y[o] = std::inner_product(x.begin(), x.end(), w.begin() + o * x.size(), b[o]);
    }
}

/// tanh on |x|, sign restored last (so ±0 keeps its sign). Both forms are
/// computed and one selected, so the loop vectorizes; NaN fails every
/// comparison and flows through the exp form, never clamped. There e^y =
/// 2^k·(1 + expm1(r)), k = round(y / ln 2), r = y − k·ln 2 with fdlibm's split
/// ln 2 (k·hi is exact), expm1 by Taylor to r^13 (< 0.02 ulp).
MFLB_SIMD_CLONES
void vec_tanh(std::span<double> xs) noexcept {
    constexpr double kOne = 19.1; // tanh rounds to 1 from here on
    constexpr double kLn2Hi = 0.6931471803691238, kLn2Lo = 1.9082149292705877e-10;
    constexpr double kRound = 0x1.8p52; // t + kRound keeps round(t) in its low bits
    constexpr double kInvFact[] = {1 / 6227020800.0, 1 / 479001600.0, 1 / 39916800.0,
                                   1 / 3628800.0, 1 / 362880.0, 1 / 40320.0, 1 / 5040.0,
                                   1 / 720.0, 1 / 120.0, 1 / 24.0, 1 / 6.0, 0.5};
    // Cephes' tanh(x) = x + x·s·P(s)/Q(s), s = x², below |x| = 0.625.
    constexpr double kP[] = {-0.9643991794250523, -99.28772310019185, -1614.6876844170845};
    constexpr double kQ[] = {112.81167849163293, 2235.4883906010045, 4844.063053251255};
    for (double& v : xs) {
        const double z = std::fabs(v);
        const double y = 2.0 * (z > kOne ? kOne : z);
        const double kd = y * 1.4426950408889634 + kRound; // y / ln 2
        const double r = (y - (kd - kRound) * kLn2Hi) - (kd - kRound) * kLn2Lo;
        double p = kInvFact[0];
        for (std::size_t c = 1; c < std::size(kInvFact); ++c) {
            p = p * r + kInvFact[c];
        }
        const double scale = // 2^k, from k in the low bits of kd
            std::bit_cast<double>((std::bit_cast<std::uint64_t>(kd) << 52) + 0x3ff0000000000000);
        const double denom = (scale + 1.0) + scale * (r + r * r * p); // e^{2z} + 1
        const double s = z * z;
        const double num = z * s * ((kP[0] * s + kP[1]) * s + kP[2]);
        const double den = ((s + kQ[0]) * s + kQ[1]) * s + kQ[2];
        const bool small = z < 0.625;
        const double t = (small ? num : 2.0) / (small ? den : denom);
        v = std::copysign(z >= kOne ? 1.0 : small ? z + t : 1.0 - t, v);
    }
}

void vec_tanh_reference(std::span<double> xs) noexcept {
    for (double& x : xs) {
        x = std::tanh(x);
    }
}

} // namespace mflb
