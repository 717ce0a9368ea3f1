// Agreement contract of the vectorized kernels (math/vec_ops) against their
// `_reference` twins: 1e-12 relative error for arbitrary doubles, bit-exact
// for integer-valued inputs below 2^53 (the counting client models — this is
// what keeps the golden sharded trajectories pinned), and 2 ulp of std::tanh
// for vec_tanh. Sizes straddle the scan's serial-fallback threshold
// (block < 16, i.e. n < 64) and the 4-lane tail cases (n mod 4 ≠ 0). Under
// TSan the target_clones dispatch is compiled out (MFLB_SIMD_CLONES is empty
// there), so these tests also pin that the plain build of the lane shapes
// agrees with the reference.
#include "math/vec_ops.hpp"
#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace mflb {
namespace {

// Sizes covering: empty, sub-lane, exact multiples of 4, every tail residue,
// the scan fallback boundary (n = 63 serial, n = 64 segmented), and sizes
// large enough that lane reassociation actually accumulates rounding.
const std::vector<std::size_t> kSizes = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31,
                                         63, 64, 65, 127, 128, 257, 1000, 4099};

std::vector<double> random_doubles(std::size_t n, Rng& rng) {
    std::vector<double> xs(n);
    for (double& x : xs) {
        // Mixed magnitudes and signs so reassociation produces real ulp
        // differences for the tolerance check to be meaningful.
        x = rng.normal() * (1.0 + 1000.0 * rng.uniform());
    }
    return xs;
}

std::vector<std::uint64_t> random_counts(std::size_t n, Rng& rng) {
    std::vector<std::uint64_t> xs(n);
    for (std::uint64_t& x : xs) {
        x = rng.uniform_below(1u << 20);
    }
    return xs;
}

void expect_close(double a, double b, double rel = 1e-12) {
    const double scale = std::max({1.0, std::abs(a), std::abs(b)});
    EXPECT_NEAR(a, b, rel * scale);
}

TEST(VecKernels, SumMatchesReferenceForDoubles) {
    Rng rng(101);
    for (const std::size_t n : kSizes) {
        const std::vector<double> xs = random_doubles(n, rng);
        expect_close(vec_sum(std::span<const double>(xs)),
                     vec_sum_reference(std::span<const double>(xs)));
    }
}

TEST(VecKernels, SumIsExactForIntegerValuedInputs) {
    Rng rng(102);
    for (const std::size_t n : kSizes) {
        // Integer-valued doubles (queue weights of the counting models):
        // every reassociation is exact below 2^53.
        const std::vector<std::uint64_t> counts = random_counts(n, rng);
        std::vector<double> xs(counts.begin(), counts.end());
        EXPECT_EQ(vec_sum(std::span<const double>(xs)),
                  vec_sum_reference(std::span<const double>(xs)));
    }
}

TEST(VecKernels, PrefixSumIsExactForIntegerWeights) {
    Rng rng(104);
    for (const std::size_t n : kSizes) {
        const std::vector<std::uint64_t> counts = random_counts(n, rng);
        std::vector<double> got(n, -1.0);
        std::vector<double> want(n, -2.0);
        inclusive_prefix_sum(std::span<const std::uint64_t>(counts), got);
        inclusive_prefix_sum_reference(std::span<const std::uint64_t>(counts), want);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(got[i], want[i]) << "n=" << n << " i=" << i;
        }
    }
}

TEST(VecKernels, GatherScaleIsBitExact) {
    Rng rng(106);
    const std::vector<double> table = random_doubles(32, rng);
    for (const std::size_t n : kSizes) {
        std::vector<int> idx(n);
        for (int& z : idx) {
            z = static_cast<int>(rng.uniform_below(table.size()));
        }
        const double scale = rng.uniform(0.1, 2.0);
        std::vector<double> got(n, -1.0);
        gather_scale(idx, table, scale, got);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(got[i], scale * table[static_cast<std::size_t>(idx[i])]);
        }
    }
}

TEST(VecKernels, SizeMismatchThrows) {
    const std::vector<double> in(8, 1.0);
    const std::vector<std::uint64_t> in_u(8, 1);
    std::vector<double> out(7, 0.0);
    EXPECT_THROW(inclusive_prefix_sum(std::span<const std::uint64_t>(in_u), out),
                 std::invalid_argument);
    EXPECT_THROW(inclusive_prefix_sum_reference(std::span<const std::uint64_t>(in_u), out),
                 std::invalid_argument);
    const std::vector<int> idx(8, 0);
    EXPECT_THROW(gather_scale(idx, in, 1.0, out), std::invalid_argument);
    const std::vector<double> w(8 * 7, 1.0);
    const std::vector<double> bias(7, 0.0);
    EXPECT_THROW(matvec(w, std::span<const double>(in).first(7), bias, out),
                 std::invalid_argument);
    EXPECT_THROW(matvec(w, in, std::span<const double>(bias).first(6), out),
                 std::invalid_argument);
}

/// Distance in representable doubles (0 for equal values and for ±0).
std::uint64_t ulp_distance(double a, double b) {
    const auto ordered = [](double x) {
        const auto u = std::bit_cast<std::int64_t>(x);
        return u < 0 ? std::numeric_limits<std::int64_t>::min() - u : u;
    };
    const std::int64_t d = ordered(a) - ordered(b);
    return static_cast<std::uint64_t>(d < 0 ? -d : d);
}

/// Largest ulp distance of vec_tanh from std::tanh over xs, with the input
/// where it occurs.
std::pair<std::uint64_t, double> max_tanh_ulps(std::vector<double> xs) {
    std::vector<double> want = xs;
    vec_tanh_reference(want);
    std::vector<double> got = xs;
    vec_tanh(got);
    std::pair<std::uint64_t, double> worst{0, 0.0};
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const std::uint64_t d = ulp_distance(got[i], want[i]);
        if (d > worst.first) {
            worst = {d, xs[i]};
        }
    }
    return worst;
}

TEST(VecKernels, TanhWithinTwoUlpOfStdTanh) {
    // [-25, 25] at a step of 1e-5, in blocks to keep the buffers small.
    constexpr std::int64_t kSteps = 5'000'000;
    for (std::int64_t begin = -kSteps / 2; begin <= kSteps / 2; begin += 1 << 16) {
        std::vector<double> xs;
        for (std::int64_t i = begin; i < begin + (1 << 16) && i <= kSteps / 2; ++i) {
            xs.push_back(static_cast<double>(i) * 1e-5);
        }
        const auto [ulps, at] = max_tanh_ulps(std::move(xs));
        ASSERT_LE(ulps, 2u) << "at x = " << at;
    }
    // Log-spaced down to 2^-60, both signs: the rational form's small end.
    std::vector<double> xs;
    for (double e = -60.0; e <= 5.0; e += 1.0 / 512) {
        xs.push_back(std::exp2(e));
        xs.push_back(-std::exp2(e));
    }
    const auto [ulps, at] = max_tanh_ulps(std::move(xs));
    EXPECT_LE(ulps, 2u) << "at x = " << at;
}

TEST(VecKernels, TanhSpecialValues) {
    const double inf = std::numeric_limits<double>::infinity();
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double normal_min = std::numeric_limits<double>::min();
    // Signed zeros and subnormals come back unchanged, as from std::tanh.
    for (const double x : {0.0, -0.0, tiny, -tiny, normal_min - tiny, tiny - normal_min,
                           normal_min, -normal_min}) {
        double y = x;
        vec_tanh(std::span<double>(&y, 1));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(y), std::bit_cast<std::uint64_t>(x)) << x;
    }
    // Both sides of the formula switch at |x| = 0.625: the 16 doubles on
    // either side of it, 0.625 itself and ±1e-9 from it, in both signs.
    std::vector<double> near_switch = {0.625, 0.625 - 1e-9, 0.625 + 1e-9};
    for (double below = 0.625, above = 0.625; near_switch.size() < 35;) {
        below = std::nextafter(below, 0.0);
        above = std::nextafter(above, 1.0);
        near_switch.insert(near_switch.end(), {below, above});
    }
    for (std::size_t i = 0, n = near_switch.size(); i < n; ++i) {
        near_switch.push_back(-near_switch[i]);
    }
    const auto [ulps, at] = max_tanh_ulps(near_switch);
    EXPECT_LE(ulps, 2u) << "at x = " << at;
    // From |x| = 19.1 on, and at ±inf, exactly ±1; NaN stays NaN.
    std::vector<double> xs = {19.1, 19.2, 25.0, 710.0, 1e300,
                              std::numeric_limits<double>::max(), inf};
    const std::size_t n = xs.size();
    for (std::size_t i = 0; i < n; ++i) {
        xs.push_back(-xs[i]);
    }
    xs.push_back(std::numeric_limits<double>::quiet_NaN());
    xs.push_back(-std::numeric_limits<double>::quiet_NaN());
    vec_tanh(xs);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(xs[i], 1.0) << i;
        EXPECT_EQ(xs[n + i], -1.0) << i;
    }
    EXPECT_TRUE(std::isnan(xs[2 * n]));
    EXPECT_TRUE(std::isnan(xs[2 * n + 1]));
}

TEST(VecKernels, MatvecMatchesReference) {
    Rng rng(107);
    for (const std::size_t in : {1u, 7u, 8u, 9u, 256u}) {
        for (const std::size_t out : {1u, 3u, 4u, 5u, 144u, 256u}) {
            const std::vector<double> w = random_doubles(out * in, rng);
            const std::vector<double> x = random_doubles(in, rng);
            const std::vector<double> b = random_doubles(out, rng);
            std::vector<double> got(out, -1.0);
            std::vector<double> want(out, -2.0);
            matvec(w, x, b, got);
            matvec_reference(w, x, b, want);
            for (std::size_t o = 0; o < out; ++o) {
                SCOPED_TRACE(testing::Message() << "in " << in << " out " << out << " o " << o);
                expect_close(got[o], want[o]);
            }
        }
    }
}

} // namespace
} // namespace mflb
