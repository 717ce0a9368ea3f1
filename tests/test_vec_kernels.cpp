// Agreement contract of the vectorized epoch-barrier kernels (math/vec_ops)
// against their strict left-to-right `_reference` twins: 1e-12 relative error
// for arbitrary doubles, bit-exact for integer-valued inputs below 2^53 (the
// counting client models — this is what keeps the golden sharded trajectories
// pinned). Sizes straddle the scan's serial-fallback threshold (block < 16,
// i.e. n < 64) and the 4-lane tail cases (n mod 4 ≠ 0). Under TSan the
// target_clones dispatch is compiled out (MFLB_SIMD_CLONES is empty there),
// so these tests also pin that the plain build of the 4-lane shapes agrees
// with the reference.
#include "math/vec_ops.hpp"
#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
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
}

} // namespace
} // namespace mflb
