/// \file rng.hpp
/// Deterministic, splittable pseudo-random number generation for simulations.
///
/// All stochastic components of the library take an explicit `Rng&` so that
/// every experiment is reproducible from a single seed. The generator is
/// xoshiro256** (Blackman & Vigna), seeded through splitmix64; `split()`
/// derives statistically independent child streams, which is how the Monte
/// Carlo sweep hands one generator to each replication (and each worker
/// thread) without sharing state.
///
/// Two samplers share the Exp law: `exponential(rate)` inverts one uniform
/// (one draw per call, which fixed-draw-count callers rely on), and the
/// ziggurat `standard_exponential()` costs one draw and no `log` in ≈ 98%.
/// \see core/evaluator.hpp, whose thread-count-independent results rest on
/// this per-replication seeding contract.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace mflb {

/// Tables of the exponential ziggurat behind `Rng::standard_exponential`:
/// layer 0 is the base strip of width r + 1 and the tail beyond r; layers
/// 1..255 have equal area v, with right edges x_i falling from x_255 = r.
struct ExpZiggurat {
    static constexpr double kTail = 7.69711747013104972;  ///< r
    static constexpr double kArea = 3.949659822581572e-3; ///< v
    struct Layer {
        std::uint64_t inner; ///< ⌊x_{i−1}/x_i·2⁵³⌋: mantissas below lie under the curve.
        double scale;        ///< x_i·2⁻⁵³ (layer 0: (r + 1)·2⁻⁵³).
    };
    std::array<Layer, 256> layers;
    std::array<double, 256> density; ///< e^(−x_i); density[0] = 1, the top.

    /// The shared tables, built on first use (a function-local static, so no
    /// static-initialization order applies); hot loops fetch them once.
    static const ExpZiggurat& get() noexcept {
        static const ExpZiggurat tables = build();
        return tables;
    }

private:
    static ExpZiggurat build() noexcept;
};

/// xoshiro256** engine. Satisfies std::uniform_random_bit_generator, so it
/// can drive the standard <random> distributions as well as the bespoke
/// samplers below.
class Rng {
public:
    using result_type = std::uint64_t;

    /// Seeds the state via splitmix64 so that low-entropy seeds (0, 1, 2...)
    /// still yield well-mixed streams.
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~result_type{0}; }

    /// Next 64 uniformly random bits.
    result_type operator()() noexcept {
        const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);
        return result;
    }

    /// Derives an independent child generator. Implemented as the xoshiro
    /// long-jump applied to a copy, then perturbed by a fresh draw, so parent
    /// and child streams do not overlap for any practical horizon.
    Rng split() noexcept;

    /// Derives the `stream_id`-th independent child stream *without*
    /// consuming draws from the parent: the current state and the stream id
    /// are hashed through splitmix64 into a fresh, well-mixed seed state.
    /// Unlike repeated `split()`, fork is O(1) random access — fork(i) from
    /// the same parent state always yields the same child, and distinct ids
    /// yield statistically independent streams — which is what lets Monte
    /// Carlo replications and sharded runs be seeded by index instead of by
    /// a sequential dependency chain (or ad-hoc `seed + i` offsets).
    Rng fork(std::uint64_t stream_id) const noexcept;

    /// Uniform double in [0, 1): the top 53 bits of one draw.
    double uniform() noexcept { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }
    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) noexcept;
    /// Uniform integer in {0, ..., n-1}; n must be > 0.
    std::uint64_t uniform_below(std::uint64_t n) noexcept;
    /// Exponential variate with the given rate (mean 1/rate); rate must be > 0.
    /// Inversion: exactly one draw per call.
    double exponential(double rate) noexcept;
    /// Exp(1) variate from the ziggurat `zig`: one draw gives the layer (low
    /// 8 bits) and a 53-bit mantissa (top 53 bits), and mantissa·scale is the
    /// sample when it falls in the layer's inner rectangle; else a wedge test
    /// or, past r, r plus a fresh sample. Consumes ≥ 1 draw: deterministic
    /// given the stream, but not a fixed count per call.
    double standard_exponential(const ExpZiggurat& zig = ExpZiggurat::get()) noexcept {
        const std::uint64_t bits = (*this)();
        const ExpZiggurat::Layer& layer = zig.layers[bits & 0xff];
        const std::uint64_t mantissa = bits >> 11;
        if (mantissa < layer.inner) [[likely]] {
            return static_cast<double>(mantissa) * layer.scale;
        }
        return exponential_outside(zig, bits);
    }
    /// Standard normal variate (Box-Muller with cached spare).
    double normal() noexcept;
    /// Normal variate with the given mean and standard deviation.
    double normal(double mean, double stddev) noexcept;
    /// Poisson variate: Knuth's product-of-uniforms method below mean 30,
    /// recursive halving Pois(m) = Pois(m/2) + Pois(m/2) above, so the cost
    /// is O(mean). `mean` must be finite (a non-finite mean never stops
    /// halving); means <= 0 return 0.
    std::uint64_t poisson(double mean) noexcept;
    /// Binomial variate over n trials with success probability p in [0,1].
    std::uint64_t binomial(std::uint64_t n, double p) noexcept;
    /// Bernoulli trial with success probability p.
    bool bernoulli(double p) noexcept;

    /// Samples an index from an unnormalized non-negative weight vector.
    /// Returns weights.size()-1 if rounding pushes the scan past the end.
    std::size_t categorical(std::span<const double> weights) noexcept;

    /// Multinomial sample: distributes n trials over `probs` (which must sum
    /// to ~1) by sequential conditional binomials. O(probs.size()).
    std::vector<std::uint64_t> multinomial(std::uint64_t n, std::span<const double> probs) noexcept;
    /// Allocation-free multinomial over *unnormalized* non-negative weights
    /// summing to `total_weight` (> 0): Multinomial(n, w_j / W) into `counts`
    /// without materializing the normalized vector. This is how
    /// `sample_class_totals` (field/arrival_flow.hpp) draws the Aggregated
    /// clients of each (shard, class) cell from the cell weights n_c·σ_z.
    void multinomial(std::uint64_t n, std::span<const double> weights, double total_weight,
                     std::span<std::uint64_t> counts) noexcept;

    /// Fisher-Yates shuffle of an index permutation [0, n).
    std::vector<std::uint32_t> permutation(std::size_t n) noexcept;
    /// Allocation-free variant filling `out` with a shuffled [0, out.size())
    /// permutation; consumes the same draw sequence as permutation(n). Used
    /// by the minibatch shuffle of the batched PPO update.
    void permutation(std::span<std::uint32_t> out) noexcept;

private:
    std::array<std::uint64_t, 4> state_{};
    double spare_normal_ = 0.0;
    bool has_spare_normal_ = false;

    void long_jump() noexcept;
    /// `standard_exponential` once `bits` missed its layer's inner rectangle.
    double exponential_outside(const ExpZiggurat& zig, std::uint64_t bits) noexcept;
};

/// splitmix64 step; exposed for seeding utilities and tests.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

} // namespace mflb
