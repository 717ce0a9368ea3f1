/// \file rng.hpp
/// Deterministic, splittable pseudo-random number generation for simulations.
///
/// All stochastic components of the library take an explicit `Rng&` so that
/// every experiment is reproducible from a single seed. The generator is
/// xoshiro256** (Blackman & Vigna), seeded through splitmix64; `split()`
/// derives statistically independent child streams, which is how the Monte
/// Carlo sweep hands one generator to each replication (and each worker
/// thread) without sharing state.
/// \see core/evaluator.hpp, whose thread-count-independent results rest on
/// this per-replication seeding contract.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace mflb {

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
    result_type operator()() noexcept;

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

    /// Uniform double in [0, 1).
    double uniform() noexcept;
    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) noexcept;
    /// Uniform integer in {0, ..., n-1}; n must be > 0.
    std::uint64_t uniform_below(std::uint64_t n) noexcept;
    /// Exponential variate with the given rate (mean 1/rate); rate must be > 0.
    double exponential(double rate) noexcept;
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
};

/// splitmix64 step; exposed for seeding utilities and tests.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

} // namespace mflb
