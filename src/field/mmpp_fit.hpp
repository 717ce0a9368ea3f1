/// \file mmpp_fit.hpp
/// Estimating the arrival modulation of eq. (1) — the Markov-modulated
/// Poisson arrival rate λ_t — from observed traffic. The paper remarks that
/// the modulation "could be estimated from a real system"; this module
/// provides that estimator so the pipeline runs end-to-end from a traffic
/// trace to a trained policy (see examples/trace_to_policy.cpp).
///
/// Model: per decision epoch t, the total number of observed arrivals is
///     y_t ~ Poisson(M · λ_{s_t} · Δt),
/// where s_t follows a hidden K-state Markov chain — a Poisson hidden Markov
/// model. `fit_arrival_process` runs Baum-Welch (EM) with scaled
/// forward-backward recursions and returns both the fitted ArrivalProcess
/// and diagnostics (log-likelihood trace, responsibilities).
#pragma once

#include "field/arrival_process.hpp"

#include <cstdint>
#include <vector>

namespace mflb {

/// EM configuration for the Poisson-HMM fit.
struct MmppFitConfig {
    std::size_t num_states = 2;   ///< K hidden levels.
    std::size_t max_iterations = 200;
    double tolerance = 1e-8;      ///< stop when log-likelihood gain is below.
    std::uint64_t seed = 1;       ///< initialization seed.
};

/// Result of the EM fit.
struct MmppFitResult {
    std::vector<double> levels;       ///< fitted λ per hidden state (sorted desc).
    Matrix transition;                ///< fitted row-stochastic chain.
    std::vector<double> initial;      ///< fitted initial distribution.
    std::vector<double> log_likelihood_trace; ///< per EM iteration.
    std::size_t iterations = 0;

    /// Converts to the library's ArrivalProcess (levels must be positive).
    ArrivalProcess to_arrival_process() const;
};

/// Fits a K-state Poisson-HMM to per-epoch arrival counts `counts`, where
/// the Poisson mean of state k is `num_queues * level_k * dt`. Requires at
/// least 2 observations. EM is initialized from quantile-spread levels with
/// a sticky transition prior, seeded by `config.seed`. Throws
/// std::invalid_argument unless `num_queues` and `dt` are finite and > 0.
MmppFitResult fit_arrival_process(std::span<const std::uint64_t> counts, double num_queues,
                                  double dt, const MmppFitConfig& config = {});

/// Generates a synthetic per-epoch arrival-count trace from a known process
/// (for tests and demos): counts_t ~ Poisson(M · λ_{s_t} · Δt). Same
/// argument checks as `fit_arrival_process`.
std::vector<std::uint64_t> sample_arrival_counts(const ArrivalProcess& process,
                                                 double num_queues, double dt,
                                                 std::size_t epochs, Rng& rng);

} // namespace mflb
