/// \file gillespie.hpp
/// Exact stochastic simulation of one finite-buffer queue over a decision
/// epoch — the per-queue kernel of the Section 2.1 finite system. Within an
/// epoch the paper's model freezes the arrival rate (clients routed on the
/// stale snapshot), so each queue is an independent M/M/1/B birth-death
/// CTMC; we sample exponential inter-event times exactly (Gillespie 1977),
/// counting blocked arrivals as drops.
/// \see field/transition.hpp for the matching deterministic mean-field step.
#pragma once

#include "support/rng.hpp"

#include <cstdint>
#include <vector>

namespace mflb {

/// Exact outcome of simulating one queue for `dt` time units.
struct QueueEpochResult {
    int final_state = 0;          ///< queue fill at the end of the epoch.
    std::uint64_t drops = 0;      ///< arrivals rejected at the full buffer.
    std::uint64_t arrivals = 0;   ///< accepted arrivals.
    std::uint64_t services = 0;   ///< completed services.
    double queue_length_area = 0; ///< ∫_0^dt z(τ) dτ (for mean-length metrics).
    double busy_time = 0.0;       ///< time with z(τ) > 0 (server utilization).
};

/// Simulates a single queue starting at fill `z0` with Poisson arrivals at
/// `arrival_rate`, exponential services at `service_rate`, buffer `buffer`,
/// over an epoch of length `dt`. Exact: samples every event (ziggurat clocks).
QueueEpochResult simulate_queue_epoch(int z0, double arrival_rate, double service_rate,
                                      int buffer, double dt, Rng& rng) noexcept;

/// Transient distribution oracle for tests: probability vector over
/// {0..buffer} after `dt` time units starting from `z0`, computed by
/// uniformization of the same birth-death generator (no sampling).
/// Declared here so simulator tests can cross-validate without linking the
/// mean-field library; implemented in terms of math/expm.
struct QueueTransientResult {
    std::vector<double> state_distribution; ///< P(z(dt) = z).
    double expected_drops = 0.0;            ///< E[drops over the epoch].
};
QueueTransientResult queue_transient_solution(int z0, double arrival_rate, double service_rate,
                                              int buffer, double dt);

} // namespace mflb
