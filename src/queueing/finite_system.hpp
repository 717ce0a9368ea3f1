/// \file finite_system.hpp
/// The finite N-client / M-queue system of Section 2.1, simulated exactly per
/// Algorithm 1 of the paper: at every decision epoch all clients observe the
/// same stale snapshot of queue states, each samples d queues uniformly at
/// random, routes its job stream according to the decision rule h_t produced
/// by the upper-level policy, and every queue then evolves as an independent
/// birth-death CTMC for Δt time units at the frozen arrival rate (5).
///
/// Three client models are provided:
///  - `PerClient`        — literal Algorithm 1, O(N) per epoch;
///  - `Aggregated`       — exact O(|Z|^d·d + M) reformulation: client
///    destinations are conditionally i.i.d. given the snapshot, so the
///    per-queue client counts are Multinomial(N, p), with p_j = σ_{z_j}/M in
///    closed form and constant within each state class. The counts are drawn
///    per class (`sample_class_totals`, then `ClassCountSampler`): exact, and
///    statistically identical to PerClient (tested), but cost is independent
///    of N — this is how N = 10^6 runs are exact and fast;
///  - `InfiniteClients`  — the N → ∞ intermediate system of Section 2.2:
///    per-queue rates become the deterministic λ_t(H^M, z_j) of the proof of
///    Theorem 1, while queues remain stochastic.
///
/// Built on `FiniteBackend` (λ-chain, step guards, episode loop, stats
/// accumulation); this class contributes only the per-epoch routing/queue
/// kernel. The kernel is allocation-free in steady state: every per-step
/// buffer (the g table, tuple decode, prefix/suffix products, class totals
/// and the class sampler's tables, client counts, and rate vector) lives in a
/// workspace sized at construction, so `step_with_rule` performs zero heap
/// allocations after the first step.
/// Consequence: a FiniteSystem instance must not be shared across threads
/// (the Monte Carlo harness gives each replication its own instance).
#pragma once

#include "field/arrival_flow.hpp"
#include "queueing/finite_backend.hpp"
#include "queueing/gillespie.hpp"
#include "queueing/sojourn.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace mflb {

/// Per-epoch tallies of a run of per-queue kernels, summed in queue order:
/// the packet counters plus the floating-point sums the epoch statistics
/// divide out.
struct QueueTally {
    std::uint64_t dropped = 0;
    std::uint64_t accepted = 0;
    std::uint64_t served = 0;
    std::uint64_t completed = 0; ///< jobs whose sojourn was measured.
    double area = 0.0;           ///< Σ_j ∫ z_j dτ.
    double busy = 0.0;           ///< Σ_j ∫ 1{z_j > 0} dτ.
    double sojourn_sum = 0.0;    ///< Σ sojourns of the completed jobs.

    /// Epoch statistics of `num_queues` queues over an epoch of length `dt`.
    EpochStats epoch_stats(std::size_t num_queues, double dt) const;
};

/// The exact per-queue epoch kernel of the Section 2.1 system behind one
/// dispatch: the exponential Gillespie kernel, its sojourn variant when
/// `track_sojourn` is on, or the general-service kernel for non-exponential
/// laws and heterogeneous speeds. It owns the state those kernels carry
/// across epochs — each queue's FIFO arrival stamps and the completion clock
/// of its job in service — so `FiniteSystem` and the shard tasks of
/// `ShardedDesSystem` (which touch disjoint queues) draw and tally alike.
class QueueKernel {
public:
    /// `config` must be a constructed backend's (checked) config.
    explicit QueueKernel(const FiniteSystemConfig& config);

    /// True when the general-service kernel runs (non-exponential law or
    /// heterogeneous speeds); the exponential kernels keep the goldens.
    bool general() const noexcept { return general_; }

    /// Re-seeds the carried state for the fleet `queues`: job rings holding
    /// z_j jobs stamped 0 (track_sojourn), idle completion clocks (general
    /// service). Draws nothing.
    void reset(std::span<const int> queues);
    /// General service only: draws the completion time of the job in
    /// service at every busy queue in [begin, end), in queue order.
    void start_service(std::span<const int> queues, std::size_t begin, std::size_t end,
                       Rng& rng);

    /// Advances queue j from fill `z` over [t0, t0 + dt) under Poisson
    /// arrivals at `rate`, adds the outcome to `tally` (and completed
    /// sojourns to `recorder` when non-null), and returns the final fill.
    int advance(std::size_t j, int z, double rate, double t0, double dt, Rng& rng,
                QueueTally& tally, SojournRecorder* recorder = nullptr);
    /// Idle queue j whose first arrival of the epoch is at absolute time `t`:
    /// admits that job, then advances from fill 1 over [t, t + rest). Exact
    /// by memorylessness — the idle thinning of `ShardedDesSystem`.
    int advance_from_arrival(std::size_t j, double rate, double t, double rest, Rng& rng,
                             QueueTally& tally, SojournRecorder* recorder = nullptr);

private:
    double speed(std::size_t j) const noexcept {
        return speeds_.empty() ? 1.0 : speeds_[j];
    }

    ServiceDistribution service_;
    std::vector<double> speeds_; ///< per-queue server speeds; empty = all 1.
    double service_rate_;
    int buffer_;
    bool track_sojourn_;
    bool general_;
    JobRings jobs_;              ///< per-queue FIFO timestamps (track_sojourn).
    /// Absolute completion time of the job in service at queue j (+inf when
    /// idle), carried across epochs (general service only).
    std::vector<double> next_completion_;
};

/// Exact simulator of the finite (or infinite-client) queuing system.
class FiniteSystem : public FiniteBackend {
public:
    explicit FiniteSystem(FiniteSystemConfig config);

    std::array<double, 3> sojourn_percentiles() const override;

    /// Per-queue arrival rates computed for the *current* snapshot under `h`
    /// — exposed for tests validating eq. (5) and its aggregation.
    std::vector<double> compute_queue_rates(const DecisionRule& h, Rng& rng) const;

protected:
    const char* name() const noexcept override { return "FiniteSystem"; }
    void reset_state(Rng& rng) override;
    void empirical_distribution_into(std::vector<double>& out) const override;
    std::int64_t jobs_in_system() const noexcept override;
    /// Routes on `h` (allocation-free in steady state, see file comment),
    /// then advances every queue.
    EpochStats rule_epoch(const DecisionRule& h, Rng& rng) override;
    EpochStats router_epoch(Rng& rng) override;
    /// Queue-length histogram summary of the current snapshot (empty/full
    /// fractions, max occupied state) plus the sojourn percentiles
    /// (track_sojourn only) — the finite backend's epoch-row extras.
    void append_epoch_telemetry(MetricsRow& row) override;

private:
    /// Reusable per-step buffers; sizes are fixed at construction so the
    /// step path never touches the heap. Mutable because the const
    /// rate-computation helpers (exposed for tests) share them; instances
    /// are single-threaded by contract.
    struct Workspace {
        std::vector<double> hist;          ///< H_t^M over Z.
        std::vector<double> g;             ///< g[k * |Z| + z] routing table.
        std::vector<int> tuple;            ///< tuple decode buffer (d).
        std::vector<double> suffix;        ///< suffix products (d + 1).
        std::vector<int> state_counts;     ///< queues per state (|Z|, Aggregated).
        std::vector<double> class_weights; ///< class-total weights (|Z|, Aggregated).
        std::vector<std::uint64_t> class_clients; ///< class totals N_z (|Z|, Aggregated).
        ClassCountSampler classes;         ///< per-class count draw (Aggregated).
        std::vector<std::uint64_t> counts; ///< per-queue client counts (M).
        std::vector<int> sampled;          ///< per-client sampled queues (d).
        std::vector<int> states;           ///< their snapshot states (d).
        std::vector<double> rates;         ///< per-queue arrival rates (M).
        std::vector<double> weights;       ///< router weight law (M, router mode).
        ArrivalFlow flow;                  ///< InfiniteClients rate buffers.
    };

    /// Fills ws_.counts with the Aggregated client counts, Multinomial(N, p)
    /// drawn per state class.
    void sample_aggregated_counts(const DecisionRule& h, Rng& rng) const;
    /// Fills ws_.rates with the per-queue arrival rates of eq. (5).
    void compute_queue_rates_into(const DecisionRule& h, Rng& rng) const;
    /// Fills ws_.rates with M·λ_t·w_j/Σw from the router's weight law.
    void compute_router_rates_into();
    /// Shared epoch tail: per-queue kernels on ws_.rates + epoch accounting.
    EpochStats simulate_epoch_from_rates(Rng& rng);

    QueueKernel kernel_;
    double clock_ = 0.0;              ///< absolute simulation time.
    mutable Workspace ws_;
    /// Completed sojourns; allocated only when track_sojourn is on, so the
    /// (49 KB) histogram costs nothing otherwise.
    std::unique_ptr<SojournRecorder> sojourn_;
};

} // namespace mflb
