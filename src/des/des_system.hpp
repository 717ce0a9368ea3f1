/// \file des_system.hpp
/// Event-driven simulator of the Section 2.1 finite system — the same model
/// as `FiniteSystem` (N clients routing on stale d-samples every Δt, M
/// finite-buffer M/M/1/B queues, MMPP-modulated arrivals, drops at full
/// buffers), but simulated as a discrete-event system on a future event
/// list instead of per-queue Gillespie epochs.
///
/// Why a second backend: the epoch-synchronous simulator pays O(M) *RNG and
/// kernel work* per decision epoch even when most queues are idle, because
/// every queue runs its own exponential-clock loop each Δt. The DES pays
/// O(log M) per *event* (arrival / departure), so simulation cost is
/// proportional to the actual traffic — which is what makes fleets of 10⁵⁺
/// mostly-idle queues (10⁶ clients spread over many servers) tractable —
/// and, because every job is an individual event, it reports exact per-job
/// sojourn times and their p50/p95/p99, read off one log-bucketed
/// histogram (`SojournRecorder`, queueing/sojourn.hpp) to within 0.4%.
///
/// Event structure (slot ids in the `EventQueue`):
///  - slots 0..M-1 — *departure* of the job in service at queue j. Scheduled
///    when a queue becomes busy; service is exponential(α) and FIFO.
///  - slot M — the *aggregated arrival stream*. The superposition of all
///    per-queue Poisson arrival streams of eq. (5) is a single Poisson
///    process of rate M·λ_t whose points are thinned onto queues:
///      · Aggregated / PerClient: destination ∝ the epoch's client counts
///        C_j (C ~ Multinomial(N, p) drawn per state class exactly as in
///        `FiniteSystem`, or per-client sampling), via binary search on the
///        count prefix sums;
///      · InfiniteClients: each job samples d queues uniformly, reads their
///        *snapshot* states and applies the decision rule — the exact
///        event-level realization of the deterministic mean-field rates
///        λ_t(H^M, z) of Section 2.2 (Poisson thinning of eq. (18)-(19)).
///    At every decision epoch the stream is *rescheduled* (FEL cancellation
///    path): the modulated rate and the routing change, and memorylessness
///    makes redrawing the next arrival exact.
///
/// The per-epoch decision structure (policy queried on the stale snapshot,
/// λ-chain advanced once per epoch, conditioned replay for the Theorem 1
/// coupling) is inherited from `FiniteBackend`, so `DesSystem` is statistically
/// equivalent to `FiniteSystem` — pinned by tests/test_des_system.cpp.
///
/// Hot-path invariants: after construction/reset the event loop performs
/// zero heap allocations (all buffers are sized up front; the stale snapshot
/// is maintained by epoch-stamped copy-on-write instead of an O(M) copy per
/// epoch), verified by tests/test_hotpath_alloc.cpp. Instances are not
/// thread-safe; the Monte Carlo harness gives each replication its own.
#pragma once

#include "des/fel.hpp"
#include "queueing/finite_system.hpp"
#include "queueing/sojourn.hpp"
#include "support/rng.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace mflb {

/// Discrete-event backend for the finite system; accepts the exact same
/// configuration as `FiniteSystem` (all three client models are supported).
class DesSystem : public FiniteBackend {
public:
    explicit DesSystem(FiniteSystemConfig config);

    const FutureEventList& event_queue() const noexcept { return fel_; }

    std::array<double, 3> sojourn_percentiles() const override {
        if (!sojourn_) {
            return {};
        }
        return {sojourn_->p50(), sojourn_->p95(), sojourn_->p99()};
    }

protected:
    const char* name() const noexcept override { return "DesSystem"; }
    /// Rebuilds the incremental counts and seeds the FEL with the departure
    /// events of initially busy queues.
    void reset_state(Rng& rng) override;
    /// Maintained incrementally (O(1) per event), so this is O(|Z|) not O(M).
    void empirical_distribution_into(std::vector<double>& out) const override;
    std::int64_t jobs_in_system() const noexcept override { return total_jobs_; }
    /// One decision epoch [t·Δt, (t+1)·Δt): rebuilds the epoch's routing
    /// from the frozen snapshot, reschedules the arrival stream, then
    /// processes arrival/departure events in time order. Allocation-free in
    /// steady state.
    EpochStats rule_epoch(const DecisionRule& h, Rng& rng) override;
    /// The weight law from the epoch-start snapshot feeds the
    /// arrival-thinning prefix sums (round-robin: a cyclic per-arrival
    /// cursor instead).
    EpochStats router_epoch(Rng& rng) override;
    /// Registers the FEL operation counters (fel_schedules / fel_pops /
    /// fel_bucket_scans) with the session's metrics registry.
    void on_telemetry_attached() override;
    /// Queue-length histogram summary from the incremental state counts plus
    /// the sojourn percentiles (track_sojourn only).
    void append_epoch_telemetry(MetricsRow& row) override;

private:
    static constexpr int kNoEpoch = -1;

    /// Queue j's state at the start of the current epoch — the stale value
    /// clients observe. Copy-on-write: `saved_[j]` is valid iff queue j
    /// already changed during epoch `stamp_[j] == time()`.
    int snapshot_state(std::size_t j) const noexcept {
        return stamp_[j] == t_ ? saved_[j] : queues_[j];
    }
    /// Records queue j's pre-modification state on its first change this
    /// epoch; call before every queues_[j] update.
    void save_snapshot(std::size_t j) noexcept {
        if (stamp_[j] != t_) {
            stamp_[j] = t_;
            saved_[j] = queues_[j];
        }
    }

    /// Rebuilds the epoch's routing (client counts / nothing for
    /// InfiniteClients) and reschedules the arrival-stream event.
    void begin_epoch(const DecisionRule& h, Rng& rng);
    /// Router variant: weight law → thinning prefix sums (see step_router).
    void begin_epoch_router(Rng& rng);
    /// The event loop shared by the policy and router paths; `h` is null on
    /// the router path (only InfiniteClients per-job sampling reads it).
    EpochStats run_events(const DecisionRule* h, Rng& rng);
    /// Destination queue of one arriving job under the epoch's routing.
    std::size_t sample_destination(const DecisionRule* h, Rng& rng);
    /// One service time at queue j: `ServiceDistribution` sample divided by
    /// the queue's speed (1 when homogeneous). Exponential + homogeneous is
    /// exactly the legacy `rng.exponential(α)` draw — goldens stay bit-exact.
    double service_time(std::size_t j, Rng& rng) const noexcept {
        const double s = service_.sample(rng);
        return config_.server_speeds.empty() ? s : s / config_.server_speeds[j];
    }
    /// Advances the piecewise-constant area integrals to absolute time `t`.
    void advance_areas_to(double t) noexcept;

    void handle_arrival(const DecisionRule* h, double t, Rng& rng, EpochStats& stats);
    void handle_departure(std::size_t j, double t, Rng& rng, EpochStats& stats);

    ServiceDistribution service_;
    FutureEventList fel_;      ///< heap or calendar per config_.fel.
    std::size_t arrival_slot_; ///< = num_queues; slots below are departures.

    // Incremental system state (O(1) per event).
    std::vector<int> state_counts_; ///< M · H_t^M: queue count per state.
    std::int64_t total_jobs_ = 0;   ///< Σ_j z_j.
    std::size_t busy_queues_ = 0;   ///< #{j : z_j > 0}.

    // Stale-snapshot copy-on-write (see snapshot_state).
    std::vector<int> saved_;
    std::vector<int> stamp_;

    // Epoch-scoped routing workspace, sized at construction.
    std::vector<double> hist_;          ///< H over Z at epoch start.
    std::vector<double> g_;             ///< routing table g[k·|Z| + z].
    std::vector<int> tuple_;            ///< decode buffer (d).
    std::vector<double> suffix_;        ///< suffix products (d + 1).
    std::vector<double> class_weights_; ///< class-total weights (|Z|).
    std::vector<std::uint64_t> class_clients_; ///< class totals N_z (|Z|).
    ClassCountSampler classes_;         ///< per-class count draw (Aggregated).
    std::vector<std::uint64_t> counts_; ///< per-queue client counts (M).
    std::vector<double> cum_;           ///< count prefix sums (M).
    std::vector<double> weights_;       ///< router weight law (M, router mode).
    std::vector<int> sampled_;          ///< per-job sampled queues (d).
    std::vector<int> states_;           ///< their snapshot states (d).
    double total_weight_ = 0.0;         ///< prefix-sum total (= N).
    double arrival_rate_ = 0.0;         ///< aggregated rate M·λ_t.
    std::size_t rr_next_ = 0;           ///< round-robin arrival cursor.

    // Time accounting.
    double cursor_ = 0.0;     ///< last area-integration time point.
    double job_area_ = 0.0;   ///< ∫ Σ_j z_j dτ within the epoch.
    double busy_area_ = 0.0;  ///< ∫ #busy dτ within the epoch.

    // Per-job sojourn tracking (track_sojourn only). The 49 KB recorder is
    // allocated only when tracking, so untracked replications never fill it.
    JobRings jobs_;
    std::unique_ptr<SojournRecorder> sojourn_;

    // FEL telemetry: per-epoch deltas of the facade's lifetime counters,
    // published into the registry's serial lane at each epoch end.
    MetricsRegistry* fel_registry_ = nullptr;
    MetricsRegistry::Id fel_schedules_id_ = 0;
    MetricsRegistry::Id fel_pops_id_ = 0;
    MetricsRegistry::Id fel_scans_id_ = 0;
    FutureEventList::Stats fel_published_{};
};

} // namespace mflb
