/// \file system_base.hpp
/// Shared core of the finite simulators (unified simulation layer).
///
/// Every finite system in the paper and its extensions — `FiniteSystem` of
/// Section 2.1 and its event-driven twins (all three with `server_speeds`
/// and `sed-d` for the Section 5 heterogeneous servers) and the
/// power-of-d-with-memory `MemorySystem` — follows the same
/// synchronized-epoch skeleton: sample (or replay) the modulating
/// arrival chain λ_t of eq. (1), let the per-epoch kernel route clients and
/// evolve queues for Δt time units, accumulate epoch statistics, advance the
/// epoch clock. `SystemBase` owns exactly that skeleton — the λ-chain with
/// conditioned replay (Theorem 1 coupling), the queue-state vector, the
/// epoch clock, and the episode loop — so each simulator reduces to its
/// per-epoch kernel returning an `EpochStats`.
///
/// Determinism contract: the base consumes RNG draws in the same order the
/// pre-unification simulators did (λ_0 after the kernel's own reset draws,
/// λ advance after each epoch), so trajectories are bit-identical for a
/// fixed seed; tests/test_golden_trajectories.cpp pins this.
#pragma once

#include "field/arrival_process.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace mflb {

/// Statistics of a single decision epoch, aggregated over all M queues.
struct EpochStats {
    double drops_per_queue = 0.0;        ///< D_t^{N,M} of eq. (6).
    std::uint64_t dropped_packets = 0;   ///< raw count across queues.
    std::uint64_t accepted_packets = 0;  ///< arrivals that entered a buffer.
    std::uint64_t served_packets = 0;    ///< completed services.
    double mean_queue_length = 0.0;      ///< time-average over the epoch.
    double server_utilization = 0.0;     ///< busy-time fraction.
    double mean_sojourn = 0.0;           ///< mean sojourn of jobs completed
                                         ///< this epoch (track_sojourn only).
    std::uint64_t completed_jobs = 0;    ///< sojourn sample count.
};

/// Episode-level summary; `total_drops_per_queue` is the quantity plotted in
/// Figures 4-6 ("average/total packet drops" per queue over ≈500 time units).
struct EpisodeStats {
    double total_drops_per_queue = 0.0;
    double discounted_return = 0.0; ///< -Σ_t γ^t D_t.
    std::uint64_t dropped_packets = 0;
    std::uint64_t accepted_packets = 0;
    double mean_queue_length = 0.0; ///< averaged over epochs.
    double server_utilization = 0.0;
    double mean_sojourn = 0.0;      ///< job-weighted mean sojourn (track_sojourn).
    std::uint64_t completed_jobs = 0;
    /// Sojourn percentiles over the episode's completed jobs, filled by the
    /// `FiniteBackend` episode loop (0 unless track_sojourn is on).
    double sojourn_p50 = 0.0;
    double sojourn_p95 = 0.0;
    double sojourn_p99 = 0.0;
    std::vector<double> drops_per_epoch;
};

/// H_t^M (eq. (2)) from an incrementally maintained per-state queue count —
/// the O(|Z|) read-out shared by the event-driven backends. Resizes `out` to
/// |Z| (a no-op once warm).
void histogram_from_counts_into(std::span<const int> state_counts, std::size_t num_queues,
                                std::vector<double>& out);

/// `sample_size`-queue estimate of H_t^M (paper §2.1 partial information):
/// samples queues uniformly with replacement; one `uniform_below` draw per
/// sample (the draw count is part of the simulators' determinism contract).
void sampled_histogram_into(std::span<const int> queue_states, std::size_t num_states,
                            std::size_t sample_size, Rng& rng, std::vector<double>& out);

/// Folds per-epoch statistics into the episode summary — the single place
/// where the accumulation arithmetic (previously hand-duplicated in every
/// simulator's run_episode) lives.
class EpisodeAccumulator {
public:
    /// \param discount      γ weighting the per-epoch drops in the return.
    /// \param epochs_hint   expected epoch count (reserves drops_per_epoch).
    EpisodeAccumulator(double discount, std::size_t epochs_hint);

    void add(const EpochStats& epoch);
    /// Finalizes the per-epoch averages; call once, after the last add().
    EpisodeStats finish();

private:
    EpisodeStats stats_;
    double gamma_;
    double weight_ = 1.0;
    double length_sum_ = 0.0;
    double util_sum_ = 0.0;
    double sojourn_sum_ = 0.0;
};

/// Base of the synchronized-epoch simulators: owns the λ-chain (sampling,
/// stepping, conditioned replay), the queue-state vector, the epoch clock,
/// and the episode loop. Derived systems implement one decision epoch.
class SystemBase {
public:
    virtual ~SystemBase() = default;

    bool done() const noexcept { return t_ >= horizon_; }
    int time() const noexcept { return t_; }
    std::size_t lambda_state() const noexcept { return lambda_state_; }
    double lambda_value() const { return arrivals_.level(lambda_state_); }
    const ArrivalProcess& arrivals() const noexcept { return arrivals_; }
    double dt() const noexcept { return dt_; }
    int horizon() const noexcept { return horizon_; }
    /// Absolute time of the current decision epoch's boundaries, computed
    /// from the epoch index (drift-free — never accumulated). These are the
    /// barrier points of the epoch structure: `DesSystem` runs its event
    /// loop on [epoch_start_time, epoch_end_time), and the sharded backend's
    /// shard tasks advance their queues from epoch_start_time and
    /// synchronize exactly at these points.
    double epoch_start_time() const noexcept { return dt_ * static_cast<double>(t_); }
    double epoch_end_time() const noexcept { return dt_ * (static_cast<double>(t_) + 1.0); }
    std::size_t num_queues() const noexcept { return queues_.size(); }
    const std::vector<int>& queue_states() const noexcept { return queues_; }

    /// Attaches a telemetry session (non-owning; nullptr detaches). The
    /// episode loop then emits one `<backend>_epoch` row every
    /// `metrics_every` epochs, and the derived simulators arm their barrier
    /// spans on the session's tracer. Telemetry never consumes RNG draws:
    /// trajectories are bit-identical with it on or off.
    void set_telemetry(TelemetrySession* telemetry);
    TelemetrySession* telemetry() const noexcept { return telemetry_; }

protected:
    /// Validates and stores the shared epoch parameters; queues start empty.
    /// Throws std::invalid_argument on num_queues == 0, dt <= 0, horizon < 1.
    SystemBase(ArrivalProcess arrivals, double dt, int horizon, std::size_t num_queues);

    /// Restarts the epoch clock and samples λ_0 (one RNG draw). Derived
    /// resets draw their own initial queue states *before* calling this, to
    /// preserve the historical draw order.
    void reset_base(Rng& rng);

    /// Pins the λ path to a fixed state sequence (index per epoch), as in the
    /// Theorem 1 coupling; call after reset_base. Epochs beyond the sequence
    /// hold its last state. Throws on an empty sequence or out-of-range state.
    void condition_on(std::vector<std::size_t> lambda_states);

    /// Ends the current epoch: advances the clock and moves λ by its chain
    /// (one RNG draw) or by the conditioned replay (no draw).
    void advance_epoch(Rng& rng);

    /// The episode loop shared by every simulator: repeatedly invokes the
    /// per-epoch kernel `step_fn` (returning EpochStats) until done, and —
    /// when a telemetry session is attached — emits the per-epoch series
    /// row at the (serial) end of each epoch.
    template <class StepFn>
    EpisodeStats run_episode_loop(double discount, StepFn&& step_fn) {
        EpisodeAccumulator acc(discount,
                               static_cast<std::size_t>(horizon_ > t_ ? horizon_ - t_ : 0));
        while (!done()) {
            const int epoch = t_;
            const bool emit = telemetry_ != nullptr && telemetry_->metrics_enabled();
            // λ_t drives this epoch but the chain advances inside step_fn,
            // so read it before stepping (only when a row may be emitted).
            const double lambda_epoch = emit ? lambda_value() : 0.0;
            const EpochStats epoch_stats = step_fn();
            acc.add(epoch_stats);
            if (emit) {
                record_epoch_telemetry(epoch, lambda_epoch, epoch_stats);
            }
        }
        return acc.finish();
    }

    /// Derived hook: register backend metric ids / slot lanes on attach.
    virtual void on_telemetry_attached() {}
    /// Derived hook: append backend-specific fields (queue-length histogram
    /// summary, sojourn percentiles, barrier profile) to the epoch row.
    virtual void append_epoch_telemetry(MetricsRow& /*row*/) {}

    /// Serial barrier-phase bookkeeping behind the episode loop: merges the
    /// registry's slot lanes (fixed order), updates the base counters and
    /// gauges, and writes the epoch row every `metrics_every` epochs.
    /// `lambda_epoch` is λ_t as observed during the epoch (read pre-step).
    void record_epoch_telemetry(int epoch, double lambda_epoch, const EpochStats& stats);

    ArrivalProcess arrivals_;
    double dt_ = 1.0;
    int horizon_ = 1;
    std::vector<int> queues_;
    std::size_t lambda_state_ = 0;
    int t_ = 0;
    std::optional<std::vector<std::size_t>> conditioned_;

    TelemetrySession* telemetry_ = nullptr;
    const char* telemetry_series_ = "epoch"; ///< derived ctors override.

private:
    /// Registry ids of the base epoch metrics (valid while telemetry_ set).
    struct BaseMetricIds {
        MetricsRegistry::Id arrivals = 0;
        MetricsRegistry::Id dropped = 0;
        MetricsRegistry::Id served = 0;
        MetricsRegistry::Id lambda = 0;
        MetricsRegistry::Id qlen_mean = 0;
        MetricsRegistry::Id utilization = 0;
    };

    BaseMetricIds metric_ids_;
    MetricsRow telemetry_row_;
    std::uint64_t episodes_started_ = 0; ///< row "episode" field.
};

} // namespace mflb
