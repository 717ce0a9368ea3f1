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
/// Built on `SystemBase` (λ-chain, episode loop, stats accumulation); this
/// class contributes only the per-epoch routing/queue kernel. The kernel is
/// allocation-free in steady state: every per-step buffer (the g table,
/// tuple decode, prefix/suffix products, class totals and the class sampler's
/// tables, client counts, and rate vector) lives in a workspace sized at
/// construction, so
/// `step_with_rule` performs zero heap allocations after the first step.
/// Consequence: a FiniteSystem instance must not be shared across threads
/// (the Monte Carlo harness gives each replication its own instance).
#pragma once

#include "field/arrival_flow.hpp"
#include "field/arrival_process.hpp"
#include "field/mfc_env.hpp"
#include "field/transition.hpp"
#include "queueing/gillespie.hpp"
#include "queueing/router.hpp"
#include "queueing/service_distribution.hpp"
#include "queueing/sojourn.hpp"
#include "queueing/system_base.hpp"
#include "support/rng.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace mflb {

/// How client routing decisions are realized each epoch.
enum class ClientModel {
    PerClient,       ///< sample x_i, u_i for every client i = 1..N.
    Aggregated,      ///< exact multinomial aggregation of client choices.
    InfiniteClients, ///< deterministic mean-field rates (N = ∞, M finite).
};

/// Which future event list powers `DesSystem`'s hot loop. Both produce the
/// *exact same* event order (and hence bit-identical episodes): the calendar
/// queue keeps within-bucket events in (time, id) order, so the pop sequence
/// matches the heap's tie-broken total order event for event. See
/// des/calendar_queue.hpp; `FiniteSystem` and `ShardedDesSystem` ignore it.
enum class FelKind {
    Heap,     ///< indexed binary min-heap: O(log n) per operation.
    Calendar, ///< calendar queue: amortized O(1) schedule/pop/cancel.
};

/// Configuration of the finite system (defaults = Table 1).
struct FiniteSystemConfig {
    QueueParams queue{};        ///< B = 5, α = 1.
    int d = 2;                  ///< sampled queues per client.
    double dt = 1.0;            ///< synchronization delay Δt.
    ArrivalProcess arrivals = ArrivalProcess::paper_two_state();
    std::uint64_t num_clients = 10000; ///< N.
    std::size_t num_queues = 100;      ///< M.
    int horizon = 500;                 ///< T_e decision epochs.
    double discount = 0.99;            ///< γ for discounted returns.
    ClientModel client_model = ClientModel::Aggregated;
    std::vector<double> nu0;           ///< initial per-queue state law; empty = δ_0.
    /// Track exact per-job sojourn times (FIFO timestamps per queue).
    bool track_sojourn = false;
    /// Partial information (paper §2.1 remark): if > 0, the upper-level
    /// policy sees an *estimate* of H_t^M built from this many uniformly
    /// sampled queues instead of the exact histogram. 0 = exact.
    std::size_t histogram_sample_size = 0;
    /// Sharded backend (`ShardedDesSystem`) only: number of
    /// queue shards K (0 = min(8, num_queues)). Results are a function of
    /// (seed, shards); the other backends ignore it.
    std::size_t shards = 0;
    /// Sharded backend only: worker threads for the epoch-parallel phase
    /// (0 = all hardware threads). Never affects results, only wall clock.
    std::size_t threads = 0;
    /// `DesSystem` only: future-event-list implementation for the event
    /// loop. Both kinds pop events in the identical (time, id) order, so
    /// episodes are bit-identical; `Calendar` is amortized O(1) per event
    /// and the default, `Heap` is the O(log n) baseline (still fastest for
    /// tiny fleets). `FiniteSystem` and `ShardedDesSystem` ignore it.
    FelKind fel = FelKind::Calendar;
    /// Routing discipline. `Policy` (default) is the paper's decision-rule
    /// path; any classical kind makes the backends ignore the upper-level
    /// policy and route at the job-stream level (see queueing/router.hpp).
    RouterSpec router{};
    /// Service-time law, mean 1/queue.service_rate for every kind so the
    /// offered load is comparable across laws (queueing/service_distribution.hpp).
    ServiceConfig service{};
    /// Per-queue relative server speeds (heterogeneity): queue j serves at
    /// rate speed_j · α, i.e. its service times are sample / speed_j. Empty
    /// (default) = homogeneous; otherwise one positive entry per queue.
    std::vector<double> server_speeds;
    /// Optional telemetry session (non-owning; nullptr = fully disabled).
    /// Every backend constructed from this config attaches to it: the
    /// episode loop emits per-epoch series rows and the barrier phases emit
    /// tracer spans. See support/telemetry.hpp for the determinism contract.
    TelemetrySession* telemetry = nullptr;
};

/// Returns `config` after checking what every finite-system backend
/// (`FiniteSystem`, `DesSystem`, `ShardedDesSystem`) needs before it sizes
/// anything — queue.buffer >= 1, at least one client for the finite-N
/// models, one finite positive `server_speeds` entry per queue (or none),
/// one `nu0` entry per state — and filling the default ν_0 = δ_0 when `nu0`
/// is empty. Throws std::invalid_argument naming `backend` and the bad
/// field. Each backend calls it first, in its base initializer, whatever
/// `track_sojourn` is set to; `SystemBase` checks M, Δt and the horizon.
FiniteSystemConfig& checked_config(FiniteSystemConfig& config, const char* backend);

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
    /// `config` must have passed `checked_config`.
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
class FiniteSystem : public SystemBase {
public:
    explicit FiniteSystem(FiniteSystemConfig config);

    const FiniteSystemConfig& config() const noexcept { return config_; }
    const TupleSpace& tuple_space() const noexcept { return space_; }

    /// Draws initial queue states i.i.d. from ν_0 and samples λ_0.
    void reset(Rng& rng);
    /// Like reset but with a fixed λ-state sequence (Theorem 1 conditioning).
    void reset_conditioned(std::vector<std::size_t> lambda_states, Rng& rng);

    /// Empirical distribution H_t^M over Z, eq. (2).
    std::vector<double> empirical_distribution() const;

    /// The distribution shown to the upper-level policy: exact H_t^M, or an
    /// estimate from `histogram_sample_size` sampled queues (paper §2.1).
    std::vector<double> observed_distribution(Rng& rng) const;

    /// One decision epoch: query the policy on (H_t^M, λ_t), route clients,
    /// simulate all queues for Δt, advance λ. With a classical router
    /// configured the policy is ignored and this forwards to step_router.
    EpochStats step(const UpperLevelPolicy& policy, Rng& rng);
    /// Same with an explicit decision rule (skips the policy query).
    /// Allocation-free in steady state (see file comment). Throws
    /// std::logic_error when a classical router is configured — use
    /// step_router — and std::invalid_argument when `h` is not row-stochastic.
    EpochStats step_with_rule(const DecisionRule& h, Rng& rng);
    /// One decision epoch under the configured classical router (no policy
    /// involved); requires `config().router.kind != RouterKind::Policy`.
    EpochStats step_router(Rng& rng);

    /// Runs a full episode from reset state; accumulates per-epoch stats.
    EpisodeStats run_episode(const UpperLevelPolicy& policy, Rng& rng);
    /// Router-only episode (requires a classical router configured).
    EpisodeStats run_episode(Rng& rng);

    /// Per-queue arrival rates computed for the *current* snapshot under `h`
    /// — exposed for tests validating eq. (5) and its aggregation.
    std::vector<double> compute_queue_rates(const DecisionRule& h, Rng& rng) const;

protected:
    /// Queue-length histogram summary of the current snapshot (empty/full
    /// fractions, max occupied state) — the finite backend's epoch-row extras.
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

    void fill_empirical(std::vector<double>& hist) const;
    /// Fills ws_.counts with the Aggregated client counts, Multinomial(N, p)
    /// drawn per state class.
    void sample_aggregated_counts(const DecisionRule& h, Rng& rng) const;
    /// Fills ws_.rates with the per-queue arrival rates of eq. (5).
    void compute_queue_rates_into(const DecisionRule& h, Rng& rng) const;
    /// Fills ws_.rates with M·λ_t·w_j/Σw from the router's weight law.
    void compute_router_rates_into();
    /// Shared epoch tail: per-queue kernels on ws_.rates + epoch accounting.
    EpochStats simulate_epoch_from_rates(Rng& rng);

    FiniteSystemConfig config_;
    TupleSpace space_;
    EpochRouter router_;
    QueueKernel kernel_;
    double clock_ = 0.0;              ///< absolute simulation time.
    mutable Workspace ws_;
};

} // namespace mflb
