/// \file finite_backend.hpp
/// The configuration and the public surface shared by the three simulators
/// of the Section 2.1 finite system — `FiniteSystem` (epoch-synchronous),
/// `DesSystem` (event-driven) and `ShardedDesSystem` (epoch-parallel) —
/// which are statistically identical by contract.
///
/// `FiniteBackend` defines that surface once: the conditioned reset, the
/// histogram shown to the policy, the policy / rule / router step entry
/// points with their guards (router-vs-rule misuse, finished episode, wrong
/// tuple space, rule not row-stochastic), a job-conservation check after
/// every epoch, both episode loops and the sojourn percentiles. A backend
/// supplies its constructor, `reset`, the epoch bodies behind the guards and
/// its telemetry extras. `make_backend` (core/evaluator.hpp) is the one
/// place that maps a `SimBackend` to a class.
#pragma once

#include "field/arrival_process.hpp"
#include "field/mfc_env.hpp"
#include "field/transition.hpp"
#include "queueing/router.hpp"
#include "queueing/service_distribution.hpp"
#include "queueing/system_base.hpp"
#include "support/rng.hpp"

#include <array>
#include <cstdint>
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

/// Base of the three finite-system backends (see file comment). Draw order
/// is the backends' own: the guards and the conservation check consume no
/// RNG draws, so every backend stays bit-identical to its epoch body.
class FiniteBackend : public SystemBase {
public:
    const FiniteSystemConfig& config() const noexcept { return config_; }
    const TupleSpace& tuple_space() const noexcept { return space_; }

    /// Draws initial queue states i.i.d. from ν_0, then samples λ_0 (the
    /// caller-RNG order every backend shares), then re-seeds the backend's
    /// own state (`reset_state`, which may draw further).
    void reset(Rng& rng);
    /// Like reset but with a fixed λ-state sequence (Theorem 1 conditioning).
    void reset_conditioned(std::vector<std::size_t> lambda_states, Rng& rng);

    /// Empirical distribution H_t^M over Z, eq. (2).
    std::vector<double> empirical_distribution() const;
    /// The distribution shown to the upper-level policy: exact H_t^M, or an
    /// estimate from `histogram_sample_size` uniformly sampled queues (§2.1).
    std::vector<double> observed_distribution(Rng& rng) const;

    /// One decision epoch: queries the policy on (observed H_t^M, λ_t), then
    /// steps with its rule. With a classical router configured the policy is
    /// ignored (forwards to step_router).
    virtual EpochStats step(const UpperLevelPolicy& policy, Rng& rng);
    /// One decision epoch under an explicit decision rule. Throws
    /// std::logic_error when a classical router is configured (use
    /// step_router) or the episode is over, and std::invalid_argument when
    /// `h` is on another tuple space or is not row-stochastic.
    EpochStats step_with_rule(const DecisionRule& h, Rng& rng);
    /// One decision epoch under the configured classical router (no policy
    /// involved); throws std::logic_error without one.
    EpochStats step_router(Rng& rng);

    /// Runs a full episode from the reset state, sojourn percentiles attached.
    EpisodeStats run_episode(const UpperLevelPolicy& policy, Rng& rng);
    /// Router-only episode (requires a classical router configured).
    EpisodeStats run_episode(Rng& rng);

    /// {p50, p95, p99} of every sojourn completed since reset, read off one
    /// exact-merge `LogHistogram` (track_sojourn only; zeros otherwise).
    virtual std::array<double, 3> sojourn_percentiles() const = 0;

protected:
    /// Checks `config` (errors name `backend`) and builds the shared state.
    FiniteBackend(FiniteSystemConfig config, const char* backend);

    /// Class name the guards' errors start with.
    virtual const char* name() const noexcept = 0;
    /// Re-seeds the backend's carried state after the shared reset draws.
    virtual void reset_state(Rng& rng) = 0;
    /// H_t^M into `out`, resized to |Z|.
    virtual void empirical_distribution_into(std::vector<double>& out) const = 0;
    /// Σ_j z_j, the backend's cheapest count, read around every epoch.
    virtual std::int64_t jobs_in_system() const noexcept = 0;
    /// Epoch bodies behind the guards; each ends with advance_epoch.
    virtual EpochStats rule_epoch(const DecisionRule& h, Rng& rng) = 0;
    virtual EpochStats router_epoch(Rng& rng) = 0;

    /// observed_distribution into a reusable buffer (identical draws).
    void observed_distribution_into(Rng& rng, std::vector<double>& out) const;
    /// Appends sojourn_p50/p95/p99 to an epoch row (track_sojourn only).
    void append_sojourn_telemetry(MetricsRow& row) const;
    /// Throws std::logic_error once the episode is over.
    void require_running() const;
    /// Throws std::invalid_argument unless every row of `h` is a distribution.
    void require_row_stochastic(const DecisionRule& h) const;
    /// Runs one epoch body and throws std::logic_error, naming the backend
    /// and the epoch, unless jobs after = jobs before + accepted − served.
    template <class Epoch>
    EpochStats conserving(Epoch&& epoch) {
        const int t = t_;
        const std::int64_t before = jobs_in_system();
        const EpochStats stats = epoch();
        check_conservation(t, before, stats);
        return stats;
    }

    FiniteSystemConfig config_;
    TupleSpace space_;
    EpochRouter router_;

private:
    void check_conservation(int epoch, std::int64_t jobs_before, const EpochStats& stats) const;
    EpisodeStats with_sojourn(EpisodeStats stats) const;
};

} // namespace mflb
