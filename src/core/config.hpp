/// \file config.hpp
/// Experiment configuration mirroring the paper's Table 1 (system) and
/// Table 2 (PPO). One struct resolves into the per-module configs so every
/// bench/example derives its setup from the same source of truth.
#pragma once

#include "field/arrival_process.hpp"
#include "field/mfc_env.hpp"
#include "queueing/finite_system.hpp"
#include "rl/ppo.hpp"
#include "support/table.hpp"

#include <cstdint>
#include <string>
#include <string_view>

namespace mflb {

/// Which finite-system simulator realizes the model (same statistics and
/// the same `FiniteBackend` surface, different cost profiles — see
/// docs/ARCHITECTURE.md "Epoch engine" / "Event-driven backend");
/// `make_backend` (core/evaluator.hpp) builds the class and picks K:
///  - `Finite`     — the epoch engine `FiniteSystem` at K = 1: one inline
///    shard of per-queue Gillespie loops every Δt, skipping idle queues
///    geometrically under InfiniteClients.
///  - `Des`        — event-driven `DesSystem`: future-event-list simulation;
///    cost proportional to traffic.
///  - `ShardedDes` — the same engine at K = `shards` (8 when 0): the M
///    queues partitioned into K shards that run the per-queue epoch kernel
///    lock-free in parallel between decision epochs; deterministic for
///    fixed (seed, K) regardless of thread count.
enum class SimBackend {
    Finite,
    Des,
    ShardedDes,
};

/// "finite" / "des" / "sharded-des".
std::string_view backend_name(SimBackend backend) noexcept;
/// Inverse of backend_name; throws std::invalid_argument naming the options.
SimBackend parse_backend(std::string_view name);

/// Table 1 of the paper; defaults are the paper's values.
struct ExperimentConfig {
    double dt = 1.0;                  ///< Δt ∈ [1, 10].
    QueueParams queue{5, 1.0};        ///< B = 5, α = 1.
    double lambda_high = 0.9;         ///< λ_h.
    double lambda_low = 0.6;          ///< λ_l.
    std::uint64_t num_clients = 10000;///< N ∈ [10^3, 10^6].
    std::size_t num_queues = 100;     ///< M ∈ [10^2, 10^3].
    int d = 2;                        ///< accessible queues per client.
    std::size_t monte_carlo_runs = 100; ///< n.
    /// D, cost per dropped job (Table 1). The objective counts drops
    /// directly (unit penalty); other values uniformly scale reported costs
    /// and never change policy orderings, so this field is informational.
    double drop_penalty = 1.0;
    int train_horizon = 500;          ///< T (training episode length).
    double eval_total_time = 500.0;   ///< T_e · Δt ≈ 500 time units.
    double discount = 0.99;           ///< γ (Table 2, used by both).
    ClientModel client_model = ClientModel::Aggregated;
    /// Partial information (paper §2.1 remark): K sampled queues used to
    /// estimate H^M for the upper-level policy; 0 = exact histogram.
    std::size_t histogram_sample_size = 0;
    /// Simulator realizing the finite system (`evaluate_backend` dispatches
    /// on this; the `--backend` CLI/bench flag overrides it).
    SimBackend backend = SimBackend::Finite;
    /// Queue shards K for the sharded-des backend (0 = 8, clamped to M);
    /// part of the result-determining (seed, K) pair. The finite backend
    /// always runs one shard and the des backend none.
    std::size_t shards = 0;
    /// Future-event-list implementation for the `des` backend (heap or
    /// calendar; both yield bit-identical episodes — the `--fel` CLI/bench
    /// flag overrides it). Ignored by the finite and sharded-des backends.
    FelKind fel = FelKind::Calendar;
    /// Worker threads for the sharded-des epoch-parallel phase and the
    /// default for Monte Carlo replication fan-out (0 = all hardware
    /// threads). Never changes results (`--threads` CLI/bench flag).
    std::size_t threads = 0;
    /// Worker threads for the training fan-outs — PPO rollout slots, the
    /// PPO minibatch update and CEM population evaluation (0 = all hardware
    /// threads). Never changes results (`--train-threads` CLI/bench flag).
    std::size_t train_threads = 0;
    /// K parallel rollout environments for PPO training; part of the
    /// result-determining (seed, K) pair (`--num-envs` CLI/bench flag).
    std::size_t num_envs = 1;
    /// Routing discipline: `Policy` (default) is the decision-rule path;
    /// classical kinds (random, round-robin, jsq, jsq-d, sed-d, sq-stale)
    /// bypass the upper-level policy entirely (`--router` CLI/bench flag).
    RouterSpec router{};
    /// Service-time law (exponential, deterministic, hyperexp, pareto), mean
    /// 1/α for every kind (`--service-dist` CLI/bench flag).
    ServiceConfig service{};
    /// Per-queue relative server speeds (empty = homogeneous; `sed-d` routes
    /// on them). Resolved verbatim into `FiniteSystemConfig::server_speeds`.
    std::vector<double> server_speeds;
    /// Telemetry outputs (--metrics-out/--metrics-every/--trace-out CLI
    /// flags): the entry point builds one `TelemetrySession` from this and
    /// hands its pointer to the simulator/trainer configs. Both paths empty
    /// (the default) = telemetry fully disabled.
    TelemetryConfig telemetry{};

    /// T_e = nearest integer to eval_total_time / Δt (paper, Section 4).
    int eval_horizon() const noexcept;

    ArrivalProcess arrivals() const;
    /// MFC MDP with the *training* horizon T.
    MfcConfig mfc(bool eval_horizon_instead = false) const;
    /// Finite-system simulation with the evaluation horizon T_e.
    FiniteSystemConfig finite_system() const;

    /// Renders the resolved parameters as the paper's Table 1.
    Table to_table() const;
};

/// Renders PPO hyperparameters as the paper's Table 2.
Table ppo_config_table(const rl::PpoConfig& config);

} // namespace mflb
