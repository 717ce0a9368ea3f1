/// \file evaluator.hpp
/// Monte Carlo evaluation harness: runs n independent replications of an
/// episode (finite system or MFC limit), in parallel, and reports means with
/// the 95% confidence intervals plotted in Figures 4-6. Seeding is
/// deterministic per replication index, so results are independent of the
/// thread count.
#pragma once

#include "core/config.hpp"
#include "des/des_system.hpp"
#include "des/sharded_des_system.hpp"
#include "field/mfc_env.hpp"
#include "queueing/finite_system.hpp"
#include "support/statistics.hpp"
#include "support/thread_pool.hpp"

#include <cstdint>
#include <type_traits>
#include <vector>

namespace mflb {

/// One deterministically derived RNG per replication index (`Rng::fork`, an
/// O(1) random-access stream per index), so Monte Carlo results are
/// identical regardless of the thread count — and shardable by index.
std::vector<Rng> split_replication_rngs(std::uint64_t seed, std::size_t count);

/// Generic parallel rollout driver — the single replication harness behind
/// every evaluate_* entry point (and reusable by benches over any of the
/// SystemBase simulators): runs `episodes` independent replications of
/// `body(index, rng)` across `threads` workers (0 = all cores) and returns
/// the per-replication results in index order.
template <class Body>
auto run_replications(std::size_t episodes, std::uint64_t seed, std::size_t threads,
                      Body&& body) {
    std::vector<Rng> rngs = split_replication_rngs(seed, episodes);
    using Result = std::invoke_result_t<Body&, std::size_t, Rng&>;
    std::vector<Result> results(episodes);
    parallel_for(
        episodes, [&](std::size_t i) { results[i] = body(i, rngs[i]); }, threads);
    return results;
}

/// Aggregated outcome of repeated episode simulations.
struct EvaluationResult {
    ConfidenceInterval total_drops;        ///< Σ_t D_t per queue (Fig. 4-6 metric).
    ConfidenceInterval discounted_return;  ///< -Σ_t γ^t D_t.
    ConfidenceInterval mean_queue_length;  ///< time-averaged fill.
    ConfidenceInterval utilization;        ///< server busy fraction.
    std::size_t episodes = 0;
};

/// Evaluates `policy` on the finite N-client/M-queue system over `episodes`
/// independent replications. `threads` = 0 uses all cores.
EvaluationResult evaluate_finite(const FiniteSystemConfig& config, const UpperLevelPolicy& policy,
                                 std::size_t episodes, std::uint64_t seed,
                                 std::size_t threads = 0);

/// Per-job sojourn-time summary across DES replications: episode-level
/// means/percentiles (each episode's histogram percentiles, within 0.4% of
/// its exact sample quantiles) aggregated into 95% CIs. Only the
/// event-driven backends can report these.
struct SojournSummary {
    ConfidenceInterval mean;
    ConfidenceInterval p50;
    ConfidenceInterval p95;
    ConfidenceInterval p99;
};

/// Evaluates `policy` on the *event-driven* backend (`DesSystem`) — same
/// model and statistics as evaluate_finite, different simulator. When
/// `sojourn` is non-null, per-job sojourn tracking is enabled (regardless of
/// config.track_sojourn) and the percentile summary is filled in.
EvaluationResult evaluate_des(const FiniteSystemConfig& config, const UpperLevelPolicy& policy,
                              std::size_t episodes, std::uint64_t seed, std::size_t threads = 0,
                              SojournSummary* sojourn = nullptr);

/// Same contract on the *sharded* event-driven backend (`ShardedDesSystem`):
/// each replication runs its K shards epoch-parallel (config.threads), while
/// `threads` still fans out the replications themselves — the nested-use
/// guard of `parallel_for` serializes the inner level when both are active.
/// Per-episode sojourn percentiles come from the exact cross-shard histogram
/// merge, so they do not depend on K or on the merge order.
EvaluationResult evaluate_sharded_des(const FiniteSystemConfig& config,
                                      const UpperLevelPolicy& policy, std::size_t episodes,
                                      std::uint64_t seed, std::size_t threads = 0,
                                      SojournSummary* sojourn = nullptr);

/// Dispatches to evaluate_finite / evaluate_des / evaluate_sharded_des — the
/// `--backend` switch of mflb_cli and the figure benches. `sojourn` is
/// forwarded to the event-driven backends (and zero-filled by the finite
/// one, which cannot observe individual jobs).
EvaluationResult evaluate_backend(SimBackend backend, const FiniteSystemConfig& config,
                                  const UpperLevelPolicy& policy, std::size_t episodes,
                                  std::uint64_t seed, std::size_t threads = 0,
                                  SojournSummary* sojourn = nullptr);

/// Evaluates `policy` on the mean-field MDP (deterministic ν dynamics;
/// randomness only from the λ chain). Returns undiscounted total drops and
/// the discounted return of objective (31).
EvaluationResult evaluate_mfc(const MfcConfig& config, const UpperLevelPolicy& policy,
                              std::size_t episodes, std::uint64_t seed,
                              std::size_t threads = 0);

/// Evaluates both systems on *identical conditioned λ sequences* — the
/// coupling used to verify Theorem 1 numerically: returns the pairs
/// (J^{N,M}, J) so tests/benches can inspect |J - J^{N,M}| directly. The
/// finite system is simulated by `backend`; the λ path depends on `seed`
/// alone, so two backends evaluated with one seed share it.
struct CoupledEvaluation {
    ConfidenceInterval finite_drops;    ///< Σ_t D_t per queue, per episode.
    ConfidenceInterval finite_accepted; ///< accepted jobs per queue, per episode.
    double mean_field_drops = 0.0; ///< deterministic given the λ sequence.
    std::vector<std::size_t> lambda_sequence;
};
CoupledEvaluation evaluate_coupled(const FiniteSystemConfig& finite_config,
                                   const UpperLevelPolicy& policy, std::size_t episodes,
                                   std::uint64_t seed, std::size_t threads = 0,
                                   SimBackend backend = SimBackend::Finite);

} // namespace mflb
