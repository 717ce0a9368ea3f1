/// \file evaluator.hpp
/// Monte Carlo evaluation harness: runs n independent replications of an
/// episode (finite system or MFC limit), in parallel, and reports means with
/// the 95% confidence intervals plotted in Figures 4-6. Seeding is
/// deterministic per replication index, so results are independent of the
/// thread count.
#pragma once

#include "core/config.hpp"
#include "field/mfc_env.hpp"
#include "queueing/finite_backend.hpp"
#include "support/statistics.hpp"
#include "support/thread_pool.hpp"

#include <cstdint>
#include <memory>
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

/// The one place that maps a `SimBackend` to its simulator class
/// (`FiniteSystem`, `DesSystem` or `ShardedDesSystem`).
std::unique_ptr<FiniteBackend> make_backend(SimBackend backend, FiniteSystemConfig config);

/// Aggregated outcome of repeated episode simulations.
struct EvaluationResult {
    ConfidenceInterval total_drops;        ///< Σ_t D_t per queue (Fig. 4-6 metric).
    ConfidenceInterval discounted_return;  ///< -Σ_t γ^t D_t.
    ConfidenceInterval mean_queue_length;  ///< time-averaged fill.
    ConfidenceInterval utilization;        ///< server busy fraction.
    /// Per-job sojourn times (config.track_sojourn): each episode's
    /// job-weighted mean and histogram percentiles (within 0.4% of its exact
    /// sample quantiles), over the episodes that completed a job.
    ConfidenceInterval sojourn_mean;
    ConfidenceInterval sojourn_p50;
    ConfidenceInterval sojourn_p95;
    ConfidenceInterval sojourn_p99;
    std::size_t episodes = 0;
};

/// Evaluates `policy` on the finite N-client/M-queue system, simulated by
/// `backend`, over `episodes` independent replications (`threads` = 0 uses
/// all cores). The sharded backend also runs its K shards epoch-parallel
/// (config.threads); the nested-use guard of `parallel_for` serializes the
/// inner level while the replications fan out.
EvaluationResult evaluate_backend(SimBackend backend, const FiniteSystemConfig& config,
                                  const UpperLevelPolicy& policy, std::size_t episodes,
                                  std::uint64_t seed, std::size_t threads = 0);

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
