#include "core/evaluator.hpp"

namespace mflb {

std::vector<Rng> split_replication_rngs(std::uint64_t seed, std::size_t count) {
    const Rng base(seed);
    std::vector<Rng> rngs;
    rngs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        rngs.push_back(base.fork(i));
    }
    return rngs;
}

namespace {

MfcConfig mfc_from_finite(const FiniteSystemConfig& config) {
    MfcConfig mfc;
    mfc.queue = config.queue;
    mfc.d = config.d;
    mfc.dt = config.dt;
    mfc.arrivals = config.arrivals;
    mfc.horizon = config.horizon;
    mfc.discount = config.discount;
    mfc.nu0 = config.nu0;
    return mfc;
}

/// Replication i's config: telemetry stays attached on replication 0 only.
/// The registry/sink belong to one serially-stepped system at a time; with
/// every replication attached, concurrent epoch barriers would race on the
/// slot merge. Replication 0 is seed-stable, so the emitted series is too.
FiniteSystemConfig replication_config(const FiniteSystemConfig& config, std::size_t i) {
    FiniteSystemConfig rep = config;
    if (i != 0) {
        rep.telemetry = nullptr;
    }
    return rep;
}

} // namespace

EvaluationResult evaluate_finite(const FiniteSystemConfig& config, const UpperLevelPolicy& policy,
                                 std::size_t episodes, std::uint64_t seed, std::size_t threads) {
    const std::vector<EpisodeStats> stats =
        run_replications(episodes, seed, threads, [&](std::size_t i, Rng& rng) {
            FiniteSystem system(replication_config(config, i));
            system.reset(rng);
            return system.run_episode(policy, rng);
        });

    RunningStat drops, ret, length, util;
    for (const EpisodeStats& s : stats) {
        drops.add(s.total_drops_per_queue);
        ret.add(s.discounted_return);
        length.add(s.mean_queue_length);
        util.add(s.server_utilization);
    }
    EvaluationResult result;
    result.total_drops = confidence_interval_95(drops);
    result.discounted_return = confidence_interval_95(ret);
    result.mean_queue_length = confidence_interval_95(length);
    result.utilization = confidence_interval_95(util);
    result.episodes = episodes;
    return result;
}

namespace {

/// Shared replication harness of the two event-driven backends: identical
/// statistics pipeline, different simulator type.
template <class System>
EvaluationResult evaluate_event_driven(const FiniteSystemConfig& config,
                                       const UpperLevelPolicy& policy, std::size_t episodes,
                                       std::uint64_t seed, std::size_t threads,
                                       SojournSummary* sojourn) {
    FiniteSystemConfig des_config = config;
    if (sojourn != nullptr) {
        des_config.track_sojourn = true;
    }
    const std::vector<DesEpisodeStats> stats =
        run_replications(episodes, seed, threads, [&](std::size_t i, Rng& rng) {
            System system(replication_config(des_config, i));
            system.reset(rng);
            return system.run_episode(policy, rng);
        });

    RunningStat drops, ret, length, util;
    RunningStat sojourn_mean, sojourn_p50, sojourn_p95, sojourn_p99;
    for (const DesEpisodeStats& s : stats) {
        drops.add(s.total_drops_per_queue);
        ret.add(s.discounted_return);
        length.add(s.mean_queue_length);
        util.add(s.server_utilization);
        if (s.completed_jobs > 0) {
            sojourn_mean.add(s.mean_sojourn);
            sojourn_p50.add(s.sojourn_p50);
            sojourn_p95.add(s.sojourn_p95);
            sojourn_p99.add(s.sojourn_p99);
        }
    }
    if (sojourn != nullptr) {
        sojourn->mean = confidence_interval_95(sojourn_mean);
        sojourn->p50 = confidence_interval_95(sojourn_p50);
        sojourn->p95 = confidence_interval_95(sojourn_p95);
        sojourn->p99 = confidence_interval_95(sojourn_p99);
    }
    EvaluationResult result;
    result.total_drops = confidence_interval_95(drops);
    result.discounted_return = confidence_interval_95(ret);
    result.mean_queue_length = confidence_interval_95(length);
    result.utilization = confidence_interval_95(util);
    result.episodes = episodes;
    return result;
}

} // namespace

EvaluationResult evaluate_des(const FiniteSystemConfig& config, const UpperLevelPolicy& policy,
                              std::size_t episodes, std::uint64_t seed, std::size_t threads,
                              SojournSummary* sojourn) {
    return evaluate_event_driven<DesSystem>(config, policy, episodes, seed, threads, sojourn);
}

EvaluationResult evaluate_sharded_des(const FiniteSystemConfig& config,
                                      const UpperLevelPolicy& policy, std::size_t episodes,
                                      std::uint64_t seed, std::size_t threads,
                                      SojournSummary* sojourn) {
    return evaluate_event_driven<ShardedDesSystem>(config, policy, episodes, seed, threads,
                                                   sojourn);
}

EvaluationResult evaluate_backend(SimBackend backend, const FiniteSystemConfig& config,
                                  const UpperLevelPolicy& policy, std::size_t episodes,
                                  std::uint64_t seed, std::size_t threads,
                                  SojournSummary* sojourn) {
    switch (backend) {
    case SimBackend::Des:
        return evaluate_des(config, policy, episodes, seed, threads, sojourn);
    case SimBackend::ShardedDes:
        return evaluate_sharded_des(config, policy, episodes, seed, threads, sojourn);
    case SimBackend::Finite:
        break;
    }
    if (sojourn != nullptr) {
        *sojourn = SojournSummary{};
    }
    return evaluate_finite(config, policy, episodes, seed, threads);
}

EvaluationResult evaluate_mfc(const MfcConfig& config, const UpperLevelPolicy& policy,
                              std::size_t episodes, std::uint64_t seed, std::size_t threads) {
    struct MfcOutcome {
        double drops = 0.0;
        double discounted = 0.0;
    };
    const auto outcomes = run_replications(episodes, seed, threads, [&](std::size_t, Rng& rng) {
        MfcEnv env(config);
        env.reset(rng);
        MfcOutcome outcome;
        double weight = 1.0;
        while (!env.done()) {
            const DecisionRule h = policy.decide(env.nu(), env.lambda_state(), rng);
            const MfcEnv::Outcome step = env.step(h, rng);
            outcome.drops += step.drops;
            outcome.discounted += weight * step.reward;
            weight *= config.discount;
        }
        return outcome;
    });

    RunningStat drops, ret;
    for (const MfcOutcome& o : outcomes) {
        drops.add(o.drops);
        ret.add(o.discounted);
    }
    EvaluationResult result;
    result.total_drops = confidence_interval_95(drops);
    result.discounted_return = confidence_interval_95(ret);
    result.episodes = episodes;
    return result;
}

namespace {

struct CoupledEpisode {
    double drops = 0.0;    ///< Σ_t D_t per queue.
    double accepted = 0.0; ///< accepted jobs per queue.
};

/// One episode of `System` on the conditioned λ path.
template <class System>
CoupledEpisode coupled_episode(const FiniteSystemConfig& config,
                               const std::vector<std::size_t>& path,
                               const UpperLevelPolicy& policy, Rng& rng) {
    System system(config);
    system.reset_conditioned(path, rng);
    CoupledEpisode out;
    std::uint64_t accepted = 0;
    while (!system.done()) {
        const EpochStats stats = system.step(policy, rng);
        out.drops += stats.drops_per_queue;
        accepted += stats.accepted_packets;
    }
    out.accepted = static_cast<double>(accepted) / static_cast<double>(config.num_queues);
    return out;
}

} // namespace

CoupledEvaluation evaluate_coupled(const FiniteSystemConfig& finite_config,
                                   const UpperLevelPolicy& policy, std::size_t episodes,
                                   std::uint64_t seed, std::size_t threads,
                                   SimBackend backend) {
    CoupledEvaluation result;

    // Draw one λ path shared by the mean-field model and every finite run.
    Rng path_rng(seed ^ 0xABCDEF12345ULL);
    std::size_t lambda_state = finite_config.arrivals.sample_initial(path_rng);
    result.lambda_sequence.reserve(static_cast<std::size_t>(finite_config.horizon));
    for (int t = 0; t < finite_config.horizon; ++t) {
        result.lambda_sequence.push_back(lambda_state);
        lambda_state = finite_config.arrivals.step(lambda_state, path_rng);
    }

    // Deterministic mean-field value on the conditioned path.
    {
        MfcEnv env(mfc_from_finite(finite_config));
        env.reset_conditioned(result.lambda_sequence);
        Rng unused(seed);
        double total = 0.0;
        while (!env.done()) {
            const DecisionRule h = policy.decide(env.nu(), env.lambda_state(), unused);
            total += env.step(h, unused).drops;
        }
        result.mean_field_drops = total;
    }

    // Finite-system replications on the same path.
    const std::vector<CoupledEpisode> by_episode =
        run_replications(episodes, seed, threads, [&](std::size_t i, Rng& rng) {
            const FiniteSystemConfig config = replication_config(finite_config, i);
            const std::vector<std::size_t>& path = result.lambda_sequence;
            switch (backend) {
            case SimBackend::Des:
                return coupled_episode<DesSystem>(config, path, policy, rng);
            case SimBackend::ShardedDes:
                return coupled_episode<ShardedDesSystem>(config, path, policy, rng);
            case SimBackend::Finite:
                break;
            }
            return coupled_episode<FiniteSystem>(config, path, policy, rng);
        });

    RunningStat drops, accepted;
    for (const CoupledEpisode& episode : by_episode) {
        drops.add(episode.drops);
        accepted.add(episode.accepted);
    }
    result.finite_drops = confidence_interval_95(drops);
    result.finite_accepted = confidence_interval_95(accepted);
    return result;
}

} // namespace mflb
