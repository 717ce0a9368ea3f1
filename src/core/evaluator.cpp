#include "core/evaluator.hpp"

#include "des/des_system.hpp"
#include "des/sharded_des_system.hpp"
#include "queueing/finite_system.hpp"

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

std::unique_ptr<FiniteBackend> make_backend(SimBackend backend, FiniteSystemConfig config) {
    switch (backend) {
    case SimBackend::Des:
        return std::make_unique<DesSystem>(std::move(config));
    case SimBackend::ShardedDes:
        return std::make_unique<ShardedDesSystem>(std::move(config));
    case SimBackend::Finite:
        break;
    }
    return std::make_unique<FiniteSystem>(std::move(config));
}

EvaluationResult evaluate_backend(SimBackend backend, const FiniteSystemConfig& config,
                                  const UpperLevelPolicy& policy, std::size_t episodes,
                                  std::uint64_t seed, std::size_t threads) {
    const std::vector<EpisodeStats> stats =
        run_replications(episodes, seed, threads, [&](std::size_t i, Rng& rng) {
            const std::unique_ptr<FiniteBackend> system =
                make_backend(backend, replication_config(config, i));
            system->reset(rng);
            return system->run_episode(policy, rng);
        });

    RunningStat drops, ret, length, util;
    RunningStat sojourn_mean, sojourn_p50, sojourn_p95, sojourn_p99;
    for (const EpisodeStats& s : stats) {
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
    EvaluationResult result;
    result.total_drops = confidence_interval_95(drops);
    result.discounted_return = confidence_interval_95(ret);
    result.mean_queue_length = confidence_interval_95(length);
    result.utilization = confidence_interval_95(util);
    result.sojourn_mean = confidence_interval_95(sojourn_mean);
    result.sojourn_p50 = confidence_interval_95(sojourn_p50);
    result.sojourn_p95 = confidence_interval_95(sojourn_p95);
    result.sojourn_p99 = confidence_interval_95(sojourn_p99);
    result.episodes = episodes;
    return result;
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
    const std::vector<EpisodeStats> by_episode =
        run_replications(episodes, seed, threads, [&](std::size_t i, Rng& rng) {
            const std::unique_ptr<FiniteBackend> system =
                make_backend(backend, replication_config(finite_config, i));
            system->reset_conditioned(result.lambda_sequence, rng);
            return system->run_episode(policy, rng);
        });

    RunningStat drops, accepted;
    for (const EpisodeStats& episode : by_episode) {
        drops.add(episode.total_drops_per_queue);
        accepted.add(static_cast<double>(episode.accepted_packets) /
                     static_cast<double>(finite_config.num_queues));
    }
    result.finite_drops = confidence_interval_95(drops);
    result.finite_accepted = confidence_interval_95(accepted);
    return result;
}

} // namespace mflb
