#include "queueing/finite_backend.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace mflb {

namespace {

/// Returns `config` after checking what every backend needs before it sizes
/// anything — queue.buffer >= 1, at least one client for the finite-N
/// models, one finite positive `server_speeds` entry per queue (or none),
/// one `nu0` entry per state — and filling the default ν_0 = δ_0 when `nu0`
/// is empty. Throws std::invalid_argument naming `backend` and the bad
/// field, whatever `track_sojourn` is set to; `SystemBase` checks M, Δt and
/// the horizon.
FiniteSystemConfig& checked_config(FiniteSystemConfig& config, const char* backend) {
    const auto reject = [backend](const std::string& what) {
        throw std::invalid_argument(std::string(backend) + ": " + what);
    };
    if (config.queue.buffer < 1) {
        reject("queue.buffer must be >= 1, got " + std::to_string(config.queue.buffer));
    }
    if (config.num_clients == 0 && config.client_model != ClientModel::InfiniteClients) {
        reject("need at least one client");
    }
    if (!config.server_speeds.empty()) {
        if (config.server_speeds.size() != config.num_queues) {
            reject("server_speeds size mismatch");
        }
        for (const double s : config.server_speeds) {
            if (!std::isfinite(s) || s <= 0.0) {
                reject("server speeds must be finite and > 0");
            }
        }
    }
    const auto num_z = static_cast<std::size_t>(config.queue.num_states());
    if (config.nu0.empty()) {
        config.nu0.assign(num_z, 0.0);
        config.nu0[0] = 1.0;
    }
    if (config.nu0.size() != num_z) {
        reject("nu0 size mismatch");
    }
    return config;
}

} // namespace

FiniteBackend::FiniteBackend(FiniteSystemConfig config, const char* backend)
    : SystemBase(checked_config(config, backend).arrivals, config.dt, config.horizon,
                 config.num_queues),
      config_(std::move(config)), space_(config_.queue.num_states(), config_.d),
      router_(config_.router, config_.num_queues,
              static_cast<std::size_t>(config_.queue.num_states()), config_.dt,
              config_.server_speeds) {}

void FiniteBackend::reset(Rng& rng) {
    for (int& z : queues_) {
        z = static_cast<int>(rng.categorical(config_.nu0));
    }
    reset_base(rng);
    router_.reset();
    reset_state(rng);
}

void FiniteBackend::reset_conditioned(std::vector<std::size_t> lambda_states, Rng& rng) {
    reset(rng);
    condition_on(std::move(lambda_states));
}

std::vector<double> FiniteBackend::empirical_distribution() const {
    std::vector<double> h;
    empirical_distribution_into(h);
    return h;
}

std::vector<double> FiniteBackend::observed_distribution(Rng& rng) const {
    std::vector<double> h;
    observed_distribution_into(rng, h);
    return h;
}

void FiniteBackend::observed_distribution_into(Rng& rng, std::vector<double>& out) const {
    if (config_.histogram_sample_size == 0) {
        empirical_distribution_into(out);
        return;
    }
    sampled_histogram_into(queues_, static_cast<std::size_t>(config_.queue.num_states()),
                           config_.histogram_sample_size, rng, out);
}

void FiniteBackend::append_sojourn_telemetry(MetricsRow& row) const {
    if (config_.track_sojourn) {
        const std::array<double, 3> q = sojourn_percentiles();
        row.push("sojourn_p50", q[0]);
        row.push("sojourn_p95", q[1]);
        row.push("sojourn_p99", q[2]);
    }
}

void FiniteBackend::require_running() const {
    if (done()) {
        throw std::logic_error(std::string(name()) + "::step: episode already finished");
    }
}

void FiniteBackend::require_row_stochastic(const DecisionRule& h) const {
    if (!h.is_valid()) {
        throw std::invalid_argument(std::string(name()) +
                                    "::step: decision rule is not row-stochastic");
    }
}

void FiniteBackend::check_conservation(int epoch, std::int64_t jobs_before,
                                       const EpochStats& stats) const {
    const std::int64_t after = jobs_in_system();
    const auto accepted = static_cast<std::int64_t>(stats.accepted_packets);
    const auto served = static_cast<std::int64_t>(stats.served_packets);
    if (after != jobs_before + accepted - served) {
        throw std::logic_error(std::string(name()) + "::step: epoch " + std::to_string(epoch) +
                               " does not conserve jobs: " + std::to_string(jobs_before) +
                               " before + " + std::to_string(accepted) + " accepted - " +
                               std::to_string(served) + " served != " +
                               std::to_string(after) + " after");
    }
}

EpochStats FiniteBackend::step(const UpperLevelPolicy& policy, Rng& rng) {
    if (router_.active()) {
        return step_router(rng);
    }
    DecisionRule h = [&] {
        trace::ScopedSpan span(session_tracer(telemetry_), "policy_query");
        return policy.decide(observed_distribution(rng), lambda_state(), rng);
    }();
    return step_with_rule(h, rng);
}

EpochStats FiniteBackend::step_with_rule(const DecisionRule& h, Rng& rng) {
    if (router_.active()) {
        throw std::logic_error(std::string(name()) + "::step_with_rule: a classical router is "
                                                     "configured; use step_router");
    }
    require_running();
    if (!(h.space() == space_)) {
        throw std::invalid_argument(std::string(name()) +
                                    "::step: decision rule on wrong tuple space");
    }
    require_row_stochastic(h);
    return conserving([&] { return rule_epoch(h, rng); });
}

EpochStats FiniteBackend::step_router(Rng& rng) {
    if (!router_.active()) {
        throw std::logic_error(std::string(name()) +
                               "::step_router: no classical router configured");
    }
    require_running();
    return conserving([&] { return router_epoch(rng); });
}

EpisodeStats FiniteBackend::run_episode(const UpperLevelPolicy& policy, Rng& rng) {
    return with_sojourn(run_episode_loop(config_.discount, [&] { return step(policy, rng); }));
}

EpisodeStats FiniteBackend::run_episode(Rng& rng) {
    return with_sojourn(run_episode_loop(config_.discount, [&] { return step_router(rng); }));
}

EpisodeStats FiniteBackend::with_sojourn(EpisodeStats stats) const {
    const std::array<double, 3> q = sojourn_percentiles();
    stats.sojourn_p50 = q[0];
    stats.sojourn_p95 = q[1];
    stats.sojourn_p99 = q[2];
    return stats;
}

} // namespace mflb
