#include "queueing/finite_system.hpp"

#include <algorithm>
#include <limits>

namespace mflb {

EpochStats QueueTally::epoch_stats(std::size_t num_queues, double dt) const {
    EpochStats stats;
    stats.dropped_packets = dropped;
    stats.accepted_packets = accepted;
    stats.served_packets = served;
    stats.completed_jobs = completed;
    if (completed > 0) {
        stats.mean_sojourn = sojourn_sum / static_cast<double>(completed);
    }
    const auto m = static_cast<double>(num_queues);
    const double m_dt = m * dt;
    stats.drops_per_queue = static_cast<double>(dropped) / m;
    stats.mean_queue_length = area / m_dt;
    stats.server_utilization = busy / m_dt;
    return stats;
}

QueueKernel::QueueKernel(const FiniteSystemConfig& config)
    : service_(config.service, config.queue.service_rate), speeds_(config.server_speeds),
      service_rate_(config.queue.service_rate), buffer_(config.queue.buffer),
      track_sojourn_(config.track_sojourn),
      general_(config.service.kind != ServiceDistKind::Exponential ||
               !config.server_speeds.empty()) {
    if (general_) {
        next_completion_.assign(config.num_queues, std::numeric_limits<double>::infinity());
    }
}

void QueueKernel::reset(std::span<const int> queues) {
    if (general_) {
        std::fill(next_completion_.begin(), next_completion_.end(),
                  std::numeric_limits<double>::infinity());
    }
    if (track_sojourn_) {
        jobs_.reset(queues, buffer_);
    }
}

void QueueKernel::start_service(std::span<const int> queues, std::size_t begin,
                                std::size_t end, Rng& rng) {
    if (!general_) {
        return; // exponential service is memoryless: nothing to carry.
    }
    // Initially busy queues have a job in service from time zero whose
    // completion clock the general kernel carries across epochs.
    for (std::size_t j = begin; j < end; ++j) {
        if (queues[j] > 0) {
            next_completion_[j] = service_.sample(rng) / speed(j);
        }
    }
}

int QueueKernel::advance(std::size_t j, int z, double rate, double t0, double dt, Rng& rng,
                         QueueTally& tally, SojournRecorder* recorder) {
    QueueEpochResult r;
    if (general_ || track_sojourn_) {
        const SojournEpochResult s =
            general_ ? simulate_queue_epoch_general(z, rate, service_, speed(j), buffer_, t0,
                                                    dt, next_completion_[j], rng,
                                                    track_sojourn_ ? jobs_[j] : JobRing{},
                                                    recorder)
                     : simulate_queue_epoch_sojourn(jobs_[j], t0, rate, service_rate_,
                                                    buffer_, dt, rng, recorder);
        r = s.queue;
        tally.sojourn_sum += s.sojourn.mean() * static_cast<double>(s.sojourn.count());
        tally.completed += s.sojourn.count();
    } else {
        r = simulate_queue_epoch(z, rate, service_rate_, buffer_, dt, rng);
    }
    tally.dropped += r.drops;
    tally.accepted += r.arrivals;
    tally.served += r.services;
    tally.area += r.queue_length_area;
    tally.busy += r.busy_time;
    return r.final_state;
}

int QueueKernel::advance_from_arrival(std::size_t j, double rate, double t, double rest,
                                      Rng& rng, QueueTally& tally,
                                      SojournRecorder* recorder) {
    ++tally.accepted;
    if (track_sojourn_) {
        jobs_[j].push(t);
    }
    if (general_) {
        next_completion_[j] = t + service_.sample(rng) / speed(j);
    }
    return advance(j, 1, rate, t, rest, rng, tally, recorder);
}

FiniteSystem::FiniteSystem(FiniteSystemConfig config)
    : FiniteBackend(std::move(config), "FiniteSystem"), kernel_(config_) {
    const auto num_z = static_cast<std::size_t>(config_.queue.num_states());
    const auto d = static_cast<std::size_t>(config_.d);
    const std::size_t m = config_.num_queues;
    ws_.hist.assign(num_z, 0.0);
    ws_.g.assign(d * num_z, 0.0);
    ws_.tuple.assign(d, 0);
    ws_.suffix.assign(d + 1, 1.0);
    if (config_.client_model == ClientModel::Aggregated) {
        ws_.state_counts.assign(num_z, 0);
        ws_.class_weights.assign(num_z, 0.0);
        ws_.class_clients.assign(num_z, 0);
        const double max_mean =
            static_cast<double>(config_.d * config_.num_clients) / static_cast<double>(m);
        ws_.classes = ClassCountSampler(num_z, m, max_mean);
    }
    ws_.counts.assign(m, 0);
    ws_.sampled.assign(d, 0);
    ws_.states.assign(d, 0);
    ws_.rates.assign(m, 0.0);
    ws_.flow.inflow_by_state.assign(num_z, 0.0);
    ws_.flow.rate_by_state.assign(num_z, 0.0);
    if (router_.active()) {
        ws_.weights.assign(m, 0.0);
    }
    if (config_.track_sojourn) {
        sojourn_ = std::make_unique<SojournRecorder>();
    }
    telemetry_series_ = "finite_epoch";
    if (config_.telemetry != nullptr) {
        set_telemetry(config_.telemetry);
    }
}

void FiniteSystem::append_epoch_telemetry(MetricsRow& row) {
    const int full_state = config_.queue.num_states() - 1;
    std::size_t empty = 0;
    std::size_t full = 0;
    int max_state = 0;
    for (const int z : queues_) {
        empty += z == 0 ? 1 : 0;
        full += z >= full_state ? 1 : 0;
        max_state = std::max(max_state, z);
    }
    const double inv_m = 1.0 / static_cast<double>(queues_.size());
    row.push("qlen_empty_frac", static_cast<double>(empty) * inv_m);
    row.push("qlen_full_frac", static_cast<double>(full) * inv_m);
    row.push_int("qlen_max", max_state);
    append_sojourn_telemetry(row);
}

void FiniteSystem::reset_state(Rng& rng) {
    clock_ = 0.0;
    kernel_.reset(queues_);
    kernel_.start_service(queues_, 0, queues_.size(), rng);
    if (sojourn_) {
        sojourn_->reset();
    }
}

std::array<double, 3> FiniteSystem::sojourn_percentiles() const {
    if (!sojourn_) {
        return {};
    }
    return {sojourn_->p50(), sojourn_->p95(), sojourn_->p99()};
}

std::int64_t FiniteSystem::jobs_in_system() const noexcept {
    std::int64_t jobs = 0;
    for (const int z : queues_) {
        jobs += z;
    }
    return jobs;
}

void FiniteSystem::empirical_distribution_into(std::vector<double>& out) const {
    out.assign(static_cast<std::size_t>(config_.queue.num_states()), 0.0);
    const double weight = 1.0 / static_cast<double>(queues_.size());
    for (int z : queues_) {
        out[static_cast<std::size_t>(z)] += weight;
    }
}

void FiniteSystem::sample_aggregated_counts(const DecisionRule& h, Rng& rng) const {
    // p_j = σ_{z_j}/M with σ the folded routing table: constant within a
    // state class, so the counts are drawn per class — the draw shared with
    // both event-driven backends.
    std::fill(ws_.state_counts.begin(), ws_.state_counts.end(), 0);
    for (const int z : queues_) {
        ++ws_.state_counts[static_cast<std::size_t>(z)];
    }
    const double inv_m = 1.0 / static_cast<double>(queues_.size());
    for (std::size_t z = 0; z < ws_.hist.size(); ++z) {
        ws_.hist[z] = inv_m * static_cast<double>(ws_.state_counts[z]);
    }
    compute_routing_table_into(ws_.hist, h, ws_.tuple, ws_.suffix, ws_.g);
    const std::span<const double> sums =
        fold_routing_table_rows(ws_.g, ws_.hist.size(), config_.d);
    sample_class_totals(config_.num_clients, sums, ws_.state_counts, rng, ws_.class_weights,
                        ws_.class_clients);
    ws_.classes.sample(queues_, ws_.state_counts, ws_.class_clients, rng, ws_.counts);
}

void FiniteSystem::compute_queue_rates_into(const DecisionRule& h, Rng& rng) const {
    const double lambda = lambda_value();
    const auto m = static_cast<double>(queues_.size());
    std::vector<double>& rates = ws_.rates;

    if (config_.client_model == ClientModel::InfiniteClients) {
        // N → ∞: rates collapse to λ_t(H^M, z_j), Section 2.2 / Theorem 1.
        empirical_distribution_into(ws_.hist);
        compute_arrival_flow_into(ws_.hist, h, lambda, ws_.tuple, ws_.flow);
        for (std::size_t j = 0; j < queues_.size(); ++j) {
            rates[j] = ws_.flow.rate_by_state[static_cast<std::size_t>(queues_[j])];
        }
        return;
    }
    if (config_.client_model == ClientModel::PerClient) {
        // Literal eq. (5): every client samples d queues and one choice —
        // the draw loop shared with both event-driven backends.
        sample_per_client_counts(queues_, h, config_.num_clients, rng, ws_.sampled,
                                 ws_.states, ws_.counts);
    } else {
        // Client destinations are i.i.d. given the snapshot, so per-queue
        // counts are exactly Multinomial(N, p).
        sample_aggregated_counts(h, rng);
    }
    const double scale = m * lambda / static_cast<double>(config_.num_clients);
    for (std::size_t j = 0; j < queues_.size(); ++j) {
        rates[j] = scale * static_cast<double>(ws_.counts[j]);
    }
}

std::vector<double> FiniteSystem::compute_queue_rates(const DecisionRule& h, Rng& rng) const {
    compute_queue_rates_into(h, rng);
    return ws_.rates;
}

void FiniteSystem::compute_router_rates_into() {
    // Router weight law → frozen per-queue Poisson rates M·λ_t·w_j/Σw: the
    // exact rate realization of "each arriving job lands on queue j with
    // probability w_j/Σw" for the aggregated stream of rate M·λ_t.
    router_.epoch_weights(queues_, time(), ws_.weights);
    double total = 0.0;
    for (const double w : ws_.weights) {
        total += w;
    }
    const double scale =
        total > 0.0 ? static_cast<double>(queues_.size()) * lambda_value() / total : 0.0;
    for (std::size_t j = 0; j < queues_.size(); ++j) {
        ws_.rates[j] = scale * ws_.weights[j];
    }
}

EpochStats FiniteSystem::simulate_epoch_from_rates(Rng& rng) {
    QueueTally tally;
    for (std::size_t j = 0; j < queues_.size(); ++j) {
        queues_[j] = kernel_.advance(j, queues_[j], ws_.rates[j], clock_, config_.dt, rng, tally,
                                     sojourn_.get());
    }
    clock_ += config_.dt;
    const EpochStats stats = tally.epoch_stats(queues_.size(), config_.dt);
    advance_epoch(rng);
    return stats;
}

EpochStats FiniteSystem::rule_epoch(const DecisionRule& h, Rng& rng) {
    trace::Tracer* tracer = session_tracer(telemetry_);
    {
        trace::ScopedSpan span(tracer, "destination_law");
        compute_queue_rates_into(h, rng);
    }
    trace::ScopedSpan span(tracer, "queue_advance");
    return simulate_epoch_from_rates(rng);
}

EpochStats FiniteSystem::router_epoch(Rng& rng) {
    compute_router_rates_into();
    return simulate_epoch_from_rates(rng);
}

} // namespace mflb
