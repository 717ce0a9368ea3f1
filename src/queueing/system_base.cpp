#include "queueing/system_base.hpp"

#include <cmath>
#include <stdexcept>

namespace mflb {

void histogram_from_counts_into(std::span<const int> state_counts, std::size_t num_queues,
                                std::vector<double>& out) {
    out.resize(state_counts.size());
    const double weight = 1.0 / static_cast<double>(num_queues);
    for (std::size_t z = 0; z < state_counts.size(); ++z) {
        out[z] = weight * static_cast<double>(state_counts[z]);
    }
}

void sampled_histogram_into(std::span<const int> queue_states, std::size_t num_states,
                            std::size_t sample_size, Rng& rng, std::vector<double>& out) {
    out.assign(num_states, 0.0);
    const double weight = 1.0 / static_cast<double>(sample_size);
    for (std::size_t k = 0; k < sample_size; ++k) {
        const auto j = static_cast<std::size_t>(rng.uniform_below(queue_states.size()));
        out[static_cast<std::size_t>(queue_states[j])] += weight;
    }
}

EpisodeAccumulator::EpisodeAccumulator(double discount, std::size_t epochs_hint)
    : gamma_(discount) {
    stats_.drops_per_epoch.reserve(epochs_hint);
}

void EpisodeAccumulator::add(const EpochStats& epoch) {
    stats_.total_drops_per_queue += epoch.drops_per_queue;
    stats_.discounted_return -= weight_ * epoch.drops_per_queue;
    stats_.dropped_packets += epoch.dropped_packets;
    stats_.accepted_packets += epoch.accepted_packets;
    stats_.drops_per_epoch.push_back(epoch.drops_per_queue);
    length_sum_ += epoch.mean_queue_length;
    util_sum_ += epoch.server_utilization;
    sojourn_sum_ += epoch.mean_sojourn * static_cast<double>(epoch.completed_jobs);
    stats_.completed_jobs += epoch.completed_jobs;
    weight_ *= gamma_;
}

EpisodeStats EpisodeAccumulator::finish() {
    const auto epochs = static_cast<double>(stats_.drops_per_epoch.size());
    if (epochs > 0) {
        stats_.mean_queue_length = length_sum_ / epochs;
        stats_.server_utilization = util_sum_ / epochs;
    }
    if (stats_.completed_jobs > 0) {
        stats_.mean_sojourn = sojourn_sum_ / static_cast<double>(stats_.completed_jobs);
    }
    return std::move(stats_);
}

SystemBase::SystemBase(ArrivalProcess arrivals, double dt, int horizon, std::size_t num_queues)
    : arrivals_(std::move(arrivals)), dt_(dt), horizon_(horizon) {
    if (num_queues == 0) {
        throw std::invalid_argument("SystemBase: need at least one queue");
    }
    if (!std::isfinite(dt_) || dt_ <= 0.0) {
        throw std::invalid_argument("SystemBase: dt must be finite and positive");
    }
    if (horizon_ < 1) {
        throw std::invalid_argument("SystemBase: horizon must be positive");
    }
    queues_.assign(num_queues, 0);
}

void SystemBase::reset_base(Rng& rng) {
    lambda_state_ = arrivals_.sample_initial(rng);
    t_ = 0;
    conditioned_.reset();
    ++episodes_started_;
}

void SystemBase::set_telemetry(TelemetrySession* telemetry) {
    telemetry_ = telemetry;
    if (telemetry_ != nullptr && telemetry_->metrics_enabled()) {
        MetricsRegistry& registry = telemetry_->registry();
        metric_ids_.arrivals = registry.counter("arrivals_total");
        metric_ids_.dropped = registry.counter("dropped_total");
        metric_ids_.served = registry.counter("served_total");
        metric_ids_.lambda = registry.gauge("lambda_gauge");
        metric_ids_.qlen_mean = registry.gauge("qlen_mean_gauge");
        metric_ids_.utilization = registry.gauge("utilization_gauge");
    }
    on_telemetry_attached();
}

void SystemBase::record_epoch_telemetry(int epoch, double lambda_epoch,
                                        const EpochStats& stats) {
    MetricsRegistry& registry = telemetry_->registry();
    // Barrier-serial: fold the parallel phase's slot lanes in fixed order,
    // then account this epoch on the serial lane.
    registry.merge_slots();
    const std::uint64_t arrivals = stats.accepted_packets + stats.dropped_packets;
    registry.add(metric_ids_.arrivals, static_cast<double>(arrivals));
    registry.add(metric_ids_.dropped, static_cast<double>(stats.dropped_packets));
    registry.add(metric_ids_.served, static_cast<double>(stats.served_packets));
    registry.set(metric_ids_.lambda, lambda_epoch);
    registry.set(metric_ids_.qlen_mean, stats.mean_queue_length);
    registry.set(metric_ids_.utilization, stats.server_utilization);

    const std::size_t every = telemetry_->metrics_every();
    if (every > 1 && static_cast<std::size_t>(epoch) % every != 0) {
        return;
    }
    MetricsRow& row = telemetry_row_;
    row.reset(telemetry_series_, epoch);
    row.push_int("episode", static_cast<std::int64_t>(episodes_started_ > 0
                                                          ? episodes_started_ - 1
                                                          : 0));
    row.push("sim_time", dt_ * (static_cast<double>(epoch) + 1.0));
    row.push("lambda", lambda_epoch);
    row.push_int("arrivals", static_cast<std::int64_t>(arrivals));
    row.push_int("dropped", static_cast<std::int64_t>(stats.dropped_packets));
    row.push_int("accepted", static_cast<std::int64_t>(stats.accepted_packets));
    row.push_int("served", static_cast<std::int64_t>(stats.served_packets));
    row.push("drops_per_queue", stats.drops_per_queue);
    row.push("qlen_mean", stats.mean_queue_length);
    row.push("utilization", stats.server_utilization);
    row.push("sojourn_epoch_mean", stats.mean_sojourn);
    row.push_int("completed_jobs", static_cast<std::int64_t>(stats.completed_jobs));
    append_epoch_telemetry(row);
    registry.append_to(row);
    telemetry_->sink().write_row(row);
}

void SystemBase::condition_on(std::vector<std::size_t> lambda_states) {
    if (lambda_states.empty()) {
        throw std::invalid_argument("SystemBase: conditioned sequence must be non-empty");
    }
    for (std::size_t s : lambda_states) {
        if (s >= arrivals_.num_states()) {
            throw std::invalid_argument("SystemBase: conditioned state out of range");
        }
    }
    t_ = 0;
    lambda_state_ = lambda_states.front();
    conditioned_ = std::move(lambda_states);
}

void SystemBase::advance_epoch(Rng& rng) {
    ++t_;
    if (conditioned_) {
        const auto next_idx = static_cast<std::size_t>(t_);
        lambda_state_ = next_idx < conditioned_->size() ? (*conditioned_)[next_idx]
                                                        : conditioned_->back();
    } else {
        lambda_state_ = arrivals_.step(lambda_state_, rng);
    }
}

} // namespace mflb
