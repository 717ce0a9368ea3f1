#include "des/des_system.hpp"

#include "field/arrival_flow.hpp"
#include "math/vec_ops.hpp"

#include <algorithm>

namespace mflb {

DesSystem::DesSystem(FiniteSystemConfig config)
    : FiniteBackend(std::move(config), "DesSystem"),
      service_(config_.service, config_.queue.service_rate),
      fel_(config_.fel, config_.num_queues + 1,
           fel_rate_hint(config_, config_.num_queues)),
      arrival_slot_(config_.num_queues) {
    const auto num_z = static_cast<std::size_t>(config_.queue.num_states());
    const auto d = static_cast<std::size_t>(config_.d);
    const std::size_t m = config_.num_queues;
    state_counts_.assign(num_z, 0);
    saved_.assign(m, 0);
    stamp_.assign(m, kNoEpoch);
    sampled_.assign(d, 0);
    states_.assign(d, 0);
    // The O(M) finite-N routing buffers are only needed by the client models
    // that precompute per-queue weights; InfiniteClients routes per job, so
    // allocating (and page-touching) them at M = 10^6+ would be pure waste.
    if (config_.client_model != ClientModel::InfiniteClients) {
        counts_.assign(m, 0);
        cum_.assign(m, 0.0);
    }
    // Classical weight-law routers thin arrivals by prefix-sum search no
    // matter the client model; round-robin routes by cursor and needs none.
    if (router_.active() && router_.kind() != RouterKind::RoundRobin) {
        weights_.assign(m, 0.0);
        if (cum_.empty()) {
            cum_.assign(m, 0.0);
        }
    }
    if (config_.client_model == ClientModel::Aggregated) {
        hist_.assign(num_z, 0.0);
        g_.assign(d * num_z, 0.0);
        tuple_.assign(d, 0);
        suffix_.assign(d + 1, 1.0);
        class_weights_.assign(num_z, 0.0);
        class_clients_.assign(num_z, 0);
        const double max_mean =
            static_cast<double>(config_.d * config_.num_clients) / static_cast<double>(m);
        classes_ = ClassCountSampler(num_z, m, max_mean);
    }
    if (config_.track_sojourn) {
        sojourn_ = std::make_unique<SojournRecorder>();
    }
    telemetry_series_ = "des_epoch";
    if (config_.telemetry != nullptr) {
        set_telemetry(config_.telemetry);
    }
}

void DesSystem::on_telemetry_attached() {
    fel_registry_ = nullptr;
    if (telemetry_ != nullptr && telemetry_->metrics_enabled()) {
        MetricsRegistry& registry = telemetry_->registry();
        fel_schedules_id_ = registry.counter("fel_schedules");
        fel_pops_id_ = registry.counter("fel_pops");
        fel_scans_id_ = registry.counter("fel_bucket_scans");
        fel_registry_ = &registry;
    }
}

void DesSystem::append_epoch_telemetry(MetricsRow& row) {
    // state_counts_ is maintained incrementally, so the queue-length
    // histogram summary is O(|Z|) regardless of M.
    const std::size_t num_z = state_counts_.size();
    int max_state = 0;
    for (std::size_t z = 0; z < num_z; ++z) {
        if (state_counts_[z] > 0) {
            max_state = static_cast<int>(z);
        }
    }
    const double inv_m = 1.0 / static_cast<double>(num_queues());
    row.push("qlen_empty_frac", static_cast<double>(state_counts_[0]) * inv_m);
    row.push("qlen_full_frac", static_cast<double>(state_counts_[num_z - 1]) * inv_m);
    row.push_int("qlen_max", max_state);
    append_sojourn_telemetry(row);
}

void DesSystem::reset_state(Rng& rng) {
    std::fill(state_counts_.begin(), state_counts_.end(), 0);
    std::fill(stamp_.begin(), stamp_.end(), kNoEpoch);
    total_jobs_ = 0;
    busy_queues_ = 0;
    for (int z : queues_) {
        ++state_counts_[static_cast<std::size_t>(z)];
        total_jobs_ += z;
        busy_queues_ += z > 0 ? 1 : 0;
    }
    cursor_ = 0.0;

    // Seed the FEL: initially busy queues have a job in service whose
    // completion time is drawn from the service law from time zero.
    fel_.clear();
    for (std::size_t j = 0; j < queues_.size(); ++j) {
        if (queues_[j] > 0) {
            fel_.schedule(j, service_time(j, rng));
        }
    }
    rr_next_ = 0;

    if (config_.track_sojourn) {
        jobs_.reset(queues_, config_.queue.buffer);
        sojourn_->reset();
    }
}

void DesSystem::empirical_distribution_into(std::vector<double>& out) const {
    histogram_from_counts_into(state_counts_, queues_.size(), out);
}

void DesSystem::begin_epoch(const DecisionRule& h, Rng& rng) {
    const std::size_t m = queues_.size();
    const double inv_m = 1.0 / static_cast<double>(m);
    arrival_rate_ = static_cast<double>(m) * lambda_value();

    switch (config_.client_model) {
    case ClientModel::PerClient:
        // Literal Algorithm 1: every client samples d queues and one choice;
        // the epoch's destination weights are the resulting client counts.
        sample_per_client_counts(queues_, h, config_.num_clients, rng, sampled_, states_,
                                 counts_);
        break;
    case ClientModel::Aggregated: {
        // Exactly FiniteSystem's aggregation: the folded routing table gives
        // the per-class destination law, then C ~ Multinomial(N, p) per class.
        for (std::size_t z = 0; z < hist_.size(); ++z) {
            hist_[z] = inv_m * static_cast<double>(state_counts_[z]);
        }
        compute_routing_table_into(hist_, h, tuple_, suffix_, g_);
        sample_class_totals(config_.num_clients,
                            fold_routing_table_rows(g_, hist_.size(), config_.d),
                            state_counts_, rng, class_weights_, class_clients_);
        classes_.sample(queues_, state_counts_, class_clients_, rng, counts_);
        break;
    }
    case ClientModel::InfiniteClients:
        // Per-job d-sampling at arrival time realizes the mean-field rates
        // exactly; no per-epoch routing state is needed.
        break;
    }

    if (config_.client_model != ClientModel::InfiniteClients) {
        // Prefix sums of the client counts for O(log M) arrival thinning —
        // the segmented vectorized scan, exact (hence bit-identical to the
        // serial loop it replaced) because the counts are integers below
        // 2^53. The router weight path below stays serial: its weights are
        // arbitrary doubles, where the scan's block reassociation would
        // move bits.
        inclusive_prefix_sum(std::span<const std::uint64_t>(counts_), cum_);
        total_weight_ = m > 0 ? cum_[m - 1] : 0.0;
    }

    // The epoch barrier is the one place the calendar FEL may resize or
    // re-tune its day array — the event loop itself stays allocation-free.
    fel_.retune();
    // The pending next-arrival (drawn under the previous epoch's rate and
    // routing) is stale; memorylessness makes cancel-and-redraw exact. This
    // is the FEL reschedule path, exercised once per epoch.
    fel_.schedule(arrival_slot_, cursor_ + rng.exponential(arrival_rate_));
}

void DesSystem::begin_epoch_router(Rng& rng) {
    const std::size_t m = queues_.size();
    arrival_rate_ = static_cast<double>(m) * lambda_value();
    if (router_.kind() != RouterKind::RoundRobin) {
        // Epoch-barrier weight law from the epoch-start snapshot; arrivals
        // within the epoch thin the aggregated stream over these weights
        // (identical semantics to the finite backend's frozen rates).
        router_.epoch_weights(queues_, time(), weights_);
        double running = 0.0;
        for (std::size_t j = 0; j < m; ++j) {
            running += weights_[j];
            cum_[j] = running;
        }
        total_weight_ = running;
    }
    fel_.retune();
    fel_.schedule(arrival_slot_, cursor_ + rng.exponential(arrival_rate_));
}

std::size_t DesSystem::sample_destination(const DecisionRule* h, Rng& rng) {
    if (router_.active()) {
        if (router_.kind() == RouterKind::RoundRobin) {
            // Per-arrival cyclic cursor — the literal discipline, which a
            // weight law cannot express (Erlang interarrivals per queue).
            const std::size_t j = rr_next_;
            rr_next_ = rr_next_ + 1 == queues_.size() ? 0 : rr_next_ + 1;
            return j;
        }
    } else if (config_.client_model == ClientModel::InfiniteClients) {
        // The arriving job itself samples d queues and applies h to their
        // stale snapshot states (eq. (18)-(19) by Poisson thinning).
        const int d = config_.d;
        for (int k = 0; k < d; ++k) {
            const auto id = static_cast<std::size_t>(rng.uniform_below(queues_.size()));
            sampled_[static_cast<std::size_t>(k)] = static_cast<int>(id);
            states_[static_cast<std::size_t>(k)] = snapshot_state(id);
        }
        const std::size_t row = space_.index_of(states_);
        const std::size_t u = rng.categorical(h->row(row));
        return static_cast<std::size_t>(sampled_[u]);
    }
    const double target = rng.uniform() * total_weight_;
    const auto it = std::upper_bound(cum_.begin(), cum_.end(), target);
    const auto idx = static_cast<std::size_t>(it - cum_.begin());
    return idx < cum_.size() ? idx : cum_.size() - 1;
}

void DesSystem::advance_areas_to(double t) noexcept {
    const double span = t - cursor_;
    if (span > 0.0) {
        job_area_ += static_cast<double>(total_jobs_) * span;
        busy_area_ += static_cast<double>(busy_queues_) * span;
        cursor_ = t;
    }
}

void DesSystem::handle_arrival(const DecisionRule* h, double t, Rng& rng, EpochStats& stats) {
    const std::size_t j = sample_destination(h, rng);
    if (queues_[j] < config_.queue.buffer) {
        save_snapshot(j);
        const auto z = static_cast<std::size_t>(queues_[j]);
        --state_counts_[z];
        ++state_counts_[z + 1];
        ++queues_[j];
        ++total_jobs_;
        ++stats.accepted_packets;
        if (queues_[j] == 1) {
            ++busy_queues_;
            fel_.schedule(j, t + service_time(j, rng));
        }
        if (config_.track_sojourn) {
            jobs_[j].push(t);
        }
    } else {
        ++stats.dropped_packets;
    }
    // The arrival slot is at the FEL front (it was just peeked as the
    // minimum): rescheduling in place is one sift instead of pop + insert.
    fel_.pop_and_reschedule(arrival_slot_, t + rng.exponential(arrival_rate_));
}

void DesSystem::handle_departure(std::size_t j, double t, Rng& rng, EpochStats& stats) {
    save_snapshot(j);
    const auto z = static_cast<std::size_t>(queues_[j]);
    --state_counts_[z];
    ++state_counts_[z - 1];
    --queues_[j];
    --total_jobs_;
    ++stats.served_packets;
    if (config_.track_sojourn) {
        const double sojourn = jobs_[j].pop(t);
        stats.mean_sojourn += sojourn; // running sum; divided at epoch end.
        ++stats.completed_jobs;
        sojourn_->record(sojourn);
    }
    if (queues_[j] > 0) {
        // The departure event is still at the FEL front; move it to the next
        // completion in place instead of pop + insert.
        fel_.pop_and_reschedule(j, t + service_time(j, rng));
    } else {
        fel_.pop();
        --busy_queues_;
    }
}

EpochStats DesSystem::run_events(const DecisionRule* h, Rng& rng) {
    // Drift-free epoch boundary: absolute time of epoch t_ + 1.
    const double epoch_end = epoch_end_time();
    EpochStats stats;
    job_area_ = 0.0;
    busy_area_ = 0.0;
    // Peek-based loop: the handlers relocate (or pop) the front event
    // themselves, so the dominant arrival/still-busy-departure paths pay one
    // in-place reschedule instead of a pop followed by a fresh insert. The
    // pop *sequence* is unchanged — it is the (time, id) sorted order of the
    // pending-event multiset, independent of how entries move internally.
    while (!fel_.empty()) {
        const FutureEventList::Event event = fel_.peek();
        if (event.time > epoch_end) {
            break;
        }
        advance_areas_to(event.time);
        if (event.id == arrival_slot_) {
            handle_arrival(h, event.time, rng, stats);
        } else {
            handle_departure(event.id, event.time, rng, stats);
        }
    }
    advance_areas_to(epoch_end);

    if (fel_registry_ != nullptr) {
        const FutureEventList::Stats s = fel_.stats();
        fel_registry_->add(fel_schedules_id_,
                           static_cast<double>(s.schedules - fel_published_.schedules));
        fel_registry_->add(fel_pops_id_,
                           static_cast<double>(s.pops - fel_published_.pops));
        fel_registry_->add(fel_scans_id_,
                           static_cast<double>(s.bucket_scans - fel_published_.bucket_scans));
        fel_published_ = s;
    }

    const auto m = static_cast<double>(queues_.size());
    const double m_dt = m * config_.dt;
    stats.drops_per_queue = static_cast<double>(stats.dropped_packets) / m;
    stats.mean_queue_length = job_area_ / m_dt;
    stats.server_utilization = busy_area_ / m_dt;
    if (stats.completed_jobs > 0) {
        stats.mean_sojourn /= static_cast<double>(stats.completed_jobs);
    }

    advance_epoch(rng);
    return stats;
}

EpochStats DesSystem::rule_epoch(const DecisionRule& h, Rng& rng) {
    trace::Tracer* tracer = session_tracer(telemetry_);
    {
        trace::ScopedSpan span(tracer, "destination_law");
        begin_epoch(h, rng);
    }
    trace::ScopedSpan span(tracer, "event_loop");
    return run_events(&h, rng);
}

EpochStats DesSystem::router_epoch(Rng& rng) {
    begin_epoch_router(rng);
    return run_events(nullptr, rng);
}

} // namespace mflb
