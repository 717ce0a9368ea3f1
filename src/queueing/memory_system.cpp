#include "queueing/memory_system.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mflb {

MemorySystem::MemorySystem(MemorySystemConfig config)
    : SystemBase(config.arrivals, config.dt, config.horizon, config.num_queues),
      config_(std::move(config)) {
    if (config_.num_clients == 0) {
        throw std::invalid_argument("MemorySystem: need clients and queues");
    }
    if (config_.buffer < 1 || config_.d < 1) {
        throw std::invalid_argument("MemorySystem: bad configuration");
    }
    if (!std::isfinite(config_.service_rate) || config_.service_rate <= 0.0) {
        throw std::invalid_argument("MemorySystem: service_rate must be finite and > 0");
    }
    memory_.assign(config_.num_clients, -1);
    counts_.assign(config_.num_queues, 0);
    sampled_.assign(static_cast<std::size_t>(config_.d), 0);
}

void MemorySystem::reset(Rng& rng) {
    std::fill(queues_.begin(), queues_.end(), 0);
    std::fill(memory_.begin(), memory_.end(), -1);
    reset_base(rng);
    memory_hits_ = 0;
    decisions_ = 0;
}

EpochStats MemorySystem::step(MemoryDiscipline discipline, Rng& rng) {
    if (done()) {
        throw std::logic_error("MemorySystem::step: episode finished");
    }
    const std::size_t m = queues_.size();
    const double lambda = lambda_value();

    std::fill(counts_.begin(), counts_.end(), 0);
    for (std::uint64_t i = 0; i < config_.num_clients; ++i) {
        for (int k = 0; k < config_.d; ++k) {
            sampled_[static_cast<std::size_t>(k)] =
                static_cast<std::size_t>(rng.uniform_below(m));
        }
        std::size_t choice = sampled_[0];
        switch (discipline) {
        case MemoryDiscipline::Random:
            choice = sampled_[static_cast<std::size_t>(rng.uniform_below(sampled_.size()))];
            break;
        case MemoryDiscipline::JsqD:
        case MemoryDiscipline::JsqDMemory: {
            int best_state = queues_[sampled_[0]];
            for (int k = 1; k < config_.d; ++k) {
                const std::size_t j = sampled_[static_cast<std::size_t>(k)];
                if (queues_[j] < best_state) {
                    best_state = queues_[j];
                    choice = j;
                }
            }
            if (discipline == MemoryDiscipline::JsqDMemory && memory_[i] >= 0) {
                const auto remembered = static_cast<std::size_t>(memory_[i]);
                // Strict inequality: ties go to the fresh sample so memory
                // does not trivially lock clients onto one queue.
                if (queues_[remembered] < best_state) {
                    choice = remembered;
                    ++memory_hits_;
                }
            }
            break;
        }
        }
        memory_[i] = static_cast<std::int32_t>(choice);
        ++counts_[choice];
        ++decisions_;
    }

    const double scale =
        static_cast<double>(m) * lambda / static_cast<double>(config_.num_clients);
    EpochStats stats;
    double area = 0.0;
    double busy = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
        const QueueEpochResult r =
            simulate_queue_epoch(queues_[j], scale * static_cast<double>(counts_[j]),
                                 config_.service_rate, config_.buffer, config_.dt, rng);
        queues_[j] = r.final_state;
        stats.dropped_packets += r.drops;
        stats.accepted_packets += r.arrivals;
        stats.served_packets += r.services;
        area += r.queue_length_area;
        busy += r.busy_time;
    }
    const double m_dt = static_cast<double>(m) * config_.dt;
    stats.drops_per_queue =
        static_cast<double>(stats.dropped_packets) / static_cast<double>(m);
    stats.mean_queue_length = area / m_dt;
    stats.server_utilization = busy / m_dt;
    advance_epoch(rng);
    return stats;
}

MemoryEpisodeStats MemorySystem::run_episode(MemoryDiscipline discipline, Rng& rng) {
    MemoryEpisodeStats stats;
    static_cast<EpisodeStats&>(stats) =
        run_episode_loop(/*discount=*/1.0, [&] { return step(discipline, rng); });
    stats.memory_hit_rate =
        decisions_ > 0 ? static_cast<double>(memory_hits_) / static_cast<double>(decisions_)
                       : 0.0;
    return stats;
}

} // namespace mflb
