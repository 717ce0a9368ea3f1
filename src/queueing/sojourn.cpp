#include "queueing/sojourn.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace mflb {

void JobRings::reset(std::span<const int> fill, int capacity) {
    if (capacity < 1) {
        throw std::invalid_argument("JobRings: capacity must be >= 1");
    }
    capacity_ = capacity;
    slots_.resize(fill.size() * static_cast<std::size_t>(capacity));
    cursors_.assign(fill.size(), JobRing::Cursor{});
    for (std::size_t j = 0; j < fill.size(); ++j) {
        JobRing ring = (*this)[j];
        for (int k = 0; k < fill[j]; ++k) {
            ring.push(0.0);
        }
    }
}

SojournEpochResult simulate_queue_epoch_general(int z0, double arrival_rate,
                                                const ServiceDistribution& service,
                                                double speed, int buffer, double t0,
                                                double dt, double& next_completion,
                                                Rng& rng, JobRing jobs,
                                                SojournRecorder* recorder) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    SojournEpochResult result;
    const double end = t0 + dt;
    int z = z0;
    double cursor = t0;
    // The arrival clock is memoryless, so redrawing it at the epoch start is
    // exact; the service clock is not and arrives via `next_completion`.
    double next_arrival =
        arrival_rate > 0.0 ? t0 + rng.exponential(arrival_rate) : kInf;
    const auto advance_to = [&](double t) {
        const double span = t - cursor;
        result.queue.queue_length_area += static_cast<double>(z) * span;
        if (z > 0) {
            result.queue.busy_time += span;
        }
        cursor = t;
    };
    while (true) {
        // Ties (possible with deterministic service) resolve departure
        // first, opening a buffer slot for the simultaneous arrival.
        const bool departure_next = next_completion <= next_arrival;
        const double t = departure_next ? next_completion : next_arrival;
        if (t > end) {
            break;
        }
        advance_to(t);
        if (departure_next) {
            --z;
            ++result.queue.services;
            if (jobs) {
                const double sojourn = jobs.pop(t);
                result.sojourn.add(sojourn);
                if (recorder != nullptr) {
                    recorder->record(sojourn);
                }
            }
            next_completion = z > 0 ? t + service.sample(rng) / speed : kInf;
        } else {
            if (z < buffer) {
                ++z;
                ++result.queue.arrivals;
                if (jobs) {
                    jobs.push(t);
                }
                if (z == 1) {
                    next_completion = t + service.sample(rng) / speed;
                }
            } else {
                ++result.queue.drops;
            }
            next_arrival = t + rng.exponential(arrival_rate);
        }
    }
    advance_to(end);
    result.queue.final_state = z;
    return result;
}

namespace {
/// Stationary distribution of M/M/1/B: pi_k ∝ rho^k, truncated at B.
std::vector<double> mm1b_stationary(double rho, int buffer) {
    std::vector<double> pi(static_cast<std::size_t>(buffer) + 1);
    double normalizer = 0.0;
    double term = 1.0;
    for (int k = 0; k <= buffer; ++k) {
        pi[static_cast<std::size_t>(k)] = term;
        normalizer += term;
        term *= rho;
    }
    for (double& v : pi) {
        v /= normalizer;
    }
    return pi;
}
} // namespace

double mm1b_blocking_probability(double arrival_rate, double service_rate, int buffer) {
    if (arrival_rate <= 0.0 || service_rate <= 0.0 || buffer < 1) {
        throw std::invalid_argument("mm1b_blocking_probability: bad parameters");
    }
    return mm1b_stationary(arrival_rate / service_rate, buffer).back();
}

double mm1b_mean_length(double arrival_rate, double service_rate, int buffer) {
    if (arrival_rate <= 0.0 || service_rate <= 0.0 || buffer < 1) {
        throw std::invalid_argument("mm1b_mean_length: bad parameters");
    }
    const auto pi = mm1b_stationary(arrival_rate / service_rate, buffer);
    double mean = 0.0;
    for (std::size_t k = 0; k < pi.size(); ++k) {
        mean += static_cast<double>(k) * pi[k];
    }
    return mean;
}

double mm1b_mean_sojourn(double arrival_rate, double service_rate, int buffer) {
    const double blocking = mm1b_blocking_probability(arrival_rate, service_rate, buffer);
    const double effective_rate = arrival_rate * (1.0 - blocking);
    return mm1b_mean_length(arrival_rate, service_rate, buffer) / effective_rate;
}

} // namespace mflb
