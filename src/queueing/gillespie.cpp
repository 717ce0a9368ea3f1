#include "queueing/gillespie.hpp"

#include "math/expm.hpp"
#include "math/matrix.hpp"
#include "queueing/sojourn.hpp"

#include <stdexcept>

namespace mflb {

namespace {

/// The one M/M/1/B loop of `simulate_queue_epoch` and `simulate_queue_epoch_sojourn`
/// (so they stay in draw lockstep): `on_arrival(t)` / `on_service(t)` see each
/// accepted arrival / completed service and draw nothing. An event costs one
/// unit exponential times a per-call reciprocal (1/(λ+μ) busy, 1/λ idle), at a
/// busy server one 53-bit compare against ⌊λ/(λ+μ)·2⁵³⌋ (an idle server's next
/// event must be an arrival), and a branch-free state and tally update.
template <class OnArrival, class OnService>
QueueEpochResult queue_epoch_loop(int z, double arrival_rate, double service_rate, int buffer,
                                  double dt, Rng& rng, OnArrival on_arrival,
                                  OnService on_service) {
    const ExpZiggurat& zig = ExpZiggurat::get();
    const double total = arrival_rate + service_rate;
    const double busy_mean = 1.0 / total, idle_mean = 1.0 / arrival_rate;
    // λ/(λ+μ) in 53-bit fixed point; the guard keeps the cast defined at λ + μ = 0.
    const auto arrival_cut =
        static_cast<std::uint64_t>((total > 0.0 ? arrival_rate / total : 1.0) * 0x1.0p53);
    std::uint64_t arrivals = 0, drops = 0, services = 0;
    double area = 0.0, busy_time = 0.0, t = 0.0;
    while (true) {
        const bool busy = z > 0;
        const double wait = rng.standard_exponential(zig) * (busy ? busy_mean : idle_mean);
        // Negated so that an idle queue with λ = 0 (wait ∞, or 0·∞) ends too.
        if (!(t + wait <= dt)) {
            break;
        }
        area += static_cast<double>(z) * wait;
        busy_time += busy ? wait : 0.0;
        t += wait;
        const bool arrival = !busy || (rng() >> 11) < arrival_cut;
        const bool accepted = arrival && z < buffer;
        arrivals += accepted;
        drops += arrival && !accepted;
        services += !arrival;
        z += static_cast<int>(accepted) - static_cast<int>(!arrival);
        if (accepted) {
            on_arrival(t);
        }
        if (!arrival) {
            on_service(t);
        }
    }
    return {z, drops, arrivals, services, area + static_cast<double>(z) * (dt - t),
            z > 0 ? busy_time + (dt - t) : busy_time};
}

} // namespace

QueueEpochResult simulate_queue_epoch(int z0, double arrival_rate, double service_rate,
                                      int buffer, double dt, Rng& rng) noexcept {
    const auto untracked = [](double) noexcept {};
    return queue_epoch_loop(z0, arrival_rate, service_rate, buffer, dt, rng, untracked,
                            untracked);
}

SojournEpochResult simulate_queue_epoch_sojourn(JobRing jobs, double t0,
                                                double arrival_rate, double service_rate,
                                                int buffer, double dt, Rng& rng,
                                                SojournRecorder* recorder) {
    SojournEpochResult result;
    result.queue = queue_epoch_loop(
        jobs.size(), arrival_rate, service_rate, buffer, dt, rng,
        [&](double t) { jobs.push(t0 + t); },
        [&](double t) {
            const double sojourn = jobs.pop(t0 + t);
            result.sojourn.add(sojourn);
            if (recorder != nullptr) {
                recorder->record(sojourn);
            }
        });
    return result;
}

QueueTransientResult queue_transient_solution(int z0, double arrival_rate, double service_rate,
                                              int buffer, double dt) {
    if (z0 < 0 || z0 > buffer) {
        throw std::invalid_argument("queue_transient_solution: z0 out of range");
    }
    const auto n = static_cast<std::size_t>(buffer + 2);
    Matrix q(n, n);
    for (int i = 1; i <= buffer; ++i) {
        q(static_cast<std::size_t>(i), static_cast<std::size_t>(i - 1)) = arrival_rate;
        q(static_cast<std::size_t>(i - 1), static_cast<std::size_t>(i)) = service_rate;
    }
    for (int i = 0; i <= buffer; ++i) {
        double outflow = 0.0;
        if (i < buffer) {
            outflow += arrival_rate;
        }
        if (i > 0) {
            outflow += service_rate;
        }
        q(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) = -outflow;
    }
    q(static_cast<std::size_t>(buffer + 1), static_cast<std::size_t>(buffer)) = arrival_rate;

    std::vector<double> e(n, 0.0);
    e[static_cast<std::size_t>(z0)] = 1.0;
    const std::vector<double> propagated = expm_uniformized_action(q, dt, e);

    QueueTransientResult result;
    result.state_distribution.assign(propagated.begin(), propagated.end() - 1);
    result.expected_drops = propagated.back();
    return result;
}

} // namespace mflb
