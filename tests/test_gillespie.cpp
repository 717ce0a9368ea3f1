// Statistical exactness tests for the Gillespie queue simulator against the
// transient master-equation solution.
#include "math/expm.hpp"
#include "math/matrix.hpp"
#include "queueing/gillespie.hpp"
#include "queueing/sojourn.hpp"
#include "support/statistics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

namespace mflb {
namespace {

TEST(Gillespie, NoEventsWithZeroRates) {
    Rng rng(1);
    const auto r = simulate_queue_epoch(0, 0.0, 1.0, 5, 10.0, rng);
    EXPECT_EQ(r.final_state, 0);
    EXPECT_EQ(r.drops, 0u);
    EXPECT_EQ(r.arrivals, 0u);
    EXPECT_EQ(r.services, 0u);
    EXPECT_DOUBLE_EQ(r.queue_length_area, 0.0);
}

TEST(Gillespie, PureDrainEmptiesQueue) {
    Rng rng(2);
    int drained = 0;
    for (int rep = 0; rep < 200; ++rep) {
        const auto r = simulate_queue_epoch(5, 0.0, 1.0, 5, 50.0, rng);
        EXPECT_EQ(r.drops, 0u);
        drained += (r.final_state == 0) ? 1 : 0;
    }
    EXPECT_EQ(drained, 200); // P(not drained in 50 time units) ~ 0
}

TEST(Gillespie, StateStaysInBuffer) {
    Rng rng(3);
    for (int rep = 0; rep < 500; ++rep) {
        const auto r = simulate_queue_epoch(rep % 6, 2.5, 0.7, 5, 3.0, rng);
        EXPECT_GE(r.final_state, 0);
        EXPECT_LE(r.final_state, 5);
        EXPECT_LE(r.queue_length_area, 5.0 * 3.0 + 1e-12);
        EXPECT_LE(r.busy_time, 3.0 + 1e-12);
    }
}

TEST(Gillespie, ConservationPerSamplePath) {
    // final = initial + arrivals - services for every path.
    Rng rng(4);
    for (int rep = 0; rep < 1000; ++rep) {
        const int z0 = rep % 6;
        const auto r = simulate_queue_epoch(z0, 1.3, 0.9, 5, 4.0, rng);
        EXPECT_EQ(r.final_state,
                  z0 + static_cast<int>(r.arrivals) - static_cast<int>(r.services));
    }
}

TEST(Gillespie, TransientDistributionMatchesMasterEquation) {
    // Empirical law of z(dt) vs uniformization of the generator. 40k
    // replications give ~0.005 standard error per bin.
    const double arrival = 0.9, service = 1.0, dt = 5.0;
    const int buffer = 5, z0 = 0;
    const auto oracle = queue_transient_solution(z0, arrival, service, buffer, dt);
    Rng rng(5);
    const int n = 40000;
    std::vector<double> counts(static_cast<std::size_t>(buffer) + 1, 0.0);
    RunningStat drops;
    for (int rep = 0; rep < n; ++rep) {
        const auto r = simulate_queue_epoch(z0, arrival, service, buffer, dt, rng);
        counts[static_cast<std::size_t>(r.final_state)] += 1.0;
        drops.add(static_cast<double>(r.drops));
    }
    for (std::size_t z = 0; z <= static_cast<std::size_t>(buffer); ++z) {
        EXPECT_NEAR(counts[z] / n, oracle.state_distribution[z], 0.012) << "z=" << z;
    }
    EXPECT_NEAR(drops.mean(), oracle.expected_drops, 4.0 * drops.standard_error() + 0.01);
}

TEST(Gillespie, OverloadedQueueDropsExpectedMass) {
    // a = 3, alpha = 1, small buffer: long-run drop rate ~ a - alpha once
    // the buffer saturates.
    const double arrival = 3.0, service = 1.0, dt = 30.0;
    Rng rng(6);
    RunningStat drops;
    for (int rep = 0; rep < 3000; ++rep) {
        const auto r = simulate_queue_epoch(5, arrival, service, 5, dt, rng);
        drops.add(static_cast<double>(r.drops));
    }
    const auto oracle = queue_transient_solution(5, arrival, service, 5, dt);
    EXPECT_NEAR(drops.mean(), oracle.expected_drops, 5.0 * drops.standard_error());
    EXPECT_GT(drops.mean(), (arrival - service) * dt * 0.9);
}

TEST(Gillespie, UtilizationMatchesErlangLoss) {
    // For a long epoch the busy fraction converges to 1 - p0 of the
    // stationary M/M/1/B law with rho = a/alpha.
    const double arrival = 0.8, service = 1.0, dt = 400.0;
    const int buffer = 5;
    const double rho = arrival / service;
    double normalizer = 0.0;
    for (int k = 0; k <= buffer; ++k) {
        normalizer += std::pow(rho, k);
    }
    const double p0 = 1.0 / normalizer;
    Rng rng(7);
    RunningStat busy;
    for (int rep = 0; rep < 300; ++rep) {
        const auto r = simulate_queue_epoch(0, arrival, service, buffer, dt, rng);
        busy.add(r.busy_time / dt);
    }
    EXPECT_NEAR(busy.mean(), 1.0 - p0, 0.01);
}

/// Exact expectation of every tally of one queue-epoch. The generator is
/// built like `queue_transient_solution`'s: the M/M/1/B chain on {0..B}
/// plus one bookkeeping row per tally, whose entry in column z is the rate
/// at which that tally grows in state z (eq. (27)'s drop row is one of them).
struct ExactTallies {
    double drops = 0.0;
    double arrivals = 0.0;
    double services = 0.0;
    double area = 0.0;
    double busy = 0.0;
    double final_state = 0.0;
};

ExactTallies exact_tallies(int z0, double arrival, double service, int buffer, double dt) {
    enum Row : std::size_t { kDrops, kArrivals, kServices, kArea, kBusy, kRows };
    const auto n = static_cast<std::size_t>(buffer) + 1;
    Matrix q(n + kRows, n + kRows);
    for (std::size_t z = 0; z < n; ++z) {
        const bool full = z + 1 == n;
        if (!full) {
            q(z + 1, z) = arrival;
            q(z, z) -= arrival;
        }
        if (z > 0) {
            q(z - 1, z) = service;
            q(z, z) -= service;
        }
        q(n + kDrops, z) = full ? arrival : 0.0;
        q(n + kArrivals, z) = full ? 0.0 : arrival;
        q(n + kServices, z) = z > 0 ? service : 0.0;
        q(n + kArea, z) = static_cast<double>(z);
        q(n + kBusy, z) = z > 0 ? 1.0 : 0.0;
    }
    std::vector<double> start(n + kRows, 0.0);
    start[static_cast<std::size_t>(z0)] = 1.0;
    const std::vector<double> p = expm_uniformized_action(q, dt, start);
    ExactTallies exact{p[n + kDrops], p[n + kArrivals], p[n + kServices],
                       p[n + kArea],  p[n + kBusy],     0.0};
    for (std::size_t z = 0; z < n; ++z) {
        exact.final_state += static_cast<double>(z) * p[z];
    }
    return exact;
}

struct TallySample {
    RunningStat drops, arrivals, services, area, busy, final_state;
    void add(const QueueEpochResult& r) {
        drops.add(static_cast<double>(r.drops));
        arrivals.add(static_cast<double>(r.arrivals));
        services.add(static_cast<double>(r.services));
        area.add(r.queue_length_area);
        busy.add(r.busy_time);
        final_state.add(static_cast<double>(r.final_state));
    }
};

void expect_exact(const TallySample& got, const ExactTallies& want) {
    const auto near = [](const char* name, const RunningStat& stat, double exact) {
        // 1e-9 absorbs rounding where a tally is deterministic (SE 0).
        EXPECT_NEAR(stat.mean(), exact, 4.0 * stat.standard_error() + 1e-9) << name;
    };
    near("drops", got.drops, want.drops);
    near("accepted arrivals", got.arrivals, want.arrivals);
    near("services", got.services, want.services);
    near("queue-length area", got.area, want.area);
    near("busy time", got.busy, want.busy);
    near("final state", got.final_state, want.final_state);
}

struct KernelCase {
    int z0;
    double arrival;
    double service;
    int buffer;
    double dt;
    std::uint64_t seed;
};

void PrintTo(const KernelCase& c, std::ostream* os) {
    *os << "z0=" << c.z0 << " λ=" << c.arrival << " μ=" << c.service << " B=" << c.buffer
        << " Δt=" << c.dt;
}

class KernelTallies : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelTallies, BothInstantiationsMatchTheExactExpectations) {
    // simulate_queue_epoch and simulate_queue_epoch_sojourn run one loop;
    // each is held to the exact mean of every tally on its own stream.
    const auto [z0, arrival, service, buffer, dt, seed] = GetParam();
    const ExactTallies exact = exact_tallies(z0, arrival, service, buffer, dt);
    EXPECT_NEAR(exact.drops,
                queue_transient_solution(z0, arrival, service, buffer, dt).expected_drops,
                1e-12);
    constexpr int kReplications = 400000;
    TallySample plain;
    Rng rng(seed);
    for (int rep = 0; rep < kReplications; ++rep) {
        plain.add(simulate_queue_epoch(z0, arrival, service, buffer, dt, rng));
    }
    {
        SCOPED_TRACE("simulate_queue_epoch");
        expect_exact(plain, exact);
    }

    TallySample tracked;
    Rng tracked_rng(seed + 1);
    JobRings rings;
    const std::vector<int> fill{z0};
    for (int rep = 0; rep < kReplications; ++rep) {
        rings.reset(fill, buffer);
        tracked.add(simulate_queue_epoch_sojourn(rings[0], 0.0, arrival, service, buffer, dt,
                                                 tracked_rng)
                        .queue);
    }
    {
        SCOPED_TRACE("simulate_queue_epoch_sojourn");
        expect_exact(tracked, exact);
    }
}

// Idle and busy starts, under and over load, a pure drain (λ = 0), a small
// buffer over a long epoch, and μ < λ with B = 2 over a short one.
INSTANTIATE_TEST_SUITE_P(Points, KernelTallies,
                         ::testing::Values(KernelCase{0, 0.9, 1.0, 5, 5.0, 11},
                                           KernelCase{3, 0.75, 1.0, 5, 1.0, 13},
                                           KernelCase{5, 2.0, 1.0, 5, 2.0, 17},
                                           KernelCase{2, 0.0, 1.0, 5, 3.0, 19},
                                           KernelCase{0, 0.3, 1.0, 3, 10.0, 23},
                                           KernelCase{1, 1.7, 0.5, 2, 0.5, 29}));

TEST(TransientSolution, RejectsOutOfRangeStart) {
    EXPECT_THROW(queue_transient_solution(-1, 1.0, 1.0, 5, 1.0), std::invalid_argument);
    EXPECT_THROW(queue_transient_solution(6, 1.0, 1.0, 5, 1.0), std::invalid_argument);
}

// Property sweep across the paper's parameter grid: empirical mean state
// matches the master equation within Monte Carlo error.
struct GillespieCase {
    double arrival;
    double dt;
    int z0;
};

class GillespieAgreement : public ::testing::TestWithParam<GillespieCase> {};

TEST_P(GillespieAgreement, MeanFinalStateMatchesOracle) {
    const auto [arrival, dt, z0] = GetParam();
    const double service = 1.0;
    const int buffer = 5;
    const auto oracle = queue_transient_solution(z0, arrival, service, buffer, dt);
    double oracle_mean = 0.0;
    for (std::size_t z = 0; z <= 5; ++z) {
        oracle_mean += static_cast<double>(z) * oracle.state_distribution[z];
    }
    Rng rng(static_cast<std::uint64_t>(z0) * 1000 + static_cast<std::uint64_t>(dt * 10));
    RunningStat final_state;
    for (int rep = 0; rep < 8000; ++rep) {
        final_state.add(static_cast<double>(
            simulate_queue_epoch(z0, arrival, service, buffer, dt, rng).final_state));
    }
    EXPECT_NEAR(final_state.mean(), oracle_mean, 5.0 * final_state.standard_error() + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Grid, GillespieAgreement,
                         ::testing::Values(GillespieCase{0.6, 1.0, 0}, GillespieCase{0.9, 5.0, 0},
                                           GillespieCase{0.9, 10.0, 5},
                                           GillespieCase{1.8, 3.0, 2},
                                           GillespieCase{0.3, 7.0, 4}));

} // namespace
} // namespace mflb
