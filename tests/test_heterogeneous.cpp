// Tests for the heterogeneous-server extension: the `sed-d` router
// (Shortest Expected Delay over d sampled queues) on fleets with per-queue
// server speeds, run on every finite-system backend.
#include "core/mflb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace mflb {
namespace {

/// `num_queues` servers, the first half at `slow`, the rest at `fast`.
FiniteSystemConfig mixed_config(RouterKind kind, double slow = 0.5, double fast = 1.5,
                                std::size_t num_queues = 20) {
    FiniteSystemConfig config;
    config.num_queues = num_queues;
    config.horizon = 20;
    config.dt = 2.0;
    config.threads = 2;
    config.server_speeds.assign(num_queues, slow);
    std::fill(config.server_speeds.begin() + static_cast<std::ptrdiff_t>(num_queues / 2),
              config.server_speeds.end(), fast);
    config.router.kind = kind;
    config.router.d = 2;
    return config;
}

TEST(SedDRouter, WeighsServerSpeeds) {
    // (3+1)/2.0 = 2.0 beats (1+1)/0.4 = 5.0: SED(2) sends most jobs to the
    // longer but much faster queue, where JSQ(2) prefers the shorter one.
    // With d = 2 of M = 2 queues the better queue wins unless both samples
    // hit the worse one: weights 1 − 1/4 and 1/4.
    const std::vector<double> speeds{2.0, 0.4};
    const std::vector<int> states{3, 1};
    std::vector<double> w(2);
    EpochRouter sed({RouterKind::SedD, 2, 0.0}, 2, 6, 1.0, speeds);
    sed.epoch_weights(states, 0, w);
    EXPECT_DOUBLE_EQ(w[0], 0.75);
    EXPECT_DOUBLE_EQ(w[1], 0.25);
    EpochRouter jsq({RouterKind::JsqD, 2, 0.0}, 2, 6, 1.0, speeds);
    jsq.epoch_weights(states, 0, w);
    EXPECT_DOUBLE_EQ(w[0], 0.25);
    EXPECT_DOUBLE_EQ(w[1], 0.75);
}

TEST(SedDRouter, ValidatesItsInputs) {
    // The backends check speeds in checked_config (tests/test_finite_system.cpp);
    // the router checks them again for direct callers.
    const std::vector<double> speeds(4, 1.0);
    EXPECT_THROW(EpochRouter({RouterKind::SedD, 0, 0.0}, 4, 6, 1.0, speeds),
                 std::invalid_argument);
    EXPECT_THROW(EpochRouter({RouterKind::SedD, 2, 0.0}, 5, 6, 1.0, speeds),
                 std::invalid_argument);
    for (const double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
        std::vector<double> with_bad = speeds;
        with_bad[2] = bad;
        EXPECT_THROW(EpochRouter({RouterKind::SedD, 2, 0.0}, 4, 6, 1.0, with_bad),
                     std::invalid_argument)
            << bad;
    }
}

template <class System>
void expect_runs_to_horizon(const FiniteSystemConfig& config, const char* backend) {
    System system(config);
    Rng rng(5);
    system.reset(rng);
    const EpisodeStats stats = system.run_episode(rng);
    EXPECT_TRUE(system.done()) << backend;
    EXPECT_GT(stats.accepted_packets, 0u) << backend;
    EXPECT_GE(stats.total_drops_per_queue, 0.0) << backend;
    EXPECT_GE(stats.mean_queue_length, 0.0) << backend;
    EXPECT_THROW(system.step_router(rng), std::logic_error) << backend;
}

TEST(SedDRouter, EpisodeRunsToHorizonOnEveryBackend) {
    const FiniteSystemConfig config = mixed_config(RouterKind::SedD);
    expect_runs_to_horizon<FiniteSystem>(config, "finite");
    expect_runs_to_horizon<DesSystem>(config, "des");
    expect_runs_to_horizon<ShardedDesSystem>(config, "sharded");
}

template <class System>
double mean_drops(const FiniteSystemConfig& config) {
    RunningStat drops;
    for (int rep = 0; rep < 25; ++rep) {
        System system(config);
        Rng rng(100 + rep);
        system.reset(rng);
        drops.add(system.run_episode(rng).total_drops_per_queue);
    }
    return drops.mean();
}

template <class System>
void expect_sed_beats_jsq(const char* backend) {
    // With strongly heterogeneous speeds and small delay, exploiting the
    // speeds (SED) should drop fewer jobs than fill-only JSQ.
    FiniteSystemConfig sed = mixed_config(RouterKind::SedD, 0.2, 1.8);
    sed.dt = 1.0;
    sed.horizon = 60;
    FiniteSystemConfig jsq = sed;
    jsq.router.kind = RouterKind::JsqD;
    const double sed_drops = mean_drops<System>(sed);
    const double jsq_drops = mean_drops<System>(jsq);
    EXPECT_LT(sed_drops, jsq_drops) << backend;
}

TEST(SedDRouter, BeatsJsqDWithVeryUnevenServersOnEveryBackend) {
    expect_sed_beats_jsq<FiniteSystem>("finite");
    expect_sed_beats_jsq<DesSystem>("des");
    expect_sed_beats_jsq<ShardedDesSystem>("sharded");
}

} // namespace
} // namespace mflb
