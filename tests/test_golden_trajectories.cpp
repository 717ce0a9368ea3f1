// Golden determinism tests: for fixed seeds, the unified-simulation-core
// refactor must reproduce the episode statistics of the pre-refactor (seed)
// implementations bit for bit. The constants below were recorded by running
// the seed implementation (commit 565c5b6) with exactly these configurations
// and printing every field at %.17g, which round-trips doubles exactly.
//
// If one of these tests fails, the λ-chain draw order, the per-epoch kernels,
// the episode accumulation arithmetic, or the uniformization arithmetic
// changed — all of which silently invalidate every experiment that cites
// earlier numbers. Do not update the constants unless the change is an
// intentional, documented semantics change.
#include "core/mflb.hpp"

#include <gtest/gtest.h>

namespace mflb {
namespace {

TEST(GoldenTrajectories, FiniteSystemAggregatedJsq) {
    FiniteSystemConfig config;
    config.dt = 2.0;
    config.num_queues = 32;
    config.num_clients = 1024;
    config.horizon = 25;
    FiniteSystem system(config);
    const FixedRulePolicy jsq = make_jsq_policy(system.tuple_space());
    Rng rng(42);
    system.reset(rng);
    const EpisodeStats stats = system.run_episode(jsq, rng);
    // Re-recorded when the per-queue kernel moved to ziggurat clocks and
    // stopped drawing a choice at an idle server; the class draws on the
    // caller's stream then re-draw the λ path too.
    EXPECT_EQ(stats.total_drops_per_queue, 1.0625);
    EXPECT_EQ(stats.discounted_return, -0.91200503731196447);
    EXPECT_EQ(stats.dropped_packets, 34u);
    EXPECT_EQ(stats.accepted_packets, 1250u);
    EXPECT_EQ(stats.mean_queue_length, 1.7138471787023049);
    EXPECT_EQ(stats.server_utilization, 0.74820552324444534);
    EXPECT_EQ(stats.drops_per_epoch.size(), 25u);
}

TEST(GoldenTrajectories, FiniteSystemPerClientRnd) {
    FiniteSystemConfig config;
    config.dt = 3.0;
    config.num_queues = 16;
    config.num_clients = 200;
    config.horizon = 10;
    config.client_model = ClientModel::PerClient;
    FiniteSystem system(config);
    const FixedRulePolicy rnd = make_rnd_policy(system.tuple_space());
    Rng rng(7);
    system.reset(rng);
    const EpisodeStats stats = system.run_episode(rnd, rng);
    // Re-recorded when the per-queue kernel moved to ziggurat clocks and
    // stopped drawing a choice at an idle server; Algorithm 1's draws on the
    // caller's stream then re-draw the λ path too.
    EXPECT_EQ(stats.total_drops_per_queue, 3.6875);
    EXPECT_EQ(stats.discounted_return, -3.5219526959673573);
    EXPECT_EQ(stats.dropped_packets, 59u);
    EXPECT_EQ(stats.accepted_packets, 372u);
    EXPECT_EQ(stats.mean_queue_length, 1.9297635717857269);
    EXPECT_EQ(stats.server_utilization, 0.74341644230720183);
}

TEST(GoldenTrajectories, FiniteSystemInfiniteClientsSojournSampledHistogram) {
    FiniteSystemConfig config;
    config.dt = 2.0;
    config.num_queues = 20;
    config.horizon = 12;
    config.client_model = ClientModel::InfiniteClients;
    config.track_sojourn = true;
    config.histogram_sample_size = 8;
    FiniteSystem system(config);
    const FixedRulePolicy jsq = make_jsq_policy(system.tuple_space());
    Rng rng(11);
    system.reset(rng);
    const EpisodeStats stats = system.run_episode(jsq, rng);
    // Re-recorded when the per-queue kernel moved to ziggurat clocks and
    // stopped drawing a choice at an idle server.
    EXPECT_EQ(stats.total_drops_per_queue, 0.80000000000000016);
    EXPECT_EQ(stats.discounted_return, -0.75100941021071166);
    EXPECT_EQ(stats.dropped_packets, 16u);
    EXPECT_EQ(stats.accepted_packets, 411u);
    EXPECT_EQ(stats.mean_queue_length, 1.9891501593734671);
    EXPECT_EQ(stats.server_utilization, 0.80401434325908061);
    EXPECT_EQ(stats.mean_sojourn, 2.3214740024091984);
    EXPECT_EQ(stats.completed_jobs, 361u);
}

TEST(GoldenTrajectories, FiniteSystemConditionedLambdaReplay) {
    FiniteSystemConfig config;
    config.dt = 2.0;
    config.num_queues = 24;
    config.num_clients = 576;
    config.horizon = 8;
    FiniteSystem system(config);
    const FixedRulePolicy jsq = make_jsq_policy(system.tuple_space());
    Rng rng(13);
    system.reset_conditioned({0, 1, 1, 0, 1, 0, 0, 1}, rng);
    const EpisodeStats stats = system.run_episode(jsq, rng);
    // Re-recorded when the per-queue kernel moved to ziggurat clocks and
    // stopped drawing a choice at an idle server.
    EXPECT_EQ(stats.total_drops_per_queue, 0.083333333333333329);
    EXPECT_EQ(stats.discounted_return, -0.079253173308374988);
    EXPECT_EQ(stats.dropped_packets, 2u);
    EXPECT_EQ(stats.accepted_packets, 256u);
    EXPECT_EQ(stats.mean_queue_length, 1.0687725132778294);
    EXPECT_EQ(stats.server_utilization, 0.59163833425865719);
}

TEST(GoldenTrajectories, HeterogeneousFleetSedDAndJsqD) {
    // The Section 5 fleet (half the servers at speed 0.5, half at 1.5) on
    // FiniteSystem under the sed-d and jsq-d routers. Re-recorded when
    // FiniteSystem became the epoch engine at K = 1: every queue draw now
    // comes from the shard stream fork(0), not the caller's.
    FiniteSystemConfig config;
    config.dt = 2.0;
    config.num_queues = 24;
    config.horizon = 15;
    config.server_speeds.assign(24, 0.5);
    for (std::size_t j = 12; j < 24; ++j) {
        config.server_speeds[j] = 1.5;
    }
    {
        config.router.kind = RouterKind::SedD;
        FiniteSystem system(config);
        Rng rng(7);
        system.reset(rng);
        const EpisodeStats stats = system.run_episode(rng);
        EXPECT_EQ(stats.total_drops_per_queue, 1.3333333333333333);
        EXPECT_EQ(stats.dropped_packets, 32u);
        EXPECT_EQ(stats.mean_queue_length, 1.8594222338374196);
    }
    {
        config.router.kind = RouterKind::JsqD;
        FiniteSystem system(config);
        Rng rng(7);
        system.reset(rng);
        const EpisodeStats stats = system.run_episode(rng);
        EXPECT_EQ(stats.total_drops_per_queue, 1.5);
        EXPECT_EQ(stats.dropped_packets, 36u);
        EXPECT_EQ(stats.mean_queue_length, 2.1756979261886888);
    }
}

TEST(GoldenTrajectories, MemorySystemAllDisciplines) {
    MemorySystemConfig config;
    config.dt = 3.0;
    config.num_queues = 20;
    config.num_clients = 400;
    config.horizon = 12;
    const auto run = [&](MemoryDiscipline discipline) {
        MemorySystem system(config);
        Rng rng(9);
        system.reset(rng);
        return system.run_episode(discipline, rng);
    };
    // Re-recorded when the per-queue kernel moved to ziggurat clocks and
    // stopped drawing a choice at an idle server.
    const MemoryEpisodeStats with_memory = run(MemoryDiscipline::JsqDMemory);
    EXPECT_EQ(with_memory.total_drops_per_queue, 1.5999999999999996);
    EXPECT_EQ(with_memory.dropped_packets, 32u);
    EXPECT_EQ(with_memory.memory_hit_rate, 0.15479166666666666);
    const MemoryEpisodeStats jsq = run(MemoryDiscipline::JsqD);
    EXPECT_EQ(jsq.total_drops_per_queue, 2.3500000000000001);
    EXPECT_EQ(jsq.dropped_packets, 47u);
    EXPECT_EQ(jsq.memory_hit_rate, 0.0);
    const MemoryEpisodeStats rnd = run(MemoryDiscipline::Random);
    EXPECT_EQ(rnd.total_drops_per_queue, 2.6499999999999999);
    EXPECT_EQ(rnd.dropped_packets, 53u);
    EXPECT_EQ(rnd.memory_hit_rate, 0.0);
}

// The DES constants below were recorded immediately before the classical-
// router / service-distribution refactor (PR 6) by running the pre-refactor
// library with exactly these configurations and printing every field at
// %.17g. They pin that making the learned-policy path "just another router"
// and threading `ServiceDistribution` through the departure sampling changed
// no draw order: default-configured (exponential service, homogeneous,
// RouterKind::Policy) trajectories are bit-identical.

TEST(GoldenTrajectories, DesSystemAggregatedJsq) {
    FiniteSystemConfig config;
    config.dt = 2.0;
    config.num_queues = 32;
    config.num_clients = 1024;
    config.horizon = 25;
    DesSystem system(config);
    const FixedRulePolicy jsq = make_jsq_policy(system.tuple_space());
    Rng rng(42);
    system.reset(rng);
    const EpisodeStats stats = system.run_episode(jsq, rng);
    // Re-recorded with the class-level Aggregated draw.
    EXPECT_EQ(stats.total_drops_per_queue, 0.6875);
    EXPECT_EQ(stats.discounted_return, -0.61026021213696391);
    EXPECT_EQ(stats.dropped_packets, 22u);
    EXPECT_EQ(stats.accepted_packets, 1253u);
    EXPECT_EQ(stats.mean_queue_length, 1.5896254984619875);
    EXPECT_EQ(stats.server_utilization, 0.72487255806482542);
}

TEST(GoldenTrajectories, DesSystemInfiniteClientsSojourn) {
    FiniteSystemConfig config;
    config.dt = 2.0;
    config.num_queues = 20;
    config.horizon = 12;
    config.client_model = ClientModel::InfiniteClients;
    config.track_sojourn = true;
    config.histogram_sample_size = 8;
    DesSystem system(config);
    const FixedRulePolicy jsq = make_jsq_policy(system.tuple_space());
    Rng rng(11);
    system.reset(rng);
    const EpisodeStats stats = system.run_episode(jsq, rng);
    EXPECT_EQ(stats.total_drops_per_queue, 0.39999999999999997);
    EXPECT_EQ(stats.discounted_return, -0.36636664714822881);
    EXPECT_EQ(stats.dropped_packets, 8u);
    EXPECT_EQ(stats.accepted_packets, 390u);
    EXPECT_EQ(stats.mean_queue_length, 1.8958546041809639);
    EXPECT_EQ(stats.server_utilization, 0.74700190425917834);
    EXPECT_EQ(stats.mean_sojourn, 2.265656641594195);
    EXPECT_EQ(stats.completed_jobs, 344u);
    // Histogram bucket midpoints; the exact nearest-rank sample quantiles
    // of this run are 1.7272458371005488, 6.7844102146224898 and
    // 8.2660919885534661, each inside the pinned value's bucket.
    EXPECT_EQ(stats.sojourn_p50, 1.73046875);
    EXPECT_EQ(stats.sojourn_p95, 6.796875);
    EXPECT_EQ(stats.sojourn_p99, 8.28125);
}

TEST(GoldenTrajectories, ShardedDesSystemJsqFourShards) {
    FiniteSystemConfig config;
    config.dt = 2.0;
    config.num_queues = 32;
    config.num_clients = 1024;
    config.horizon = 20;
    config.shards = 4;
    config.threads = 1;
    config.track_sojourn = true;
    FiniteSystem system(config);
    const FixedRulePolicy jsq = make_jsq_policy(system.tuple_space());
    Rng rng(17);
    system.reset(rng);
    const EpisodeStats stats = system.run_episode(jsq, rng);
    // Recorded from the per-queue-kernel shard tasks with the class-level
    // Aggregated draw, not the seed implementation; re-recorded when the
    // kernel moved to ziggurat clocks and stopped drawing a choice at an
    // idle server.
    EXPECT_EQ(stats.total_drops_per_queue, 1.03125);
    EXPECT_EQ(stats.discounted_return, -0.92549792680087861);
    EXPECT_EQ(stats.dropped_packets, 33u);
    EXPECT_EQ(stats.accepted_packets, 1043u);
    EXPECT_EQ(stats.mean_queue_length, 1.7909735836587228);
    EXPECT_EQ(stats.server_utilization, 0.7805116646069602);
    EXPECT_EQ(stats.mean_sojourn, 2.200580143138521);
    EXPECT_EQ(stats.completed_jobs, 981u);
    // Exact cross-shard histogram merge: bucket midpoints of the merged
    // per-shard recorders.
    EXPECT_EQ(stats.sojourn_p50, 1.87890625);
    EXPECT_EQ(stats.sojourn_p95, 5.859375);
    EXPECT_EQ(stats.sojourn_p99, 7.765625);
}

TEST(GoldenTrajectories, MfcEnvUniformizationArithmetic) {
    // Pins the ExactDiscretization workspace rewrite: a 20-epoch mean-field
    // rollout must match the seed implementation's per-call uniformization
    // exactly, both in the summed stage costs and in the final state ν.
    MfcConfig config;
    config.dt = 5.0;
    config.horizon = 20;
    MfcEnv env(config);
    const DecisionRule jsq = DecisionRule::mf_jsq(TupleSpace(config.queue.num_states(), 2));
    Rng rng(5);
    env.reset(rng);
    double total = 0.0;
    while (!env.done()) {
        total += env.step(jsq, rng).drops;
    }
    EXPECT_EQ(total, 4.6231605630382822);
    const std::vector<double> expected_nu{0.25772971413889179, 0.18440906461857923,
                                          0.16184477448777165, 0.14165750175894212,
                                          0.12619069034436833, 0.12816825465044371};
    ASSERT_EQ(env.nu().size(), expected_nu.size());
    for (std::size_t z = 0; z < expected_nu.size(); ++z) {
        EXPECT_EQ(env.nu()[z], expected_nu[z]) << "z=" << z;
    }
}

} // namespace
} // namespace mflb
