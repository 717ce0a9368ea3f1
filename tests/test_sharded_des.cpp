// Tests for the sharded event-driven simulator (src/des/sharded_des_system):
// shard partition sanity, per-epoch conservation, the determinism contract
// (bit-identical results for fixed (seed, K) regardless of thread count, all
// three client models), statistical equivalence to DesSystem on registry
// scenarios (CI overlap), conditioned λ replay, sojourn percentiles, and the
// evaluator/backend dispatch plumbing.
#include "des/sharded_des_system.hpp"

#include "core/evaluator.hpp"
#include "core/scenarios.hpp"
#include "policies/fixed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace mflb {
namespace {

FiniteSystemConfig small_config(ClientModel model, std::size_t shards, double dt = 2.0,
                                int horizon = 40) {
    FiniteSystemConfig config;
    config.num_queues = 30;
    config.num_clients = 900;
    config.dt = dt;
    config.horizon = horizon;
    config.client_model = model;
    config.shards = shards;
    return config;
}

// ---------------------------------------------------------------------------
// Partition and construction
// ---------------------------------------------------------------------------

TEST(ShardedDesSystem, PartitionCoversAllQueuesInContiguousBlocks) {
    FiniteSystemConfig config = small_config(ClientModel::Aggregated, 4);
    config.num_queues = 10;
    ShardedDesSystem system(config);
    ASSERT_EQ(system.num_shards(), 4u);
    // 10 over 4: near-equal blocks {3, 3, 2, 2}, contiguous and exhaustive.
    std::size_t expected_begin = 0;
    const std::size_t sizes[4] = {3, 3, 2, 2};
    for (std::size_t s = 0; s < 4; ++s) {
        const auto [begin, end] = system.shard_range(s);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_EQ(end - begin, sizes[s]);
        expected_begin = end;
    }
    EXPECT_EQ(expected_begin, config.num_queues);
}

TEST(ShardedDesSystem, ShardCountClampsAndDefaults) {
    FiniteSystemConfig config = small_config(ClientModel::Aggregated, 100);
    config.num_queues = 5;
    EXPECT_EQ(ShardedDesSystem(config).num_shards(), 5u); // K clamped to M
    config.shards = 0;
    EXPECT_EQ(ShardedDesSystem(config).num_shards(), 5u); // default min(8, M)
    config.num_queues = 100;
    EXPECT_EQ(ShardedDesSystem(config).num_shards(),
              ShardedDesSystem::kDefaultShards);
}

TEST(ShardedDesSystem, RejectsInvalidConfigsAndRules) {
    FiniteSystemConfig config = small_config(ClientModel::Aggregated, 3);
    config.num_clients = 0;
    EXPECT_THROW(ShardedDesSystem{config}, std::invalid_argument);
    config = small_config(ClientModel::InfiniteClients, 3);
    config.nu0 = {0.5, 0.5}; // wrong support size for B = 5
    EXPECT_THROW(ShardedDesSystem{config}, std::invalid_argument);

    ShardedDesSystem system(small_config(ClientModel::Aggregated, 3));
    Rng rng(1);
    system.reset(rng);
    const DecisionRule wrong = DecisionRule::mf_rnd(TupleSpace(3, 2));
    EXPECT_THROW(system.step_with_rule(wrong, rng), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Mechanics: conservation, histogram, conditioned replay
// ---------------------------------------------------------------------------

TEST(ShardedDesSystem, ConservesJobsAndCountsEveryEpoch) {
    for (const ClientModel model :
         {ClientModel::PerClient, ClientModel::Aggregated, ClientModel::InfiniteClients}) {
        SCOPED_TRACE(static_cast<int>(model));
        ShardedDesSystem system(small_config(model, 4));
        const DecisionRule h = DecisionRule::mf_jsq(system.tuple_space());
        Rng rng(7);
        system.reset(rng);
        while (!system.done()) {
            const auto before = system.queue_states();
            const std::int64_t jobs_before =
                std::accumulate(before.begin(), before.end(), std::int64_t{0});
            const EpochStats stats = system.step_with_rule(h, rng);
            const auto& after = system.queue_states();
            std::int64_t jobs_after = 0;
            for (const int z : after) {
                ASSERT_GE(z, 0);
                ASSERT_LE(z, system.config().queue.buffer);
                jobs_after += z;
            }
            EXPECT_EQ(jobs_after, jobs_before +
                                      static_cast<std::int64_t>(stats.accepted_packets) -
                                      static_cast<std::int64_t>(stats.served_packets));
            // The cross-shard histogram reduction must match a direct count.
            const std::vector<double> hist = system.empirical_distribution();
            double total = 0.0;
            for (std::size_t z = 0; z < hist.size(); ++z) {
                const auto direct = static_cast<double>(
                    std::count(after.begin(), after.end(), static_cast<int>(z)));
                EXPECT_DOUBLE_EQ(hist[z] * static_cast<double>(after.size()), direct);
                total += hist[z];
            }
            EXPECT_NEAR(total, 1.0, 1e-12);
            EXPECT_GE(stats.server_utilization, 0.0);
            EXPECT_LE(stats.server_utilization, 1.0);
            EXPECT_GE(stats.mean_queue_length, 0.0);
            EXPECT_LE(stats.mean_queue_length,
                      static_cast<double>(system.config().queue.buffer));
        }
        EXPECT_THROW(system.step_with_rule(h, rng), std::logic_error);
    }
}

TEST(ShardedDesSystem, ConditionedReplayPinsTheLambdaPath) {
    FiniteSystemConfig config = small_config(ClientModel::InfiniteClients, 3);
    config.horizon = 10;
    ShardedDesSystem system(config);
    const DecisionRule h = DecisionRule::mf_rnd(system.tuple_space());
    const std::vector<std::size_t> path{0, 1, 1, 0, 1};
    Rng rng(3);
    system.reset_conditioned(path, rng);
    for (int t = 0; t < config.horizon; ++t) {
        const std::size_t expected =
            path[std::min<std::size_t>(static_cast<std::size_t>(t), path.size() - 1)];
        EXPECT_EQ(system.lambda_state(), expected) << "epoch " << t;
        system.step_with_rule(h, rng);
    }
}

// ---------------------------------------------------------------------------
// Determinism contract: (seed, K) fixes results; thread count never does
// ---------------------------------------------------------------------------

DesEpisodeStats run_sharded_episode(ClientModel model, std::size_t shards,
                                    std::size_t threads, bool sojourn = false,
                                    bool pipeline = true,
                                    FelKind fel = FelKind::Calendar) {
    FiniteSystemConfig config = small_config(model, shards, 2.0, 25);
    config.threads = threads;
    config.track_sojourn = sojourn;
    config.pipeline = pipeline;
    config.fel = fel;
    ShardedDesSystem system(config);
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy policy = make_jsq_policy(space);
    Rng rng(91);
    system.reset(rng);
    return system.run_episode(policy, rng);
}

void expect_bit_identical(const DesEpisodeStats& a, const DesEpisodeStats& b) {
    EXPECT_EQ(a.dropped_packets, b.dropped_packets);
    EXPECT_EQ(a.accepted_packets, b.accepted_packets);
    EXPECT_EQ(a.completed_jobs, b.completed_jobs);
    EXPECT_EQ(a.total_drops_per_queue, b.total_drops_per_queue);
    EXPECT_EQ(a.discounted_return, b.discounted_return);
    EXPECT_EQ(a.mean_queue_length, b.mean_queue_length);
    EXPECT_EQ(a.server_utilization, b.server_utilization);
    EXPECT_EQ(a.mean_sojourn, b.mean_sojourn);
    EXPECT_EQ(a.sojourn_p50, b.sojourn_p50);
    EXPECT_EQ(a.sojourn_p95, b.sojourn_p95);
    EXPECT_EQ(a.sojourn_p99, b.sojourn_p99);
    ASSERT_EQ(a.drops_per_epoch.size(), b.drops_per_epoch.size());
    for (std::size_t t = 0; t < a.drops_per_epoch.size(); ++t) {
        EXPECT_EQ(a.drops_per_epoch[t], b.drops_per_epoch[t]) << "epoch " << t;
    }
}

TEST(ShardedDesSystem, ThreadCountNeverChangesResults) {
    // The acceptance contract of the sharded backend: same (seed, K) on 1,
    // 2, and 8 threads is bit-identical, for every client model, including
    // the per-job sojourn path.
    for (const ClientModel model :
         {ClientModel::PerClient, ClientModel::Aggregated, ClientModel::InfiniteClients}) {
        SCOPED_TRACE(static_cast<int>(model));
        const DesEpisodeStats one = run_sharded_episode(model, 4, 1, true);
        const DesEpisodeStats two = run_sharded_episode(model, 4, 2, true);
        const DesEpisodeStats eight = run_sharded_episode(model, 4, 8, true);
        expect_bit_identical(one, two);
        expect_bit_identical(one, eight);
    }
}

TEST(ShardedDesSystem, DeterministicForFixedSeedAndShards) {
    const DesEpisodeStats a = run_sharded_episode(ClientModel::Aggregated, 4, 0);
    const DesEpisodeStats b = run_sharded_episode(ClientModel::Aggregated, 4, 0);
    expect_bit_identical(a, b);
}

TEST(ShardedDesSystem, OddAndSingleShardCountsStayThreadInvariant) {
    // Odd K exercises the pass-through (orphan child) nodes of the pairwise
    // reduction tree at every level; K = 1 bypasses the tree entirely. Both
    // must honor the same bit-identity contract as the power-of-two case.
    for (const std::size_t shards : {std::size_t{1}, std::size_t{5}, std::size_t{7}}) {
        SCOPED_TRACE(shards);
        const DesEpisodeStats one =
            run_sharded_episode(ClientModel::Aggregated, shards, 1, true);
        const DesEpisodeStats two =
            run_sharded_episode(ClientModel::Aggregated, shards, 2, true);
        const DesEpisodeStats eight =
            run_sharded_episode(ClientModel::Aggregated, shards, 8, true);
        expect_bit_identical(one, two);
        expect_bit_identical(one, eight);
    }
}

TEST(ShardedDesSystem, SkewedInitialLoadStaysThreadInvariant) {
    // Nearly-full initial queues start the per-shard high-water marks at the
    // top of the state space and drain them down over the episode, covering
    // the hot_hi raise (arrivals) and shrink (empty-top) paths on both sides
    // of the reduction tree.
    const auto run = [](std::size_t threads) {
        FiniteSystemConfig config = small_config(ClientModel::Aggregated, 5, 2.0, 25);
        config.threads = threads;
        config.track_sojourn = true;
        config.nu0 = {0.1, 0.0, 0.0, 0.0, 0.1, 0.8};
        ShardedDesSystem system(config);
        const TupleSpace space(config.queue.num_states(), config.d);
        const FixedRulePolicy policy = make_jsq_policy(space);
        Rng rng(97);
        system.reset(rng);
        return system.run_episode(policy, rng);
    };
    const DesEpisodeStats one = run(1);
    const DesEpisodeStats eight = run(8);
    EXPECT_GT(one.dropped_packets, 0u); // the skew actually stresses the top states
    expect_bit_identical(one, eight);
}

TEST(ShardedDesSystem, BarrierProfileSplitsEpochTime) {
    FiniteSystemConfig config = small_config(ClientModel::Aggregated, 4, 2.0, 12);
    config.threads = 1;
    ShardedDesSystem system(config);
    const DecisionRule h = DecisionRule::mf_jsq(system.tuple_space());
    Rng rng(5);
    system.reset(rng);
    EXPECT_EQ(system.barrier_profile().epochs, 0u);
    while (!system.done()) {
        system.step_with_rule(h, rng);
    }
    const ShardedDesSystem::BarrierProfile& profile = system.barrier_profile();
    EXPECT_EQ(profile.epochs, 12u);
    EXPECT_GT(profile.serial_seconds(), 0.0);
    EXPECT_GE(profile.serial_prologue_seconds, 0.0);
    EXPECT_GE(profile.overlapped_compute_seconds, 0.0);
    EXPECT_GE(profile.reduction_seconds, 0.0);
    EXPECT_GE(profile.parallel_seconds, 0.0);
    EXPECT_GE(profile.total_seconds(), profile.serial_seconds());
    system.reset(rng); // reset clears the profile with the rest of the state
    EXPECT_EQ(system.barrier_profile().epochs, 0u);
    EXPECT_EQ(system.barrier_profile().serial_seconds(), 0.0);
    EXPECT_EQ(system.barrier_profile().overlapped_compute_seconds, 0.0);
}

TEST(ShardedDesSystem, PipelineOnAndOffAreBitIdentical) {
    // The pipelined barrier (eager reduction folds, offloaded epoch compute,
    // fused gather kernels) must reproduce the non-pipelined episode bit for
    // bit — for every client model, both FEL kinds, tree shapes with and
    // without orphan nodes (K = 1 bypasses the tree, K = 5 has pass-through
    // children, K = 8 is the full binary case), on 1, 2, and 8 threads.
    for (const ClientModel model :
         {ClientModel::PerClient, ClientModel::Aggregated, ClientModel::InfiniteClients}) {
        for (const FelKind fel : {FelKind::Heap, FelKind::Calendar}) {
            for (const std::size_t shards : {std::size_t{1}, std::size_t{5}, std::size_t{8}}) {
                SCOPED_TRACE(static_cast<int>(model) * 100 +
                             static_cast<int>(fel) * 10 + static_cast<int>(shards));
                const DesEpisodeStats off =
                    run_sharded_episode(model, shards, 1, true, false, fel);
                for (const std::size_t threads :
                     {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
                    const DesEpisodeStats on =
                        run_sharded_episode(model, shards, threads, true, true, fel);
                    expect_bit_identical(off, on);
                }
            }
        }
    }
}

TEST(ShardedDesSystem, ClassicalRouterPipelineOnAndOffAreBitIdentical) {
    // The router epoch path has its own pipelined flow (weight law on the
    // overlapped task, per-shard vec_sum masses): pin jsq-d and sq-stale
    // router-only episodes across the seam and across thread counts.
    const auto run = [](RouterKind kind, bool pipeline, std::size_t threads) {
        FiniteSystemConfig config = small_config(ClientModel::Aggregated, 5, 2.0, 25);
        config.threads = threads;
        config.pipeline = pipeline;
        config.track_sojourn = true;
        config.router.kind = kind;
        config.router.d = 2;
        config.router.stale_period = 4.0;
        ShardedDesSystem system(config);
        Rng rng(91);
        system.reset(rng);
        return system.run_episode(rng);
    };
    for (const RouterKind kind : {RouterKind::JsqD, RouterKind::SqStale}) {
        SCOPED_TRACE(static_cast<int>(kind));
        const DesEpisodeStats off = run(kind, false, 1);
        expect_bit_identical(off, run(kind, true, 1));
        expect_bit_identical(off, run(kind, true, 8));
    }
}

/// A policy whose epoch query fails. It draws no caller RNG, so the
/// pipelined barrier runs it on the offloaded compute task.
class ThrowingPolicy final : public UpperLevelPolicy {
public:
    DecisionRule decide(std::span<const double>, std::size_t, Rng&) const override {
        throw std::runtime_error("policy failure");
    }
    std::string name() const override { return "throwing"; }
};

TEST(ShardedDesSystem, ThrowingPolicyInPipelinedBarrierPropagates) {
    // Regression: the offloaded query ran on a pool worker with no handler,
    // so its exception called std::terminate instead of reaching the caller.
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
        FiniteSystemConfig config = small_config(ClientModel::Aggregated, 4);
        config.threads = threads;
        config.pipeline = true;
        ShardedDesSystem system(config);
        Rng rng(3);
        system.reset(rng);
        const ThrowingPolicy policy;
        EXPECT_THROW(system.step(policy, rng), std::runtime_error) << threads << " threads";
    }
}

TEST(ShardedDesSystem, ShardCountIsPartOfTheContract) {
    // K is a modeling choice like the seed: different K re-partitions the
    // RNG streams, so trajectories legitimately differ (while remaining
    // statistically equivalent — covered below).
    const DesEpisodeStats k2 = run_sharded_episode(ClientModel::Aggregated, 2, 1);
    const DesEpisodeStats k5 = run_sharded_episode(ClientModel::Aggregated, 5, 1);
    EXPECT_NE(k2.accepted_packets, k5.accepted_packets);
}

// ---------------------------------------------------------------------------
// Statistical equivalence with DesSystem (registry scenarios)
// ---------------------------------------------------------------------------

void expect_event_backends_agree(FiniteSystemConfig config, std::size_t episodes,
                                 std::uint64_t seed) {
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy policy = make_jsq_policy(space);
    const EvaluationResult des = evaluate_des(config, policy, episodes, seed);
    const EvaluationResult sharded = evaluate_sharded_des(config, policy, episodes, seed);

    // Identical model, independent randomness: the 95% CIs must overlap (a
    // small slack absorbs the ~5% of seeds where disjoint CIs are expected).
    const double scale = std::max({1.0, des.total_drops.mean, sharded.total_drops.mean});
    EXPECT_LE(std::abs(des.total_drops.mean - sharded.total_drops.mean),
              des.total_drops.half_width + sharded.total_drops.half_width + 0.05 * scale)
        << "des " << des.total_drops.mean << " +- " << des.total_drops.half_width
        << " vs sharded " << sharded.total_drops.mean << " +- "
        << sharded.total_drops.half_width;
    EXPECT_NEAR(des.mean_queue_length.mean, sharded.mean_queue_length.mean,
                des.mean_queue_length.half_width + sharded.mean_queue_length.half_width +
                    0.05 * des.mean_queue_length.mean);
    EXPECT_NEAR(des.utilization.mean, sharded.utilization.mean,
                des.utilization.half_width + sharded.utilization.half_width + 0.03);
}

TEST(ShardedVsDes, Table1ScenarioDropRatesAgree) {
    ExperimentConfig experiment = scenario_or_die("table1").experiment;
    experiment.dt = 5.0; // the herding-prone delay of Figure 5
    experiment.eval_total_time = 150.0;
    experiment.shards = 8;
    expect_event_backends_agree(experiment.finite_system(), 24, 111);
}

TEST(ShardedVsDes, DelaySweepScenarioDropRatesAgree) {
    ExperimentConfig experiment = scenario_or_die("delay-sweep").experiment;
    experiment.dt = 5.0;
    experiment.eval_total_time = 100.0;
    experiment.shards = 8;
    expect_event_backends_agree(experiment.finite_system(), 16, 222);
}

TEST(ShardedVsDes, InfiniteClientModelAgrees) {
    ExperimentConfig experiment = scenario_or_die("table1").experiment;
    experiment.dt = 3.0;
    experiment.eval_total_time = 120.0;
    experiment.client_model = ClientModel::InfiniteClients;
    experiment.shards = 6;
    expect_event_backends_agree(experiment.finite_system(), 20, 333);
}

TEST(ShardedVsDes, PerClientModelAgrees) {
    ExperimentConfig experiment = scenario_or_die("table1").experiment;
    experiment.dt = 5.0;
    experiment.eval_total_time = 60.0;
    experiment.num_queues = 50;
    experiment.num_clients = 1000;
    experiment.client_model = ClientModel::PerClient;
    experiment.shards = 4;
    expect_event_backends_agree(experiment.finite_system(), 16, 444);
}

// ---------------------------------------------------------------------------
// Sojourn percentiles (exact cross-shard histogram merge)
// ---------------------------------------------------------------------------

TEST(ShardedDesSystem, SojournPercentilesAreOrderedAndPlausible) {
    FiniteSystemConfig config = small_config(ClientModel::Aggregated, 5, 5.0, 60);
    config.track_sojourn = true;
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy policy = make_rnd_policy(space);
    ShardedDesSystem system(config);
    Rng rng(31);
    system.reset(rng);
    const DesEpisodeStats stats = system.run_episode(policy, rng);
    ASSERT_GT(stats.completed_jobs, 1000u);
    EXPECT_GT(stats.sojourn_p50, 0.0);
    EXPECT_LE(stats.sojourn_p50, stats.sojourn_p95);
    EXPECT_LE(stats.sojourn_p95, stats.sojourn_p99);
    EXPECT_GT(stats.mean_sojourn, 0.0);
    EXPECT_LT(stats.mean_sojourn, stats.sojourn_p99);
    // And the evaluator surfaces the same pipeline with CIs.
    SojournSummary summary;
    const EvaluationResult result = evaluate_sharded_des(config, policy, 6, 47, 0, &summary);
    EXPECT_EQ(result.episodes, 6u);
    EXPECT_GT(summary.p50.mean, 0.0);
    EXPECT_LE(summary.p50.mean, summary.p95.mean);
    EXPECT_LE(summary.p95.mean, summary.p99.mean);
}

// ---------------------------------------------------------------------------
// Plumbing: backend names, dispatch, scenario registry
// ---------------------------------------------------------------------------

TEST(ShardedDesSystem, BackendNameAndParseRoundTrip) {
    EXPECT_EQ(backend_name(SimBackend::ShardedDes), "sharded-des");
    EXPECT_EQ(parse_backend("sharded-des"), SimBackend::ShardedDes);
    EXPECT_EQ(parse_backend("sharded"), SimBackend::ShardedDes);
    EXPECT_THROW(parse_backend("sharded-dse"), std::invalid_argument);
}

TEST(ShardedDesSystem, EvaluateBackendDispatchesToShardedDes) {
    FiniteSystemConfig config = small_config(ClientModel::Aggregated, 3, 2.0, 10);
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy policy = make_jsq_policy(space);
    const EvaluationResult direct = evaluate_sharded_des(config, policy, 4, 9);
    const EvaluationResult dispatched =
        evaluate_backend(SimBackend::ShardedDes, config, policy, 4, 9);
    EXPECT_EQ(direct.episodes, dispatched.episodes);
    EXPECT_DOUBLE_EQ(direct.total_drops.mean, dispatched.total_drops.mean);
}

TEST(ShardedDesSystem, LargeNShardedScenarioSmokeRuns) {
    // One decision epoch of the registered scenario: M = 10^4, N = 10^6,
    // K = 8 shards — must run and produce sane statistics.
    const Scenario& scenario = scenario_or_die("large-n-sharded");
    EXPECT_EQ(scenario.experiment.backend, SimBackend::ShardedDes);
    EXPECT_EQ(scenario.experiment.shards, 8u);
    ShardedDesSystem system(scenario.experiment.finite_system());
    EXPECT_EQ(system.num_shards(), 8u);
    const DecisionRule h = DecisionRule::mf_jsq(system.tuple_space());
    Rng rng(5);
    system.reset(rng);
    const EpochStats stats = system.step_with_rule(h, rng);
    EXPECT_GT(stats.accepted_packets, 0u);
    EXPECT_GE(stats.server_utilization, 0.0);
    EXPECT_LE(stats.server_utilization, 1.0);
    EXPECT_EQ(system.time(), 1);
}

} // namespace
} // namespace mflb
