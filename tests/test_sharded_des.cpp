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
                                    FelKind fel = FelKind::Calendar) {
    FiniteSystemConfig config = small_config(model, shards, 2.0, 25);
    config.threads = threads;
    config.track_sojourn = sojourn;
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

/// One episode's summary, recorded (doubles as %.17g) from the level-by-level
/// reduction barrier this backend offered alongside the eager fold until the
/// two were merged into one epoch barrier; both barriers printed these same
/// rows at every thread count and with either FEL kind.
struct RecordedEpisode {
    std::uint64_t dropped_packets;
    std::uint64_t accepted_packets;
    std::uint64_t completed_jobs;
    double total_drops_per_queue;
    double discounted_return;
    double mean_queue_length;
    double server_utilization;
    double mean_sojourn;
    double sojourn_p50;
    double sojourn_p95;
    double sojourn_p99;
};

void expect_recorded(const DesEpisodeStats& got, const RecordedEpisode& want) {
    EXPECT_EQ(got.dropped_packets, want.dropped_packets);
    EXPECT_EQ(got.accepted_packets, want.accepted_packets);
    EXPECT_EQ(got.completed_jobs, want.completed_jobs);
    EXPECT_EQ(got.total_drops_per_queue, want.total_drops_per_queue);
    EXPECT_EQ(got.discounted_return, want.discounted_return);
    EXPECT_EQ(got.mean_queue_length, want.mean_queue_length);
    EXPECT_EQ(got.server_utilization, want.server_utilization);
    EXPECT_EQ(got.mean_sojourn, want.mean_sojourn);
    EXPECT_EQ(got.sojourn_p50, want.sojourn_p50);
    EXPECT_EQ(got.sojourn_p95, want.sojourn_p95);
    EXPECT_EQ(got.sojourn_p99, want.sojourn_p99);
}

TEST(ShardedDesSystem, EpisodesMatchRecordedRows) {
    // The epoch barrier (eager reduction folds, offloaded epoch compute,
    // fused gather kernels) must reproduce the recorded episodes bit for bit
    // — for every client model, both FEL kinds, tree shapes with and without
    // orphan nodes (K = 1 bypasses the tree, K = 5 has pass-through
    // children, K = 8 is the full binary case), on 1, 2, and 8 threads.
    const struct {
        ClientModel model;
        std::size_t shards;
        RecordedEpisode want;
    } rows[] = {
        {ClientModel::PerClient, 1,
         {19, 1101, 1062, 0.6333333333333333, -0.57074722015123169, 1.7083692346518651,
          0.73385836332195842, 2.3408781126645879, 1.89453125, 6.046875, 8.65625}},
        {ClientModel::PerClient, 5,
         {25, 1086, 1031, 0.83333333333333326, -0.74095489668773096, 1.5740893259174797,
          0.69628611533460261, 2.1459826368859614, 1.63671875, 5.734375, 8.28125}},
        {ClientModel::PerClient, 8,
         {14, 1104, 1063, 0.46666666666666667, -0.40593545226083433, 1.5369758089081218,
          0.70593524306632716, 2.0710434164109639, 1.60546875, 5.453125, 7.421875}},
        {ClientModel::Aggregated, 1,
         {11, 1072, 1018, 0.36666666666666664, -0.32413276982995021, 1.4462926299791425,
          0.69786551667374652, 2.057496517840292, 1.69140625, 5.265625, 7.234375}},
        {ClientModel::Aggregated, 5,
         {67, 1219, 1167, 2.2333333333333338, -1.9496633431713979, 1.9927112975900214,
          0.7847841655080815, 2.4377582510463371, 1.91015625, 6.390625, 8.78125}},
        {ClientModel::Aggregated, 8,
         {18, 1167, 1127, 0.59999999999999998, -0.52044038585692609, 1.5653021272105783,
          0.71668947835421759, 2.0084432911530867, 1.62890625, 5.296875, 7.171875}},
        {ClientModel::InfiniteClients, 1,
         {28, 1102, 1046, 0.93333333333333324, -0.77670745591177948, 1.5847678624121195,
          0.71526664565506404, 2.1681644498561545, 1.69921875, 5.921875, 8.28125}},
        {ClientModel::InfiniteClients, 5,
         {11, 1132, 1079, 0.36666666666666664, -0.32020352834314308, 1.494496889592408,
          0.70878538209376729, 1.9607488268601838, 1.48046875, 5.453125, 7.578125}},
        {ClientModel::InfiniteClients, 8,
         {17, 1138, 1079, 0.56666666666666665, -0.50221634133679904, 1.6078851625506159,
          0.73768799893851456, 2.1478713454804352, 1.77734375, 5.296875, 6.890625}},
    };
    for (const auto& row : rows) {
        for (const FelKind fel : {FelKind::Heap, FelKind::Calendar}) {
            for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
                SCOPED_TRACE(::testing::Message()
                             << "model " << static_cast<int>(row.model) << " K " << row.shards
                             << " fel " << fel_kind_name(fel) << " threads " << threads);
                expect_recorded(run_sharded_episode(row.model, row.shards, threads, true, fel),
                                row.want);
            }
        }
    }
}

TEST(ShardedDesSystem, ClassicalRouterEpisodesMatchRecordedRows) {
    // The router epoch path (weight law on the overlapped task, per-shard
    // vec_sum masses): jsq-d and sq-stale router-only episodes must
    // reproduce the recorded rows at every thread count and FEL kind.
    const auto run = [](RouterKind kind, std::size_t threads, FelKind fel) {
        FiniteSystemConfig config = small_config(ClientModel::Aggregated, 5, 2.0, 25);
        config.threads = threads;
        config.fel = fel;
        config.track_sojourn = true;
        config.router.kind = kind;
        config.router.d = 2;
        config.router.stale_period = 4.0;
        ShardedDesSystem system(config);
        Rng rng(91);
        system.reset(rng);
        return system.run_episode(rng);
    };
    const struct {
        RouterKind kind;
        RecordedEpisode want;
    } rows[] = {
        {RouterKind::JsqD,
         {11, 1132, 1079, 0.36666666666666664, -0.32020352834314308, 1.494496889592408,
          0.70878538209376729, 1.9607488268601838, 1.48046875, 5.453125, 7.578125}},
        {RouterKind::SqStale,
         {143, 946, 900, 4.7666666666666666, -4.1144635702489616, 1.4256226975650168,
          0.59504910521022059, 2.2868265913877228, 1.76171875, 5.984375, 8.84375}},
    };
    for (const auto& row : rows) {
        for (const FelKind fel : {FelKind::Heap, FelKind::Calendar}) {
            for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
                SCOPED_TRACE(::testing::Message()
                             << router_name(row.kind) << " fel " << fel_kind_name(fel)
                             << " threads " << threads);
                expect_recorded(run(row.kind, threads, fel), row.want);
            }
        }
    }
}

/// A policy whose epoch query fails. It draws no caller RNG, so the epoch
/// barrier runs it on the offloaded compute task.
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
