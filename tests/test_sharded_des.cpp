// Tests for the epoch engine's K-shard epoch-parallel phase
// (src/queueing/finite_system): shard partition sanity, the determinism
// contract (bit-identical results for fixed (seed, K) regardless of thread
// count, all three client models), statistical equivalence to DesSystem on
// registry scenarios (CI overlap) and on a shared conditioned λ path
// (coupled oracle against the event-driven engine, including an idle
// fleet), and the backend-name plumbing. What every backend shares
// (conservation, conditioned replay, guards, sojourn percentiles) is the
// BackendContract suite in test_finite_system.cpp.
#include "queueing/finite_system.hpp"

#include "core/evaluator.hpp"
#include "core/scenarios.hpp"
#include "policies/fixed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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
    FiniteSystem system(config);
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
    EXPECT_EQ(FiniteSystem(config).num_shards(), 5u); // K clamped to M
    config.shards = 0;
    EXPECT_EQ(FiniteSystem(config).num_shards(), 1u); // 0 is one shard
    // make_backend keeps each backend's K: sharded-des defaults 0 to
    // kDefaultShards (clamped to M), finite always runs one shard.
    const auto shards_of = [](SimBackend backend, const FiniteSystemConfig& c) {
        return dynamic_cast<const FiniteSystem&>(*make_backend(backend, c)).num_shards();
    };
    EXPECT_EQ(shards_of(SimBackend::ShardedDes, config), 5u); // default min(8, M)
    config.num_queues = 100;
    EXPECT_EQ(shards_of(SimBackend::ShardedDes, config), kDefaultShards);
    config.shards = 6;
    EXPECT_EQ(shards_of(SimBackend::ShardedDes, config), 6u);
    EXPECT_EQ(shards_of(SimBackend::Finite, config), 1u);
}

// ---------------------------------------------------------------------------
// Determinism contract: (seed, K) fixes results; thread count never does
// ---------------------------------------------------------------------------

EpisodeStats run_sharded_episode(ClientModel model, std::size_t shards, std::size_t threads,
                                 bool sojourn = false) {
    FiniteSystemConfig config = small_config(model, shards, 2.0, 25);
    config.threads = threads;
    config.track_sojourn = sojourn;
    FiniteSystem system(config);
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy policy = make_jsq_policy(space);
    Rng rng(91);
    system.reset(rng);
    return system.run_episode(policy, rng);
}

void expect_bit_identical(const EpisodeStats& a, const EpisodeStats& b) {
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
        const EpisodeStats one = run_sharded_episode(model, 4, 1, true);
        const EpisodeStats two = run_sharded_episode(model, 4, 2, true);
        const EpisodeStats eight = run_sharded_episode(model, 4, 8, true);
        expect_bit_identical(one, two);
        expect_bit_identical(one, eight);
    }
}

TEST(ShardedDesSystem, DeterministicForFixedSeedAndShards) {
    const EpisodeStats a = run_sharded_episode(ClientModel::Aggregated, 4, 0);
    const EpisodeStats b = run_sharded_episode(ClientModel::Aggregated, 4, 0);
    expect_bit_identical(a, b);
}

TEST(ShardedDesSystem, OddAndSingleShardCountsStayThreadInvariant) {
    // Odd K exercises the pass-through (orphan child) nodes of the pairwise
    // reduction tree at every level; K = 1 bypasses the tree entirely. Both
    // must honor the same bit-identity contract as the power-of-two case.
    for (const std::size_t shards : {std::size_t{1}, std::size_t{5}, std::size_t{7}}) {
        SCOPED_TRACE(shards);
        const EpisodeStats one = run_sharded_episode(ClientModel::Aggregated, shards, 1, true);
        const EpisodeStats two = run_sharded_episode(ClientModel::Aggregated, shards, 2, true);
        const EpisodeStats eight = run_sharded_episode(ClientModel::Aggregated, shards, 8, true);
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
        FiniteSystem system(config);
        const TupleSpace space(config.queue.num_states(), config.d);
        const FixedRulePolicy policy = make_jsq_policy(space);
        Rng rng(97);
        system.reset(rng);
        return system.run_episode(policy, rng);
    };
    const EpisodeStats one = run(1);
    const EpisodeStats eight = run(8);
    EXPECT_GT(one.dropped_packets, 0u); // the skew actually stresses the top states
    expect_bit_identical(one, eight);
}

TEST(ShardedDesSystem, BarrierProfileSplitsEpochTime) {
    FiniteSystemConfig config = small_config(ClientModel::Aggregated, 4, 2.0, 12);
    config.threads = 1;
    FiniteSystem system(config);
    const DecisionRule h = DecisionRule::mf_jsq(system.tuple_space());
    Rng rng(5);
    system.reset(rng);
    EXPECT_EQ(system.barrier_profile().epochs, 0u);
    while (!system.done()) {
        system.step_with_rule(h, rng);
    }
    const FiniteSystem::BarrierProfile& profile = system.barrier_profile();
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

/// One episode's summary, recorded (doubles as %.17g) from the per-queue
/// epoch kernel the shard tasks run; every thread count prints these same
/// rows.
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

void expect_recorded(const EpisodeStats& got, const RecordedEpisode& want) {
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
    // The epoch barrier (eager reduction folds, class-level count draw,
    // idle thinning, per-queue kernels) must reproduce the recorded episodes
    // bit for bit — for every client model, tree shapes with and without
    // orphan nodes (K = 1 bypasses the tree, K = 5 has pass-through
    // children, K = 8 is the full binary case), on 1, 2, and 8 threads.
    const struct {
        ClientModel model;
        std::size_t shards;
        RecordedEpisode want;
    } rows[] = {
        {ClientModel::PerClient, 1,
         {18, 1098, 1061, 0.59999999999999998, -0.52484914872776389, 1.4551965528376201,
          0.70630787078298174, 1.990730725048151, 1.58984375, 5.171875, 7.640625}},
        {ClientModel::PerClient, 5,
         {19, 1116, 1055, 0.6333333333333333, -0.53877459725349663, 1.6199082332124053,
          0.71555742022712421, 2.1447728240443333, 1.66015625, 5.703125, 7.546875}},
        {ClientModel::PerClient, 8,
         {23, 1102, 1056, 0.76666666666666661, -0.68196240127729957, 1.4261475200593103,
          0.68732620984679382, 1.9330827986622536, 1.62109375, 4.859375, 6.703125}},
        // Aggregated rows re-recorded with the class-level count draw.
        {ClientModel::Aggregated, 1,
         {16, 1047, 990, 0.53333333333333333, -0.44355552634995854, 1.4083450556954538,
          0.67700455179815411, 1.998090128443077, 1.48828125, 5.578125, 10.15625}},
        {ClientModel::Aggregated, 5,
         {36, 1204, 1146, 1.2000000000000002, -1.0277830574697071, 1.7135282917090691,
          0.75823760735360435, 2.1480718992551746, 1.69140625, 5.765625, 7.859375}},
        {ClientModel::Aggregated, 8,
         {34, 1217, 1166, 1.1333333333333333, -1.0047549749431535, 1.7971937642882601,
          0.76573363152941232, 2.2381192826566845, 1.74609375, 5.984375, 8.40625}},
        {ClientModel::InfiniteClients, 1,
         {13, 1048, 1008, 0.43333333333333329, -0.37550988818536701, 1.3406902293589271,
          0.68548145004623284, 1.9454140558608601, 1.58203125, 4.703125, 6.765625}},
        {ClientModel::InfiniteClients, 5,
         {18, 1113, 1063, 0.59999999999999998, -0.4952667305301936, 1.5417069375589285,
          0.69660293940118645, 2.0866800201471576, 1.60546875, 5.578125, 7.515625}},
        {ClientModel::InfiniteClients, 8,
         {30, 1140, 1078, 1, -0.84642232056304967, 1.6489512454204887,
          0.71314448641463546, 2.1577436367381604, 1.64453125, 5.859375, 9.59375}},
    };
    for (const auto& row : rows) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
            SCOPED_TRACE(::testing::Message() << "model " << static_cast<int>(row.model)
                                              << " K " << row.shards << " threads " << threads);
            expect_recorded(run_sharded_episode(row.model, row.shards, threads, true), row.want);
        }
    }
}

TEST(ShardedDesSystem, ClassicalRouterEpisodesMatchRecordedRows) {
    // The router epoch path (weight law and per-shard vec_sum masses at the
    // barrier, frozen per-queue rates in the shard tasks): jsq-d and sq-stale
    // router-only episodes must reproduce the recorded rows at every thread
    // count.
    const auto run = [](RouterKind kind, std::size_t threads) {
        FiniteSystemConfig config = small_config(ClientModel::Aggregated, 5, 2.0, 25);
        config.threads = threads;
        config.track_sojourn = true;
        config.router.kind = kind;
        config.router.d = 2;
        config.router.stale_period = 4.0;
        FiniteSystem system(config);
        Rng rng(91);
        system.reset(rng);
        return system.run_episode(rng);
    };
    const struct {
        RouterKind kind;
        RecordedEpisode want;
    } rows[] = {
        {RouterKind::JsqD,
         {27, 1124, 1078, 0.89999999999999991, -0.754069415675507, 1.6830592750254956,
          0.73350662716552695, 2.2547730608551793, 1.82421875, 6.078125, 8.46875}},
        {RouterKind::SqStale,
         {141, 993, 936, 4.6999999999999993, -4.0260623339439059, 1.5469715648446458,
          0.63123370919184463, 2.3314035557039339, 1.93359375, 5.609375, 7.546875}},
    };
    for (const auto& row : rows) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
            SCOPED_TRACE(::testing::Message() << router_name(row.kind) << " threads " << threads);
            expect_recorded(run(row.kind, threads), row.want);
        }
    }
}

/// A policy whose epoch query fails. It draws no caller RNG, so the epoch
/// barrier runs it in its deterministic compute phase.
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
        FiniteSystem system(config);
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
    const EpisodeStats k2 = run_sharded_episode(ClientModel::Aggregated, 2, 1);
    const EpisodeStats k5 = run_sharded_episode(ClientModel::Aggregated, 5, 1);
    EXPECT_NE(k2.accepted_packets, k5.accepted_packets);
}

// ---------------------------------------------------------------------------
// Statistical equivalence with DesSystem (registry scenarios)
// ---------------------------------------------------------------------------

void expect_event_backends_agree(FiniteSystemConfig config, std::size_t episodes,
                                 std::uint64_t seed) {
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy policy = make_jsq_policy(space);
    const EvaluationResult des = evaluate_backend(SimBackend::Des, config, policy, episodes, seed);
    const EvaluationResult sharded =
        evaluate_backend(SimBackend::ShardedDes, config, policy, episodes, seed);

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
// Coupled oracle: the event-driven DesSystem on the same conditioned λ path
// ---------------------------------------------------------------------------

/// JSQ at Δt = 5 over 20 epochs with Table-1 queues and arrivals.
FiniteSystemConfig coupled_config(ClientModel model, std::size_t queues,
                                  std::uint64_t clients) {
    FiniteSystemConfig config;
    config.num_queues = queues;
    config.num_clients = clients;
    config.client_model = model;
    config.dt = 5.0;
    config.horizon = 20;
    return config;
}

double standard_error(const ConfidenceInterval& ci) {
    return ci.n >= 2 ? ci.half_width / student_t_975(ci.n - 1) : 0.0;
}

/// Both backends simulate the same model on the same λ path with
/// independent queue randomness, so their episode means may differ only by
/// noise: 1% of the DesSystem mean plus 3 combined standard errors.
void expect_coupled_agreement(const ConfidenceInterval& des, const ConfidenceInterval& engine,
                              const char* what) {
    const double noise = 3.0 * std::hypot(standard_error(des), standard_error(engine));
    EXPECT_LE(std::abs(engine.mean - des.mean), 0.01 * std::abs(des.mean) + noise)
        << what << ": des " << des.mean << " +- " << des.half_width << ", engine "
        << engine.mean << " +- " << engine.half_width;
}

/// Evaluates `config` on the event-driven DesSystem — per-job d-sampling on
/// a future event list, no code shared with the epoch engine's per-queue
/// kernels or idle thinning — and on the engine at K = 1 and K = 8, all on
/// the λ path drawn from one seed.
void expect_engine_matches_des(FiniteSystemConfig config, bool compare_accepted) {
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy jsq = make_jsq_policy(space);
    constexpr std::size_t kEpisodes = 16;
    constexpr std::uint64_t kSeed = 2024;
    const CoupledEvaluation des =
        evaluate_coupled(config, jsq, kEpisodes, kSeed, 0, SimBackend::Des);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
        SCOPED_TRACE(::testing::Message() << "K " << shards);
        config.shards = shards;
        const CoupledEvaluation engine =
            evaluate_coupled(config, jsq, kEpisodes, kSeed, 0, SimBackend::ShardedDes);
        ASSERT_EQ(engine.lambda_sequence, des.lambda_sequence);
        if (compare_accepted) {
            expect_coupled_agreement(des.finite_accepted, engine.finite_accepted,
                                     "accepted jobs per queue");
        } else {
            expect_coupled_agreement(des.finite_drops, engine.finite_drops, "drops per queue");
        }
    }
}

TEST(CoupledEngineVsDes, CoupledPathDropsAgreeForEveryClientModel) {
    // JSQ at Δt = 5 herds onto the stale minimum, so drops are large and
    // sensitive to the routing law: relative standard errors are 0.2-0.35%
    // at M = 4000 and ~1.2% for PerClient at M = 400.
    expect_engine_matches_des(coupled_config(ClientModel::InfiniteClients, 4000, 0), false);
    expect_engine_matches_des(coupled_config(ClientModel::Aggregated, 4000, 40000000), false);
    expect_engine_matches_des(coupled_config(ClientModel::PerClient, 400, 40000), false);
}

TEST(CoupledEngineVsDes, IdleFleetAcceptsAsManyJobsAsDesSystem) {
    // Per-queue load ≈ 0.01 from an empty fleet: nearly every queue-epoch
    // starts idle, so the engine's idle thinning decides almost every
    // arrival. Drops are ≈ 0, so accepted jobs carry the comparison.
    FiniteSystemConfig config = coupled_config(ClientModel::InfiniteClients, 4000, 0);
    config.arrivals = ArrivalProcess::paper_two_state(0.012, 0.008);
    expect_engine_matches_des(config, true);
}

// ---------------------------------------------------------------------------
// Plumbing: backend names, scenario registry
// ---------------------------------------------------------------------------

TEST(ShardedDesSystem, BackendNameAndParseRoundTrip) {
    EXPECT_EQ(backend_name(SimBackend::ShardedDes), "sharded-des");
    EXPECT_EQ(parse_backend("sharded-des"), SimBackend::ShardedDes);
    EXPECT_EQ(parse_backend("sharded"), SimBackend::ShardedDes);
    EXPECT_THROW(parse_backend("sharded-dse"), std::invalid_argument);
}

TEST(ShardedDesSystem, LargeNShardedScenarioSmokeRuns) {
    // One decision epoch of the registered scenario: M = 10^4, N = 10^6,
    // K = 8 shards — must run and produce sane statistics.
    const Scenario& scenario = scenario_or_die("large-n-sharded");
    EXPECT_EQ(scenario.experiment.backend, SimBackend::ShardedDes);
    EXPECT_EQ(scenario.experiment.shards, 8u);
    FiniteSystem system(scenario.experiment.finite_system());
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
