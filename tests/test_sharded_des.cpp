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
    // Odd K splits the 30 queues into uneven blocks, K = 1 runs its one
    // shard inline on the calling thread, and K = M = 30 gives every shard a
    // single queue. All must honor the same bit-identity contract as the
    // power-of-two case.
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{5}, std::size_t{7}, std::size_t{30}}) {
        SCOPED_TRACE(shards);
        const EpisodeStats one = run_sharded_episode(ClientModel::Aggregated, shards, 1, true);
        const EpisodeStats two = run_sharded_episode(ClientModel::Aggregated, shards, 2, true);
        const EpisodeStats eight = run_sharded_episode(ClientModel::Aggregated, shards, 8, true);
        expect_bit_identical(one, two);
        expect_bit_identical(one, eight);
    }
}

TEST(ShardedDesSystem, SkewedInitialLoadStaysThreadInvariant) {
    // Nearly-full initial queues start every shard histogram at the top of
    // the state space and drain it over the episode, so the barrier's fold
    // sums counts that move across all of Z, drops included.
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
    // The epoch barrier (class-level count draw, idle thinning, per-queue
    // kernels, the fixed-order fold over the shards) must reproduce the
    // recorded episodes bit for bit — for every client model, at K = 1 (one
    // inline shard), K = 5 (uneven blocks) and K = 8, on 1, 2, and 8
    // threads.
    const struct {
        ClientModel model;
        std::size_t shards;
        RecordedEpisode want;
    } rows[] = {
        // Every row re-recorded when the per-queue kernel moved to ziggurat
        // clocks and stopped drawing a choice at an idle server.
        {ClientModel::PerClient, 1,
         {12, 1048, 1002, 0.39999999999999997, -0.33626075358817387, 1.5823241208264318,
          0.72241219685133262, 2.2368060933784344, 1.76953125, 5.921875, 7.734375}},
        {ClientModel::PerClient, 5,
         {17, 1142, 1097, 0.56666666666666665, -0.48585563469302406, 1.6432345390543999,
          0.74851504769932276, 2.1447954353629299, 1.69140625, 5.578125, 7.484375}},
        {ClientModel::PerClient, 8,
         {11, 1119, 1072, 0.36666666666666664, -0.32582351089276718, 1.5189520656948563,
          0.70283196236497181, 2.0450750376718565, 1.58984375, 5.828125, 7.515625}},
        {ClientModel::Aggregated, 1,
         {26, 1153, 1079, 0.86666666666666659, -0.73777498710059619, 1.6870818007226169,
          0.75505347732854899, 2.1926167368541138, 1.75390625, 5.828125, 8.21875}},
        {ClientModel::Aggregated, 5,
         {15, 1077, 1031, 0.49999999999999994, -0.44452793055846279, 1.4755603274206432,
          0.69166981812041817, 2.068332101669117, 1.58203125, 5.828125, 7.984375}},
        {ClientModel::Aggregated, 8,
         {29, 1052, 1013, 0.96666666666666656, -0.81459374940455709, 1.5241780309154322,
          0.67637182658681683, 2.2173899287550629, 1.78515625, 5.828125, 8.09375}},
        {ClientModel::InfiniteClients, 1,
         {8, 1087, 1035, 0.26666666666666666, -0.23404600101515083, 1.5402305226509609,
          0.70412563982720255, 2.1227768410345234, 1.55859375, 5.703125, 8.03125}},
        {ClientModel::InfiniteClients, 5,
         {16, 1140, 1075, 0.53333333333333333, -0.44492828378614058, 1.4686300959007916,
          0.68371402857147345, 1.9463320501838817, 1.45703125, 5.328125, 7.359375}},
        {ClientModel::InfiniteClients, 8,
         {22, 1180, 1101, 0.73333333333333328, -0.64481734979254635, 1.5138046908760054,
          0.69825990964446594, 1.8940863500341119, 1.41796875, 5.828125, 7.390625}},
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
        // Re-recorded when the per-queue kernel moved to ziggurat clocks and
        // stopped drawing a choice at an idle server.
        {RouterKind::JsqD,
         {35, 1103, 1035, 1.1666666666666667, -0.98321091353784218, 1.5212238082016145,
          0.69401398484945009, 2.0477348678588427, 1.59765625, 5.390625, 7.609375}},
        {RouterKind::SqStale,
         {156, 1007, 965, 5.2000000000000011, -4.496598685003268, 1.5895695850309486,
          0.62981392579757733, 2.3827843316925277, 1.86328125, 6.234375, 8.84375}},
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
