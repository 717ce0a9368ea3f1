// Tests for the discrete-event simulation engine (src/des/): the indexed
// future-event-list, determinism of DesSystem, its statistical
// equivalence to the epoch-synchronous FiniteSystem on registry scenarios,
// single-queue agreement with the transient M/M/1/B oracle, and agreement
// with the mean-field prediction at large M.
#include "des/des_system.hpp"

#include "core/evaluator.hpp"
#include "core/scenarios.hpp"
#include "field/mfc_env.hpp"
#include "policies/fixed.hpp"
#include "queueing/gillespie.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace mflb {
namespace {

// ---------------------------------------------------------------------------
// EventQueue (future event list)
// ---------------------------------------------------------------------------

TEST(EventQueue, PopsInTimeOrderWithIdTieBreak) {
    EventQueue fel(8);
    fel.schedule(3, 2.0);
    fel.schedule(1, 1.0);
    fel.schedule(7, 2.0);
    fel.schedule(0, 5.0);
    EXPECT_EQ(fel.size(), 4u);
    EXPECT_EQ(fel.peek().id, 1u);
    EXPECT_EQ(fel.pop().id, 1u);
    // Equal times resolve by slot id for deterministic replay.
    EXPECT_EQ(fel.pop().id, 3u);
    EXPECT_EQ(fel.pop().id, 7u);
    EXPECT_EQ(fel.pop().id, 0u);
    EXPECT_TRUE(fel.empty());
}

TEST(EventQueue, ScheduleReschedulesPendingSlot) {
    EventQueue fel(4);
    fel.schedule(0, 10.0);
    fel.schedule(1, 5.0);
    EXPECT_DOUBLE_EQ(fel.time_of(0), 10.0);
    fel.schedule(0, 1.0); // move earlier
    EXPECT_EQ(fel.size(), 2u);
    EXPECT_EQ(fel.peek().id, 0u);
    fel.schedule(0, 7.0); // move later again
    EXPECT_EQ(fel.peek().id, 1u);
    EXPECT_DOUBLE_EQ(fel.time_of(0), 7.0);
}

TEST(EventQueue, CancelRemovesOnlyThatSlot) {
    EventQueue fel(4);
    fel.schedule(0, 1.0);
    fel.schedule(1, 2.0);
    fel.schedule(2, 3.0);
    EXPECT_TRUE(fel.cancel(1));
    EXPECT_FALSE(fel.cancel(1)); // already gone
    EXPECT_FALSE(fel.contains(1));
    EXPECT_EQ(fel.size(), 2u);
    EXPECT_EQ(fel.pop().id, 0u);
    EXPECT_EQ(fel.pop().id, 2u);
}

TEST(EventQueue, GuardsMisuse) {
    EXPECT_THROW(EventQueue(0), std::invalid_argument);
    EventQueue fel(2);
    EXPECT_THROW(fel.schedule(2, 1.0), std::invalid_argument);
    EXPECT_THROW(fel.pop(), std::logic_error);
    EXPECT_THROW(fel.peek(), std::logic_error);
    EXPECT_THROW(fel.time_of(0), std::logic_error);
    EXPECT_FALSE(fel.cancel(5)); // out of range is just "not pending"
}

TEST(EventQueue, ClearEmptiesButKeepsCapacity) {
    EventQueue fel(3);
    fel.schedule(0, 1.0);
    fel.schedule(2, 2.0);
    fel.clear();
    EXPECT_TRUE(fel.empty());
    EXPECT_EQ(fel.capacity(), 3u);
    EXPECT_FALSE(fel.contains(0));
    fel.schedule(0, 4.0); // usable again
    EXPECT_EQ(fel.pop().id, 0u);
}

TEST(EventQueue, RandomizedOperationsMatchReferenceOrdering) {
    // Fuzz schedule/reschedule/cancel against a brute-force reference; the
    // drained sequence must come out in exact (time, id) order.
    const std::size_t capacity = 64;
    EventQueue fel(capacity);
    std::vector<double> reference(capacity, -1.0); // -1 = absent
    Rng rng(99);
    for (int op = 0; op < 5000; ++op) {
        const auto id = static_cast<std::size_t>(rng.uniform_below(capacity));
        const double coin = rng.uniform();
        if (coin < 0.6) {
            const double time = rng.uniform(0.0, 100.0);
            fel.schedule(id, time);
            reference[id] = time;
        } else if (coin < 0.8) {
            EXPECT_EQ(fel.cancel(id), reference[id] >= 0.0);
            reference[id] = -1.0;
        } else if (reference[id] >= 0.0) {
            EXPECT_TRUE(fel.contains(id));
            EXPECT_DOUBLE_EQ(fel.time_of(id), reference[id]);
        }
    }
    std::vector<std::pair<double, std::size_t>> expected;
    for (std::size_t id = 0; id < capacity; ++id) {
        if (reference[id] >= 0.0) {
            expected.push_back({reference[id], id});
        }
    }
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(fel.size(), expected.size());
    for (const auto& [time, id] : expected) {
        const EventQueue::Event event = fel.pop();
        EXPECT_DOUBLE_EQ(event.time, time);
        EXPECT_EQ(event.id, id);
    }
}

// ---------------------------------------------------------------------------
// DesSystem mechanics
// ---------------------------------------------------------------------------

FiniteSystemConfig small_config(ClientModel model, double dt = 2.0, int horizon = 40) {
    FiniteSystemConfig config;
    config.num_queues = 30;
    config.num_clients = 900;
    config.dt = dt;
    config.horizon = horizon;
    config.client_model = model;
    return config;
}

TEST(DesSystem, DeterministicForFixedSeed) {
    const FiniteSystemConfig config = small_config(ClientModel::Aggregated);
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy policy = make_jsq_policy(space);
    auto run = [&] {
        DesSystem system(config);
        Rng rng(21);
        system.reset(rng);
        return system.run_episode(policy, rng);
    };
    const EpisodeStats a = run();
    const EpisodeStats b = run();
    EXPECT_EQ(a.dropped_packets, b.dropped_packets);
    EXPECT_EQ(a.accepted_packets, b.accepted_packets);
    EXPECT_DOUBLE_EQ(a.total_drops_per_queue, b.total_drops_per_queue);
    EXPECT_DOUBLE_EQ(a.mean_queue_length, b.mean_queue_length);
    EXPECT_DOUBLE_EQ(a.discounted_return, b.discounted_return);
}

// ---------------------------------------------------------------------------
// Exactness: one queue against the transient M/M/1/B oracle
// ---------------------------------------------------------------------------

TEST(DesSystem, SingleQueueFirstEpochMatchesTransientOracle) {
    // With M = 1 every arrival targets queue 0 at rate M·λ = λ, so the first
    // epoch from an empty queue is exactly the birth-death transient the
    // uniformization oracle solves.
    FiniteSystemConfig config;
    config.num_queues = 1;
    config.num_clients = 1;
    config.client_model = ClientModel::InfiniteClients;
    config.arrivals = ArrivalProcess::constant(0.9);
    config.dt = 4.0;
    config.horizon = 1;
    const QueueTransientResult oracle = queue_transient_solution(
        0, 0.9, config.queue.service_rate, config.queue.buffer, config.dt);

    DesSystem system(config);
    const DecisionRule h = DecisionRule::mf_rnd(system.tuple_space());
    Rng rng(13);
    const int reps = 20000;
    std::vector<double> state_freq(static_cast<std::size_t>(config.queue.num_states()), 0.0);
    double drops = 0.0;
    for (int r = 0; r < reps; ++r) {
        system.reset(rng);
        drops += static_cast<double>(system.step_with_rule(h, rng).dropped_packets);
        state_freq[static_cast<std::size_t>(system.queue_states()[0])] += 1.0;
    }
    for (std::size_t z = 0; z < state_freq.size(); ++z) {
        const double p = oracle.state_distribution[z];
        EXPECT_NEAR(state_freq[z] / reps, p, 5.0 * std::sqrt(p * (1 - p) / reps) + 1e-3)
            << "state " << z;
    }
    EXPECT_NEAR(drops / reps, oracle.expected_drops, 0.03);
}

// ---------------------------------------------------------------------------
// Statistical equivalence with FiniteSystem (registry scenarios)
// ---------------------------------------------------------------------------

void expect_backends_agree(FiniteSystemConfig config, std::size_t episodes,
                           std::uint64_t seed) {
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy policy = make_jsq_policy(space);
    const EvaluationResult finite =
        evaluate_backend(SimBackend::Finite, config, policy, episodes, seed);
    const EvaluationResult des = evaluate_backend(SimBackend::Des, config, policy, episodes, seed);

    // Identical model, independent randomness: the 95% CIs must overlap (a
    // small slack absorbs the ~5% of seeds where disjoint CIs are expected).
    const double scale = std::max({1.0, finite.total_drops.mean, des.total_drops.mean});
    EXPECT_LE(std::abs(finite.total_drops.mean - des.total_drops.mean),
              finite.total_drops.half_width + des.total_drops.half_width + 0.05 * scale)
        << "finite " << finite.total_drops.mean << " +- " << finite.total_drops.half_width
        << " vs des " << des.total_drops.mean << " +- " << des.total_drops.half_width;
    EXPECT_NEAR(finite.mean_queue_length.mean, des.mean_queue_length.mean,
                finite.mean_queue_length.half_width + des.mean_queue_length.half_width +
                    0.05 * finite.mean_queue_length.mean);
    EXPECT_NEAR(finite.utilization.mean, des.utilization.mean,
                finite.utilization.half_width + des.utilization.half_width + 0.03);
}

TEST(DesVsFinite, Table1ScenarioDropRatesAgree) {
    ExperimentConfig experiment = scenario_or_die("table1").experiment;
    experiment.dt = 5.0;             // the herding-prone delay of Figure 5
    experiment.eval_total_time = 150.0;
    expect_backends_agree(experiment.finite_system(), 24, 101);
}

TEST(DesVsFinite, DelaySweepScenarioDropRatesAgree) {
    ExperimentConfig experiment = scenario_or_die("delay-sweep").experiment;
    experiment.dt = 5.0;
    experiment.eval_total_time = 100.0;
    expect_backends_agree(experiment.finite_system(), 16, 202);
}

TEST(DesVsFinite, InfiniteClientModelAgrees) {
    ExperimentConfig experiment = scenario_or_die("table1").experiment;
    experiment.dt = 3.0;
    experiment.eval_total_time = 120.0;
    experiment.client_model = ClientModel::InfiniteClients;
    expect_backends_agree(experiment.finite_system(), 20, 303);
}

TEST(DesVsFinite, PerClientModelAgrees) {
    ExperimentConfig experiment = scenario_or_die("table1").experiment;
    experiment.dt = 5.0;
    experiment.eval_total_time = 60.0;
    experiment.num_queues = 50;
    experiment.num_clients = 1000;
    experiment.client_model = ClientModel::PerClient;
    expect_backends_agree(experiment.finite_system(), 16, 404);
}

// ---------------------------------------------------------------------------
// Mean-field agreement at large M (Theorem 1 probe beyond FiniteSystem reach)
// ---------------------------------------------------------------------------

TEST(DesVsMeanField, EmpiricalFillingTracksMfcEnvAtLargeM) {
    // M = 10^4 queues on a conditioned λ path: the DES empirical queue
    // filling and per-queue drops must sit on the deterministic mean-field
    // prediction (fluctuations are O(1/sqrt(M))).
    FiniteSystemConfig config;
    config.num_queues = 10000;
    config.num_clients = 1; // unused by InfiniteClients
    config.client_model = ClientModel::InfiniteClients;
    config.dt = 5.0;
    config.horizon = 10;

    MfcConfig mfc;
    mfc.queue = config.queue;
    mfc.d = config.d;
    mfc.dt = config.dt;
    mfc.arrivals = config.arrivals;
    mfc.horizon = config.horizon;

    Rng path_rng(17);
    std::vector<std::size_t> path;
    std::size_t state = config.arrivals.sample_initial(path_rng);
    for (int t = 0; t < config.horizon; ++t) {
        path.push_back(state);
        state = config.arrivals.step(state, path_rng);
    }

    const TupleSpace space(config.queue.num_states(), config.d);
    const DecisionRule h = DecisionRule::mf_jsq(space);

    MfcEnv env(mfc);
    env.reset_conditioned(path);
    Rng unused(1);
    double limit_drops = 0.0;
    while (!env.done()) {
        limit_drops += env.step(h, unused).drops;
    }
    const std::vector<double> nu_final(env.nu().begin(), env.nu().end());

    DesSystem system(config);
    Rng rng(29);
    system.reset_conditioned(path, rng);
    double des_drops = 0.0;
    while (!system.done()) {
        des_drops += system.step_with_rule(h, rng).drops_per_queue;
    }
    const std::vector<double> empirical = system.empirical_distribution();

    ASSERT_EQ(empirical.size(), nu_final.size());
    double l1 = 0.0;
    for (std::size_t z = 0; z < empirical.size(); ++z) {
        l1 += std::abs(empirical[z] - nu_final[z]);
    }
    EXPECT_LT(l1, 0.04) << "final filling far from mean-field prediction";
    const double scale = std::max(1.0, limit_drops);
    EXPECT_LT(std::abs(des_drops - limit_drops) / scale, 0.05);
}

} // namespace
} // namespace mflb
