// Tests for the finite N-client/M-queue simulator (Algorithm 1), including
// the exact-equivalence of the aggregated client model, and the contract all
// three finite-system backends share (guards, conservation, conditioned
// replay, sojourn percentiles, evaluator), run on each through make_backend:
// the epoch engine at K = 1 (finite) and K > 1 (sharded-des), and DesSystem.
#include "queueing/finite_system.hpp"
#include "core/evaluator.hpp"
#include "des/des_system.hpp"
#include "policies/fixed.hpp"
#include "support/statistics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace mflb {
namespace {

FiniteSystemConfig small_config(ClientModel model = ClientModel::Aggregated) {
    FiniteSystemConfig config;
    config.num_queues = 50;
    config.num_clients = 2500;
    config.dt = 5.0;
    config.horizon = 10;
    config.client_model = model;
    return config;
}

TEST(FiniteSystem, ValidatesConfig) {
    FiniteSystemConfig bad = small_config();
    bad.num_queues = 0;
    EXPECT_THROW(FiniteSystem{bad}, std::invalid_argument);
    bad = small_config();
    bad.horizon = 0;
    EXPECT_THROW(FiniteSystem{bad}, std::invalid_argument);
    bad = small_config();
    bad.num_clients = 0;
    EXPECT_THROW(FiniteSystem{bad}, std::invalid_argument);
    bad = small_config(ClientModel::InfiniteClients);
    bad.num_clients = 0; // allowed: client count is irrelevant at N = ∞
    EXPECT_NO_THROW(FiniteSystem{bad});
}

TEST(FiniteSystem, EveryBackendRejectsBadConfigs) {
    // Bad field × backend × track_sojourn: each is rejected at construction
    // with an error naming the backend (SystemBase for the shared Δt check)
    // and the field, whether or not per-job rings would be allocated. The
    // valid edge of each field constructs everywhere.
    const struct {
        const char* name;
        std::function<void(const FiniteSystemConfig&)> construct;
    } backends[] = {
        {"FiniteSystem",
         [](const FiniteSystemConfig& c) { (void)make_backend(SimBackend::Finite, c); }},
        {"DesSystem", [](const FiniteSystemConfig& c) { (void)make_backend(SimBackend::Des, c); }},
        {"FiniteSystem",
         [](const FiniteSystemConfig& c) { (void)make_backend(SimBackend::ShardedDes, c); }},
    };
    using Spoil = std::function<void(FiniteSystemConfig&)>;
    const auto speed = [](double bad) {
        return [bad](FiniteSystemConfig& c) {
            c.server_speeds.assign(c.num_queues, 1.0);
            c.server_speeds[3] = bad;
        };
    };
    const auto dt = [](double bad) { return [bad](FiniteSystemConfig& c) { c.dt = bad; }; };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const struct {
        Spoil spoil;
        std::string error; ///< message after "<backend>: ".
        bool shared;       ///< raised by SystemBase, not the backend.
    } cases[] = {
        {[](FiniteSystemConfig& c) { c.queue.buffer = 0; }, "queue.buffer must be >= 1, got 0",
         false},
        {[](FiniteSystemConfig& c) { c.queue.buffer = -1; }, "queue.buffer must be >= 1, got -1",
         false},
        {[](FiniteSystemConfig& c) { c.queue.buffer = -7; }, "queue.buffer must be >= 1, got -7",
         false},
        {[](FiniteSystemConfig& c) {
             c.client_model = ClientModel::PerClient;
             c.num_clients = 0;
         },
         "need at least one client", false},
        {[](FiniteSystemConfig& c) { c.num_clients = 0; }, "need at least one client", false},
        {[](FiniteSystemConfig& c) { c.server_speeds.assign(c.num_queues - 1, 1.0); },
         "server_speeds size mismatch", false},
        {speed(0.0), "server speeds must be finite and > 0", false},
        {speed(-2.0), "server speeds must be finite and > 0", false},
        {speed(nan), "server speeds must be finite and > 0", false},
        {speed(inf), "server speeds must be finite and > 0", false},
        {[](FiniteSystemConfig& c) { c.nu0 = {1.0}; }, "nu0 size mismatch", false},
        {dt(0.0), "dt must be finite and positive", true},
        {dt(-1.0), "dt must be finite and positive", true},
        {dt(nan), "dt must be finite and positive", true},
        {dt(inf), "dt must be finite and positive", true},
    };
    const Spoil valid_edges[] = {
        [](FiniteSystemConfig& c) { c.queue.buffer = 1; },
        [](FiniteSystemConfig& c) {
            c.client_model = ClientModel::InfiniteClients;
            c.num_clients = 0; // client count is irrelevant at N = ∞
        },
        [](FiniteSystemConfig& c) { c.server_speeds.assign(c.num_queues, 0.5); },
        [](FiniteSystemConfig& c) {
            c.nu0.assign(c.queue.num_states(), 0.0);
            c.nu0.back() = 1.0;
        },
    };
    for (const auto& backend : backends) {
        for (const bool track_sojourn : {false, true}) {
            for (const auto& bad : cases) {
                const std::string want =
                    std::string(bad.shared ? "SystemBase" : backend.name) + ": " + bad.error;
                SCOPED_TRACE(std::string(backend.name) + " track_sojourn=" +
                             std::to_string(track_sojourn) + " " + want);
                FiniteSystemConfig config = small_config();
                config.track_sojourn = track_sojourn;
                bad.spoil(config);
                try {
                    backend.construct(config);
                    ADD_FAILURE() << "constructed with an invalid config";
                } catch (const std::invalid_argument& e) {
                    EXPECT_EQ(std::string(e.what()), want);
                }
            }
            for (const Spoil& edge : valid_edges) {
                FiniteSystemConfig config = small_config();
                config.track_sojourn = track_sojourn;
                edge(config);
                EXPECT_NO_THROW(backend.construct(config)) << backend.name;
            }
        }
    }
}

TEST(FiniteSystem, ResetStartsEmptyByDefault) {
    FiniteSystem system(small_config());
    Rng rng(1);
    system.reset(rng);
    for (int z : system.queue_states()) {
        EXPECT_EQ(z, 0);
    }
    const auto hist = system.empirical_distribution();
    EXPECT_DOUBLE_EQ(hist[0], 1.0);
}

TEST(FiniteSystem, EmpiricalDistributionSumsToOne) {
    FiniteSystem system(small_config());
    Rng rng(2);
    system.reset(rng);
    const FixedRulePolicy rnd = make_rnd_policy(system.tuple_space());
    for (int t = 0; t < 5; ++t) {
        system.step(rnd, rng);
        const auto hist = system.empirical_distribution();
        const double sum = std::accumulate(hist.begin(), hist.end(), 0.0);
        EXPECT_NEAR(sum, 1.0, 1e-12);
    }
}

TEST(FiniteSystem, RatesConserveTotalArrivalMass) {
    // Σ_j λ^j = M·λ exactly (every client routes somewhere), eq. (5).
    for (const ClientModel model :
         {ClientModel::PerClient, ClientModel::Aggregated, ClientModel::InfiniteClients}) {
        FiniteSystem system(small_config(model));
        Rng rng(3);
        system.reset(rng);
        const FixedRulePolicy jsq = make_jsq_policy(system.tuple_space());
        // Step a few epochs so states spread out.
        for (int t = 0; t < 3; ++t) {
            system.step(jsq, rng);
        }
        const DecisionRule rule = DecisionRule::mf_jsq(system.tuple_space());
        const auto rates = system.compute_queue_rates(rule, rng);
        const double total = std::accumulate(rates.begin(), rates.end(), 0.0);
        const double expected =
            static_cast<double>(system.config().num_queues) * system.lambda_value();
        EXPECT_NEAR(total, expected, 1e-9) << "model=" << static_cast<int>(model);
    }
}

TEST(FiniteSystem, AggregatedMatchesPerClientInDistribution) {
    // The exact multinomial aggregation must give the same drop statistics
    // as literal per-client simulation. 60 episodes each; means must agree
    // within joint CI.
    RunningStat per_client, aggregated;
    for (int rep = 0; rep < 60; ++rep) {
        for (const ClientModel model : {ClientModel::PerClient, ClientModel::Aggregated}) {
            FiniteSystemConfig config = small_config(model);
            FiniteSystem system(config);
            Rng rng(1000 + rep);
            system.reset(rng);
            const FixedRulePolicy jsq = make_jsq_policy(system.tuple_space());
            const EpisodeStats stats = system.run_episode(jsq, rng);
            (model == ClientModel::PerClient ? per_client : aggregated)
                .add(stats.total_drops_per_queue);
        }
    }
    const double joint_err = 3.0 * std::sqrt(per_client.standard_error() *
                                                 per_client.standard_error() +
                                             aggregated.standard_error() *
                                                 aggregated.standard_error());
    EXPECT_NEAR(per_client.mean(), aggregated.mean(), joint_err + 0.05);
}

TEST(FiniteSystem, ComputeQueueRatesLeavesTheTrajectoryAlone) {
    // compute_queue_rates runs the barrier's rate inputs from the RNG it is
    // given, so probing it on a clone of the caller's RNG before every step
    // leaves the episode bit-identical: no shard stream moves.
    for (const ClientModel model :
         {ClientModel::PerClient, ClientModel::Aggregated, ClientModel::InfiniteClients}) {
        for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE(::testing::Message()
                         << "model " << static_cast<int>(model) << " K " << shards);
            const auto run = [&](bool probe) {
                FiniteSystemConfig config = small_config(model);
                config.shards = shards;
                config.track_sojourn = true;
                FiniteSystem system(config);
                const FixedRulePolicy jsq = make_jsq_policy(system.tuple_space());
                Rng rng(17);
                system.reset(rng);
                std::vector<double> trace;
                while (!system.done()) {
                    if (probe) {
                        Rng clone = rng;
                        EXPECT_EQ(system.compute_queue_rates(jsq.rule(), clone).size(),
                                  config.num_queues);
                    }
                    const EpochStats stats = system.step(jsq, rng);
                    trace.insert(trace.end(),
                                 {static_cast<double>(stats.accepted_packets),
                                  static_cast<double>(stats.dropped_packets),
                                  static_cast<double>(stats.served_packets),
                                  stats.mean_queue_length, stats.mean_sojourn});
                }
                const std::array<double, 3> q = system.sojourn_percentiles();
                trace.insert(trace.end(), q.begin(), q.end());
                trace.insert(trace.end(), system.queue_states().begin(),
                             system.queue_states().end());
                return trace;
            };
            EXPECT_EQ(run(true), run(false));
        }
    }
}

TEST(FiniteSystem, SojournTrackingNeverMovesATrajectory) {
    // The kernel's sojourn instantiation runs the plain loop with bookkeeping
    // that draws nothing, so tracking changes only the sojourn fields: every
    // other EpochStats field is bit-identical, epoch by epoch.
    for (const ClientModel model :
         {ClientModel::PerClient, ClientModel::Aggregated, ClientModel::InfiniteClients}) {
        for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE(::testing::Message()
                         << "model " << static_cast<int>(model) << " K " << shards);
            const auto run = [&](bool track) {
                FiniteSystemConfig config = small_config(model);
                config.shards = shards;
                config.track_sojourn = track;
                FiniteSystem system(config);
                const FixedRulePolicy jsq = make_jsq_policy(system.tuple_space());
                Rng rng(23);
                system.reset(rng);
                std::vector<EpochStats> epochs;
                while (!system.done()) {
                    epochs.push_back(system.step(jsq, rng));
                }
                return std::pair(epochs, system.queue_states());
            };
            const auto [tracked, tracked_queues] = run(true);
            const auto [untracked, untracked_queues] = run(false);
            ASSERT_EQ(tracked.size(), untracked.size());
            std::uint64_t completed = 0;
            for (std::size_t t = 0; t < tracked.size(); ++t) {
                SCOPED_TRACE(::testing::Message() << "epoch " << t);
                const EpochStats& a = tracked[t];
                const EpochStats& b = untracked[t];
                EXPECT_EQ(a.drops_per_queue, b.drops_per_queue);
                EXPECT_EQ(a.dropped_packets, b.dropped_packets);
                EXPECT_EQ(a.accepted_packets, b.accepted_packets);
                EXPECT_EQ(a.served_packets, b.served_packets);
                EXPECT_EQ(a.mean_queue_length, b.mean_queue_length);
                EXPECT_EQ(a.server_utilization, b.server_utilization);
                completed += a.completed_jobs;
            }
            EXPECT_EQ(tracked_queues, untracked_queues);
            EXPECT_GT(completed, 0u); // the tracked run really recorded sojourns
        }
    }
}

TEST(FiniteSystem, InfiniteClientRatesEqualMeanFieldFlow) {
    FiniteSystem system(small_config(ClientModel::InfiniteClients));
    Rng rng(4);
    system.reset(rng);
    const FixedRulePolicy rnd = make_rnd_policy(system.tuple_space());
    for (int t = 0; t < 4; ++t) {
        system.step(rnd, rng);
    }
    const DecisionRule rule = DecisionRule::mf_rnd(system.tuple_space());
    const auto rates = system.compute_queue_rates(rule, rng);
    // Under RND at N = ∞ every queue sees exactly λ.
    for (double r : rates) {
        EXPECT_NEAR(r, system.lambda_value(), 1e-12);
    }
}

TEST(FiniteSystem, EpisodeStatsAccumulate) {
    FiniteSystem system(small_config());
    Rng rng(5);
    system.reset(rng);
    const FixedRulePolicy rnd = make_rnd_policy(system.tuple_space());
    const EpisodeStats stats = system.run_episode(rnd, rng);
    EXPECT_EQ(stats.drops_per_epoch.size(), 10u);
    const double sum =
        std::accumulate(stats.drops_per_epoch.begin(), stats.drops_per_epoch.end(), 0.0);
    EXPECT_NEAR(stats.total_drops_per_queue, sum, 1e-12);
    EXPECT_LE(stats.discounted_return, 0.0);
    EXPECT_GE(stats.mean_queue_length, 0.0);
    EXPECT_LE(stats.mean_queue_length, 5.0);
    EXPECT_GE(stats.server_utilization, 0.0);
    EXPECT_LE(stats.server_utilization, 1.0);
    EXPECT_TRUE(system.done());
    EXPECT_THROW(system.step(rnd, rng), std::logic_error);
}

TEST(FiniteSystem, SojournTrackingConservation) {
    FiniteSystemConfig config = small_config();
    config.track_sojourn = true;
    FiniteSystem system(config);
    Rng rng(31);
    system.reset(rng);
    const FixedRulePolicy rnd = make_rnd_policy(system.tuple_space());
    std::uint64_t completed = 0, served = 0;
    while (!system.done()) {
        const EpochStats epoch = system.step(rnd, rng);
        completed += epoch.completed_jobs;
        served += epoch.served_packets;
        if (epoch.completed_jobs > 0) {
            EXPECT_GT(epoch.mean_sojourn, 0.0);
        }
    }
    // Every completed service produces exactly one sojourn sample.
    EXPECT_EQ(completed, served);
}

TEST(FiniteSystem, SojournMatchesMm1bOracleUnderRnd) {
    // Under RND with constant λ every queue is an independent M/M/1/B with
    // arrival rate λ, so the long-run mean sojourn matches the closed form.
    FiniteSystemConfig config;
    config.num_queues = 60;
    config.num_clients = 3600;
    config.dt = 5.0;
    config.horizon = 200;
    config.arrivals = ArrivalProcess::constant(0.8);
    config.track_sojourn = true;
    FiniteSystem system(config);
    Rng rng(33);
    system.reset(rng);
    const FixedRulePolicy rnd = make_rnd_policy(system.tuple_space());
    const EpisodeStats stats = system.run_episode(rnd, rng);
    const double oracle = mm1b_mean_sojourn(0.8, 1.0, 5);
    // Includes a warm-up transient from empty, which shortens sojourns
    // slightly; allow a few percent.
    EXPECT_NEAR(stats.mean_sojourn, oracle, 0.08 * oracle);
    EXPECT_GT(stats.completed_jobs, 10000u);
}

TEST(FiniteSystem, SojournJsqShorterThanRndAtSmallDelay) {
    auto mean_sojourn = [&](auto&& factory) {
        FiniteSystemConfig config = small_config();
        config.dt = 1.0;
        config.horizon = 100;
        config.track_sojourn = true;
        FiniteSystem system(config);
        Rng rng(35);
        system.reset(rng);
        const auto policy = factory(system.tuple_space());
        return system.run_episode(policy, rng).mean_sojourn;
    };
    const double jsq = mean_sojourn([](const TupleSpace& s) { return make_jsq_policy(s); });
    const double rnd = mean_sojourn([](const TupleSpace& s) { return make_rnd_policy(s); });
    EXPECT_LT(jsq, rnd);
}

TEST(FiniteSystem, ObservedDistributionExactWhenNotSampling) {
    FiniteSystem system(small_config());
    Rng rng(37);
    system.reset(rng);
    const auto exact = system.empirical_distribution();
    const auto observed = system.observed_distribution(rng);
    for (std::size_t z = 0; z < exact.size(); ++z) {
        EXPECT_DOUBLE_EQ(exact[z], observed[z]);
    }
}

TEST(FiniteSystem, SampledHistogramIsUnbiasedEstimate) {
    FiniteSystemConfig config = small_config();
    config.histogram_sample_size = 10;
    FiniteSystem system(config);
    Rng rng(39);
    system.reset(rng);
    const FixedRulePolicy rnd = make_rnd_policy(system.tuple_space());
    for (int t = 0; t < 4; ++t) {
        system.step(rnd, rng);
    }
    const auto exact = system.empirical_distribution();
    // Average many sampled estimates: must converge to the exact histogram.
    std::vector<double> mean(exact.size(), 0.0);
    const int reps = 4000;
    for (int rep = 0; rep < reps; ++rep) {
        const auto est = system.observed_distribution(rng);
        for (std::size_t z = 0; z < est.size(); ++z) {
            mean[z] += est[z] / reps;
        }
    }
    for (std::size_t z = 0; z < exact.size(); ++z) {
        EXPECT_NEAR(mean[z], exact[z], 0.01) << "z=" << z;
    }
}

TEST(FiniteSystem, PartialInformationStillRunsEpisodes) {
    FiniteSystemConfig config = small_config();
    config.histogram_sample_size = 3; // extremely noisy view
    FiniteSystem system(config);
    Rng rng(41);
    system.reset(rng);
    const FixedRulePolicy jsq = make_jsq_policy(system.tuple_space());
    const EpisodeStats stats = system.run_episode(jsq, rng);
    EXPECT_GE(stats.total_drops_per_queue, 0.0);
    EXPECT_TRUE(system.done());
}

TEST(FiniteSystem, JsqHerdingUnderLargeDelay) {
    // Sanity check of the paper's motivating phenomenon: with a large Δt,
    // JSQ(2) should NOT beat RND (herding hurts it); with tiny Δt it should
    // clearly beat RND. We compare mean drops over replications.
    auto mean_drops = [&](double dt, auto&& policy_factory) {
        FiniteSystemConfig config = small_config();
        config.dt = dt;
        config.horizon = static_cast<int>(std::lround(150.0 / dt));
        RunningStat drops;
        for (int rep = 0; rep < 30; ++rep) {
            FiniteSystem system(config);
            Rng rng(42 + rep);
            system.reset(rng);
            const auto policy = policy_factory(system.tuple_space());
            drops.add(system.run_episode(policy, rng).total_drops_per_queue);
        }
        return drops.mean();
    };
    const double jsq_small_dt = mean_drops(1.0, [](const TupleSpace& s) { return make_jsq_policy(s); });
    const double rnd_small_dt = mean_drops(1.0, [](const TupleSpace& s) { return make_rnd_policy(s); });
    EXPECT_LT(jsq_small_dt, rnd_small_dt);

    const double jsq_large_dt = mean_drops(10.0, [](const TupleSpace& s) { return make_jsq_policy(s); });
    const double rnd_large_dt = mean_drops(10.0, [](const TupleSpace& s) { return make_rnd_policy(s); });
    // Herding: JSQ loses its edge (allow a small tolerance on the compare).
    EXPECT_GT(jsq_large_dt, rnd_large_dt * 0.9);
}

// ---------------------------------------------------------------------------
// The contract all three backends share, each built through make_backend
// ---------------------------------------------------------------------------

struct BackendCase {
    SimBackend backend;
    const char* name; ///< the class name its errors start with.
};

class BackendContract : public ::testing::TestWithParam<BackendCase> {
protected:
    /// 30 queues, 900 clients, Δt = 2, 40 epochs; K = 4 on the sharded backend.
    static FiniteSystemConfig config(ClientModel model) {
        FiniteSystemConfig config;
        config.num_queues = 30;
        config.num_clients = 900;
        config.dt = 2.0;
        config.horizon = 40;
        config.client_model = model;
        config.shards = 4;
        return config;
    }
    std::unique_ptr<FiniteBackend> make(const FiniteSystemConfig& config) const {
        return make_backend(GetParam().backend, config);
    }
    std::string name() const { return GetParam().name; }
};

constexpr ClientModel kClientModels[] = {ClientModel::PerClient, ClientModel::Aggregated,
                                         ClientModel::InfiniteClients};

TEST_P(BackendContract, RejectsRulesThatAreNotRowStochastic) {
    // One row NaN, or one row summing to 1.4, is rejected under every client
    // model before the epoch advances, on the explicit-rule path and on the
    // policy path (on the sharded backend, its RNG-free query inside the
    // barrier).
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const ClientModel model : kClientModels) {
        for (const std::vector<double>& bad_row :
             {std::vector<double>{nan, nan}, std::vector<double>{0.7, 0.7}}) {
            SCOPED_TRACE(::testing::Message() << "model " << static_cast<int>(model)
                                              << " row {" << bad_row[0] << ", " << bad_row[1]
                                              << "}");
            FiniteSystemConfig config = small_config(model);
            config.num_queues = 8;
            config.num_clients = 800;
            config.shards = 2;
            const auto system = make(config);
            DecisionRule rule = DecisionRule::mf_rnd(system->tuple_space());
            rule.set_row(7, bad_row);
            const FixedRulePolicy policy("bad", rule);
            Rng rng(3);
            system->reset(rng);
            (void)system->step_with_rule(DecisionRule::mf_jsq(system->tuple_space()), rng);
            for (const bool via_policy : {false, true}) {
                try {
                    (void)(via_policy ? system->step(policy, rng)
                                      : system->step_with_rule(rule, rng));
                    ADD_FAILURE() << "stepped with an invalid rule";
                } catch (const std::invalid_argument& e) {
                    EXPECT_EQ(std::string(e.what()),
                              name() + "::step: decision rule is not row-stochastic");
                }
                EXPECT_EQ(system->time(), 1);
            }
        }
    }
}

TEST_P(BackendContract, RejectsInvalidConfigsAndRules) {
    FiniteSystemConfig bad = config(ClientModel::Aggregated);
    bad.num_clients = 0;
    EXPECT_THROW(make(bad), std::invalid_argument);
    bad = config(ClientModel::InfiniteClients);
    bad.nu0 = {0.5, 0.5}; // wrong support size for B = 5
    EXPECT_THROW(make(bad), std::invalid_argument);

    const auto system = make(config(ClientModel::Aggregated));
    Rng rng(1);
    system->reset(rng);
    try {
        (void)system->step_with_rule(DecisionRule::mf_rnd(TupleSpace(3, 2)), rng);
        ADD_FAILURE() << "stepped with a rule on the wrong tuple space";
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), name() + "::step: decision rule on wrong tuple space");
    }
    try {
        (void)system->step_router(rng);
        ADD_FAILURE() << "stepped a router that is not configured";
    } catch (const std::logic_error& e) {
        EXPECT_EQ(std::string(e.what()), name() + "::step_router: no classical router configured");
    }
    EXPECT_EQ(system->time(), 0);
}

TEST_P(BackendContract, ConservesJobsAndCountsEveryEpoch) {
    for (const ClientModel model : kClientModels) {
        SCOPED_TRACE(static_cast<int>(model));
        const auto system = make(config(model));
        const DecisionRule h = DecisionRule::mf_jsq(system->tuple_space());
        Rng rng(7);
        system->reset(rng);
        while (!system->done()) {
            const auto before = system->queue_states();
            const std::int64_t jobs_before =
                std::accumulate(before.begin(), before.end(), std::int64_t{0});
            const EpochStats stats = system->step_with_rule(h, rng);
            const auto& after = system->queue_states();
            std::int64_t jobs_after = 0;
            for (const int z : after) {
                ASSERT_GE(z, 0);
                ASSERT_LE(z, system->config().queue.buffer);
                jobs_after += z;
            }
            EXPECT_EQ(jobs_after, jobs_before +
                                      static_cast<std::int64_t>(stats.accepted_packets) -
                                      static_cast<std::int64_t>(stats.served_packets));
            // The backend's histogram must match a from-scratch count.
            const std::vector<double> hist = system->empirical_distribution();
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
                      static_cast<double>(system->config().queue.buffer));
        }
        EXPECT_THROW(system->step_with_rule(h, rng), std::logic_error);
    }
}

TEST_P(BackendContract, ConditionedReplayPinsTheLambdaPath) {
    // Epochs past the end of the path hold its last state; the rule and the
    // policy entry points follow the same replay.
    FiniteSystemConfig c = config(ClientModel::InfiniteClients);
    c.horizon = 10;
    c.shards = 3;
    const auto system = make(c);
    const DecisionRule h = DecisionRule::mf_rnd(system->tuple_space());
    const FixedRulePolicy rnd = make_rnd_policy(system->tuple_space());
    const std::vector<std::size_t> path{0, 1, 1, 0, 1};
    Rng rng(3);
    system->reset_conditioned(path, rng);
    for (int t = 0; t < c.horizon; ++t) {
        const std::size_t expected =
            path[std::min<std::size_t>(static_cast<std::size_t>(t), path.size() - 1)];
        EXPECT_EQ(system->lambda_state(), expected) << "epoch " << t;
        (void)(t % 2 == 0 ? system->step_with_rule(h, rng) : system->step(rnd, rng));
    }
}

TEST_P(BackendContract, SojournPercentilesAreOrderedAndPlausible) {
    FiniteSystemConfig c = config(ClientModel::Aggregated);
    c.dt = 5.0;
    c.horizon = 60;
    c.shards = 5;
    c.track_sojourn = true;
    const FixedRulePolicy policy = make_rnd_policy(TupleSpace(c.queue.num_states(), c.d));
    const auto system = make(c);
    Rng rng(31);
    system->reset(rng);
    const EpisodeStats stats = system->run_episode(policy, rng);
    ASSERT_GT(stats.completed_jobs, 1000u);
    EXPECT_GT(stats.sojourn_p50, 0.0);
    EXPECT_LE(stats.sojourn_p50, stats.sojourn_p95);
    EXPECT_LE(stats.sojourn_p95, stats.sojourn_p99);
    // Mean must lie between the median and the tail for this skewed law.
    EXPECT_GT(stats.mean_sojourn, 0.0);
    EXPECT_LT(stats.mean_sojourn, stats.sojourn_p99);
    // And the evaluator surfaces the same numbers with CIs.
    const EvaluationResult result = evaluate_backend(GetParam().backend, c, policy, 6, 47);
    EXPECT_EQ(result.episodes, 6u);
    EXPECT_EQ(result.sojourn_p50.n, 6u);
    EXPECT_GT(result.sojourn_p50.mean, 0.0);
    EXPECT_LE(result.sojourn_p50.mean, result.sojourn_p95.mean);
    EXPECT_LE(result.sojourn_p95.mean, result.sojourn_p99.mean);
}

TEST_P(BackendContract, EvaluateBackendAveragesItsOwnReplications) {
    FiniteSystemConfig c = config(ClientModel::Aggregated);
    c.horizon = 10;
    c.shards = 3;
    const FixedRulePolicy jsq = make_jsq_policy(TupleSpace(c.queue.num_states(), c.d));
    const EvaluationResult result = evaluate_backend(GetParam().backend, c, jsq, 4, 9);
    RunningStat drops;
    for (Rng& rng : split_replication_rngs(9, 4)) {
        const auto system = make(c);
        system->reset(rng);
        drops.add(system->run_episode(jsq, rng).total_drops_per_queue);
    }
    EXPECT_EQ(result.episodes, 4u);
    EXPECT_DOUBLE_EQ(result.total_drops.mean, drops.mean());
    EXPECT_EQ(result.sojourn_p50.n, 0u); // track_sojourn off: no sojourn samples.
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendContract,
                         ::testing::Values(BackendCase{SimBackend::Finite, "FiniteSystem"},
                                           BackendCase{SimBackend::Des, "DesSystem"},
                                           BackendCase{SimBackend::ShardedDes, "FiniteSystem"}),
                         [](const ::testing::TestParamInfo<BackendCase>& info) {
                             std::string name(backend_name(info.param.backend));
                             std::replace(name.begin(), name.end(), '-', '_');
                             return name;
                         });

/// `System` that counts one phantom job once epoch 3 has run, as a kernel
/// that loses track of a job would.
template <class System>
class PhantomJob : public System {
public:
    using System::System;

protected:
    std::int64_t jobs_in_system() const noexcept override {
        return System::jobs_in_system() + (this->time() > 3 ? 1 : 0);
    }
};

template <class System>
void expect_lost_job_is_caught(const std::string& name, std::size_t shards) {
    for (const bool router : {false, true}) {
        for (const bool via_policy : {false, true}) {
            SCOPED_TRACE(::testing::Message() << name << " K " << shards << " router " << router
                                              << " via_policy " << via_policy);
            FiniteSystemConfig config = small_config();
            config.shards = shards;
            if (router) {
                config.router.kind = RouterKind::Random;
            }
            PhantomJob<System> system(config);
            const FixedRulePolicy jsq = make_jsq_policy(system.tuple_space());
            const auto step = [&](Rng& rng) {
                if (router) {
                    return via_policy ? system.step(jsq, rng) : system.step_router(rng);
                }
                return via_policy ? system.step(jsq, rng)
                                  : system.step_with_rule(jsq.rule(), rng);
            };
            Rng rng(5);
            system.reset(rng);
            for (int t = 0; t < 3; ++t) {
                (void)step(rng);
            }
            try {
                (void)step(rng);
                ADD_FAILURE() << "an epoch that lost a job passed";
            } catch (const std::logic_error& e) {
                const std::string want = name + "::step: epoch 3 does not conserve jobs: ";
                EXPECT_EQ(std::string(e.what()).substr(0, want.size()), want) << e.what();
            }
        }
    }
}

TEST(FiniteBackend, EpochThatLosesAJobThrowsNamingTheBackendAndEpoch) {
    expect_lost_job_is_caught<FiniteSystem>("FiniteSystem", 1);
    expect_lost_job_is_caught<DesSystem>("DesSystem", 0);
    expect_lost_job_is_caught<FiniteSystem>("FiniteSystem", 2);
}

} // namespace
} // namespace mflb
