// Tests for the finite N-client/M-queue simulator (Algorithm 1), including
// the exact-equivalence of the aggregated client model.
#include "queueing/finite_system.hpp"
#include "des/des_system.hpp"
#include "des/sharded_des_system.hpp"
#include "policies/fixed.hpp"
#include "support/statistics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

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
        {"FiniteSystem", [](const FiniteSystemConfig& c) { FiniteSystem system(c); }},
        {"DesSystem", [](const FiniteSystemConfig& c) { DesSystem system(c); }},
        {"ShardedDesSystem", [](const FiniteSystemConfig& c) { ShardedDesSystem system(c); }},
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

/// A rule that is not row-stochastic — one row NaN, or one row summing to
/// 1.4 — must be rejected by `backend`'s epoch under every client model,
/// before the epoch advances, with an error naming the backend. Both the
/// explicit-rule path and the policy path (on the sharded backend, its
/// RNG-free query inside the barrier) are covered.
template <class System>
void expect_rejects_invalid_rules(const std::string& backend) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const ClientModel model :
         {ClientModel::PerClient, ClientModel::Aggregated, ClientModel::InfiniteClients}) {
        for (const std::vector<double>& bad_row :
             {std::vector<double>{nan, nan}, std::vector<double>{0.7, 0.7}}) {
            SCOPED_TRACE(::testing::Message() << backend << " model "
                                              << static_cast<int>(model) << " row {"
                                              << bad_row[0] << ", " << bad_row[1] << "}");
            FiniteSystemConfig config = small_config(model);
            config.num_queues = 8;
            config.num_clients = 800;
            config.shards = 2;
            System system(config);
            DecisionRule rule = DecisionRule::mf_rnd(system.tuple_space());
            rule.set_row(7, bad_row);
            const FixedRulePolicy policy("bad", rule);
            Rng rng(3);
            system.reset(rng);
            (void)system.step_with_rule(DecisionRule::mf_jsq(system.tuple_space()), rng);
            const std::string want =
                backend + "::step: decision rule is not row-stochastic";
            for (const bool via_policy : {false, true}) {
                try {
                    (void)(via_policy ? system.step(policy, rng)
                                      : system.step_with_rule(rule, rng));
                    ADD_FAILURE() << "stepped with an invalid rule";
                } catch (const std::invalid_argument& e) {
                    EXPECT_EQ(std::string(e.what()), want);
                }
                EXPECT_EQ(system.time(), 1);
            }
        }
    }
}

TEST(FiniteSystem, RejectsRulesThatAreNotRowStochastic) {
    expect_rejects_invalid_rules<FiniteSystem>("FiniteSystem");
}

TEST(DesSystem, RejectsRulesThatAreNotRowStochastic) {
    expect_rejects_invalid_rules<DesSystem>("DesSystem");
}

TEST(ShardedDesSystem, RejectsRulesThatAreNotRowStochastic) {
    expect_rejects_invalid_rules<ShardedDesSystem>("ShardedDesSystem");
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

TEST(FiniteSystem, ConditionedLambdaPathIsFollowed) {
    FiniteSystem system(small_config());
    Rng rng(6);
    const std::vector<std::size_t> path{1, 1, 0, 0, 1, 0, 1, 1, 0, 0};
    system.reset_conditioned(path, rng);
    const FixedRulePolicy rnd = make_rnd_policy(system.tuple_space());
    for (std::size_t t = 0; t < path.size(); ++t) {
        EXPECT_EQ(system.lambda_state(), path[t]) << "t=" << t;
        system.step(rnd, rng);
    }
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

} // namespace
} // namespace mflb
