// Cross-backend equivalence of the classical routers. The weight-law routers
// (random, jsq, jsq-d, sed-d, sq-stale) feed the identical epoch-barrier law
// to all three backends — frozen Poisson rates on the epoch engine at K = 1
// (finite) and K = 4 (sharded-des), a thinned aggregated stream on
// DesSystem — so their drop
// statistics must agree within Monte Carlo confidence intervals. sq-stale
// with a zero refresh period goes through the same code path as jsq and is
// pinned bit-identical to it, as is sed-d to jsq-d on a homogeneous fleet;
// the jsq-d/sed-d law itself is pinned against the mean-field routing table.
// Sharded results stay bit-identical across thread counts even when the
// service law consumes multiple draws per sample.
#include "core/mflb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace mflb {
namespace {

FiniteSystemConfig fleet_config(RouterSpec router) {
    FiniteSystemConfig config;
    config.num_queues = 24;
    config.dt = 2.0;
    config.horizon = 60;
    config.shards = 4;
    config.threads = 1;
    config.router = router;
    return config;
}

/// The same fleet with half its servers at speed 0.5 and half at 1.5.
FiniteSystemConfig two_speed_fleet(RouterSpec router) {
    FiniteSystemConfig config = fleet_config(router);
    config.server_speeds.assign(config.num_queues, 0.5);
    std::fill(config.server_speeds.begin() +
                  static_cast<std::ptrdiff_t>(config.num_queues / 2),
              config.server_speeds.end(), 1.5);
    return config;
}

ConfidenceInterval drops_ci(SimBackend backend, const FiniteSystemConfig& config,
                            std::size_t episodes, std::uint64_t seed) {
    const auto drops = run_replications(episodes, seed, 0, [&](std::size_t, Rng& rng) {
        const auto system = make_backend(backend, config);
        system->reset(rng);
        return system->run_episode(rng).total_drops_per_queue;
    });
    RunningStat stat;
    for (const double d : drops) {
        stat.add(d);
    }
    return confidence_interval_95(stat);
}

void expect_overlap(const ConfidenceInterval& a, const ConfidenceInterval& b,
                    const char* label) {
    // Same distribution => the 95% intervals overlap (tiny slack absorbs the
    // case of two very tight intervals around the same mean).
    const double gap = std::abs(a.mean - b.mean);
    const double reach = a.half_width + b.half_width + 0.05 * std::max(a.mean, b.mean);
    EXPECT_LE(gap, reach) << label << ": " << a.mean << " +- " << a.half_width << " vs "
                          << b.mean << " +- " << b.half_width;
}

TEST(RouterEquivalence, WeightLawRoutersAgreeAcrossBackends) {
    const FiniteSystemConfig configs[] = {
        fleet_config({RouterKind::Random, 2, 0.0}),
        fleet_config({RouterKind::Jsq, 2, 0.0}),
        fleet_config({RouterKind::JsqD, 2, 0.0}),
        fleet_config({RouterKind::SqStale, 2, 6.0}),
        two_speed_fleet({RouterKind::SedD, 2, 0.0}),
    };
    for (const FiniteSystemConfig& config : configs) {
        const std::size_t episodes = 12;
        const ConfidenceInterval finite = drops_ci(SimBackend::Finite, config, episodes, 11);
        const ConfidenceInterval des = drops_ci(SimBackend::Des, config, episodes, 11);
        const ConfidenceInterval sharded =
            drops_ci(SimBackend::ShardedDes, config, episodes, 11);
        const std::string label(router_name(config.router.kind));
        expect_overlap(finite, des, (label + " finite/des").c_str());
        expect_overlap(finite, sharded, (label + " finite/sharded").c_str());
        expect_overlap(des, sharded, (label + " des/sharded").c_str());
    }
}

TEST(RouterEquivalence, RoundRobinAgreesOnEventBackends) {
    // Only DesSystem realizes round-robin as a per-job cyclic cursor. The
    // epoch engine carries its equal-split mean behavior (every queue at
    // rate λ_t — see queueing/router.hpp), so its K = 1 and K = 4 runs must
    // agree in distribution.
    const FiniteSystemConfig config = fleet_config({RouterKind::RoundRobin, 2, 0.0});
    const ConfidenceInterval finite = drops_ci(SimBackend::Finite, config, 12, 23);
    const ConfidenceInterval sharded = drops_ci(SimBackend::ShardedDes, config, 12, 23);
    expect_overlap(finite, sharded, "round-robin finite/sharded");
}

void expect_same_episode(SimBackend backend, const FiniteSystemConfig& a,
                         const FiniteSystemConfig& b, std::uint64_t seed, const char* label) {
    const auto sys_a = make_backend(backend, a);
    const auto sys_b = make_backend(backend, b);
    Rng rng_a(seed);
    Rng rng_b(seed);
    sys_a->reset(rng_a);
    sys_b->reset(rng_b);
    const EpisodeStats ep_a = sys_a->run_episode(rng_a);
    const EpisodeStats ep_b = sys_b->run_episode(rng_b);
    EXPECT_DOUBLE_EQ(ep_a.total_drops_per_queue, ep_b.total_drops_per_queue) << label;
    EXPECT_DOUBLE_EQ(ep_a.discounted_return, ep_b.discounted_return) << label;
    EXPECT_EQ(ep_a.dropped_packets, ep_b.dropped_packets) << label;
    EXPECT_EQ(ep_a.accepted_packets, ep_b.accepted_packets) << label;
    EXPECT_DOUBLE_EQ(ep_a.mean_queue_length, ep_b.mean_queue_length) << label;
    EXPECT_DOUBLE_EQ(ep_a.server_utilization, ep_b.server_utilization) << label;
}

TEST(RouterEquivalence, SqStaleAtZeroPeriodIsExactlyJsq) {
    // stale_period = 0 refreshes the frozen snapshot every epoch, which must
    // reproduce jsq bit for bit on every backend (identical weight law,
    // identical draw order) — the regression pin for the staleness knob.
    const FiniteSystemConfig jsq = fleet_config({RouterKind::Jsq, 2, 0.0});
    const FiniteSystemConfig sq0 = fleet_config({RouterKind::SqStale, 2, 0.0});
    expect_same_episode(SimBackend::Finite, jsq, sq0, 31, "finite");
    expect_same_episode(SimBackend::Des, jsq, sq0, 31, "des");
    expect_same_episode(SimBackend::ShardedDes, jsq, sq0, 31, "sharded");
}

TEST(RouterEquivalence, SedDOnAHomogeneousFleetIsExactlyJsqD) {
    // With every speed 1 the SED score z + 1 orders the cells like z and
    // ties the same queues, so sed-d must reproduce jsq-d bit for bit.
    const FiniteSystemConfig jsqd = fleet_config({RouterKind::JsqD, 2, 0.0});
    const FiniteSystemConfig sedd = fleet_config({RouterKind::SedD, 2, 0.0});
    expect_same_episode(SimBackend::Finite, jsqd, sedd, 31, "finite");
    expect_same_episode(SimBackend::Des, jsqd, sedd, 31, "des");
    expect_same_episode(SimBackend::ShardedDes, jsqd, sedd, 31, "sharded");
}

/// `w / Σw`.
std::vector<double> normalized(std::vector<double> w) {
    double total = 0.0;
    for (const double x : w) {
        total += x;
    }
    for (double& x : w) {
        x /= total;
    }
    return w;
}

/// The mean-field per-queue law of rule `h` on a fleet whose queue j is in
/// state `states[j]` of h's state space: σ_{s_j}/M with σ the folded routing
/// table over the snapshot histogram (normalized).
std::vector<double> mean_field_law(const std::vector<int>& states, const DecisionRule& h) {
    const auto num_s = static_cast<std::size_t>(h.space().num_states());
    const int d = h.space().d();
    std::vector<double> hist(num_s, 0.0);
    for (const int s : states) {
        hist[static_cast<std::size_t>(s)] += 1.0 / static_cast<double>(states.size());
    }
    std::vector<int> tuple(static_cast<std::size_t>(d));
    std::vector<double> suffix(static_cast<std::size_t>(d) + 1);
    std::vector<double> g(static_cast<std::size_t>(d) * num_s);
    compute_routing_table_into(hist, h, tuple, suffix, g);
    const std::span<const double> sums = fold_routing_table_rows(g, num_s, d);
    std::vector<double> law(states.size());
    for (std::size_t j = 0; j < states.size(); ++j) {
        law[j] = sums[static_cast<std::size_t>(states[j])];
    }
    return normalized(std::move(law));
}

TEST(RouterEquivalence, PowerOfDLawMatchesTheMeanFieldRoutingTable) {
    // The closed-form score law of jsq-d and sed-d against the tuple-space
    // arithmetic of the policy path: jsq-d against DecisionRule::mf_jsq over
    // Z, sed-d against hetero_sed_rule over S = C × Z. Speeds 0.5/1.0(/1.5)
    // tie scores across classes (z = 0 at 0.5 and z = 1 at 1.0 both score
    // 2), and the early snapshots crowd few states, so ties and empty cells
    // are common.
    const int buffer = 5;
    const std::size_t num_z = 6;
    const std::size_t m = 29;
    Rng rng(211);
    for (const std::vector<double>& rates :
         {std::vector<double>{0.5, 1.0}, std::vector<double>{0.5, 1.0, 1.5}}) {
        std::vector<ServerClass> server_classes;
        for (const double rate : rates) {
            server_classes.push_back({rate, 1.0});
        }
        const ClassStateSpace classes(server_classes, buffer);
        for (int d = 1; d <= 3; ++d) {
            const DecisionRule sed = hetero_sed_rule(classes, d);
            const DecisionRule jsq = DecisionRule::mf_jsq(TupleSpace(num_z, d));
            for (int snapshot = 0; snapshot < 25; ++snapshot) {
                SCOPED_TRACE(::testing::Message() << rates.size() << " classes, d " << d
                                                  << ", snapshot " << snapshot);
                std::vector<int> fills(m);
                std::vector<int> class_states(m);
                std::vector<double> speeds(m);
                for (std::size_t j = 0; j < m; ++j) {
                    const auto c = static_cast<int>(rng.uniform_below(rates.size()));
                    fills[j] = static_cast<int>(
                        rng.uniform_below(1 + static_cast<std::uint64_t>(snapshot) % num_z));
                    class_states[j] = static_cast<int>(classes.index(c, fills[j]));
                    speeds[j] = rates[static_cast<std::size_t>(c)];
                }
                std::vector<double> w(m);
                EpochRouter sed_router({RouterKind::SedD, d, 0.0}, m, num_z, 1.0, speeds);
                sed_router.epoch_weights(fills, 0, w);
                const std::vector<double> sed_got = normalized(w);
                const std::vector<double> sed_want = mean_field_law(class_states, sed);
                EpochRouter jsq_router({RouterKind::JsqD, d, 0.0}, m, num_z, 1.0, speeds);
                jsq_router.epoch_weights(fills, 0, w);
                const std::vector<double> jsq_got = normalized(w);
                const std::vector<double> jsq_want = mean_field_law(fills, jsq);
                for (std::size_t j = 0; j < m; ++j) {
                    EXPECT_NEAR(sed_got[j], sed_want[j], 1e-12) << "sed-d queue " << j;
                    EXPECT_NEAR(jsq_got[j], jsq_want[j], 1e-12) << "jsq-d queue " << j;
                }
            }
        }
    }
}

TEST(RouterEquivalence, PowerOfDAtLargeDConstructsAndSteps) {
    // Time and memory of the score law do not depend on d; a tuple-space
    // rule at d = 16 would hold |Z|^16·16 ≈ 4.5·10^13 doubles.
    for (const RouterKind kind : {RouterKind::JsqD, RouterKind::SedD}) {
        SCOPED_TRACE(router_name(kind));
        const FiniteSystemConfig config = two_speed_fleet({kind, 16, 0.0});
        FiniteSystem system(config);
        Rng rng(61);
        system.reset(rng);
        for (int t = 0; t < 5; ++t) {
            const EpochStats stats = system.step_router(rng);
            EXPECT_GT(stats.accepted_packets, 0u);
        }
        const std::size_t num_z = 6;
        EpochRouter router({kind, 16, 0.0}, config.num_queues, num_z, config.dt,
                           config.server_speeds);
        std::vector<int> snapshot(config.num_queues);
        for (int& z : snapshot) {
            z = static_cast<int>(rng.uniform_below(num_z));
        }
        std::vector<double> w(config.num_queues);
        router.epoch_weights(snapshot, 0, w);
        double total = 0.0;
        for (const double x : w) {
            EXPECT_TRUE(std::isfinite(x) && x >= 0.0);
            total += x;
        }
        EXPECT_NEAR(total, 1.0, 1e-12);
    }
}

TEST(RouterEquivalence, RouterPathIgnoresThePolicyArgument) {
    // With a classical router configured, step(policy) forwards to the
    // router kernel: the policy-taking episode overload must reproduce the
    // router-only overload exactly.
    const FiniteSystemConfig config = fleet_config({RouterKind::Jsq, 2, 0.0});
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy decoy = make_rnd_policy(space);
    DesSystem with_policy(config);
    DesSystem router_only(config);
    Rng rng_a(5);
    Rng rng_b(5);
    with_policy.reset(rng_a);
    router_only.reset(rng_b);
    const EpisodeStats ep_a = with_policy.run_episode(decoy, rng_a);
    const EpisodeStats ep_b = router_only.run_episode(rng_b);
    EXPECT_DOUBLE_EQ(ep_a.total_drops_per_queue, ep_b.total_drops_per_queue);
    EXPECT_EQ(ep_a.accepted_packets, ep_b.accepted_packets);
}

void expect_rule_step_rejected(SimBackend backend, const FiniteSystemConfig& config,
                               const std::string& name) {
    const auto system = make_backend(backend, config);
    const DecisionRule h = DecisionRule::mf_rnd(system->tuple_space());
    Rng rng(3);
    system->reset(rng);
    try {
        system->step_with_rule(h, rng);
        ADD_FAILURE() << name << " stepped a rule under a classical router";
    } catch (const std::logic_error& e) {
        EXPECT_EQ(std::string(e.what()),
                  name + "::step_with_rule: a classical router is configured; use step_router");
    }
    EXPECT_EQ(system->time(), 0) << name; // the rejected call ran no epoch
    system->step_router(rng);
    EXPECT_EQ(system->time(), 1) << name;
}

TEST(RouterEquivalence, RuleStepUnderARouterThrowsOnEveryBackend) {
    // step(policy) ignores the policy when a classical router is configured;
    // an explicit rule cannot be honored either, so step_with_rule refuses it
    // on every backend and client model (instead of mixing rule and router,
    // or misrouting every arrival) and points to step_router.
    for (const ClientModel model :
         {ClientModel::PerClient, ClientModel::Aggregated, ClientModel::InfiniteClients}) {
        SCOPED_TRACE(static_cast<int>(model));
        FiniteSystemConfig config = fleet_config({RouterKind::Jsq, 2, 0.0});
        config.client_model = model;
        expect_rule_step_rejected(SimBackend::Finite, config, "FiniteSystem");
        expect_rule_step_rejected(SimBackend::Des, config, "DesSystem");
        expect_rule_step_rejected(SimBackend::ShardedDes, config, "FiniteSystem");
    }
}

TEST(RouterEquivalence, ShardedThreadCountInvariantWithGeneralService) {
    // The (seed, K) determinism contract must survive multi-draw service
    // sampling: hyperexponential consumes two draws per service time and the
    // bounded Pareto reshapes every departure, so any cross-shard draw-order
    // leak would break bit-equality between thread counts.
    for (const ServiceDistKind kind :
         {ServiceDistKind::HyperExp, ServiceDistKind::BoundedPareto}) {
        FiniteSystemConfig config = fleet_config({RouterKind::Jsq, 2, 0.0});
        config.service.kind = kind;
        config.track_sojourn = true;
        FiniteSystemConfig two = config;
        two.threads = 2;
        FiniteSystemConfig eight = config;
        eight.threads = 8;
        expect_same_episode(SimBackend::ShardedDes, config, two, 47,
                            service_dist_name(kind).data());
        expect_same_episode(SimBackend::ShardedDes, config, eight, 47,
                            service_dist_name(kind).data());
    }
}

} // namespace
} // namespace mflb
