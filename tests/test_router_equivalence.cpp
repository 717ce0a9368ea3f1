// Cross-backend equivalence of the classical routers. The weight-law routers
// (random, jsq, jsq-d, sq-stale) feed the identical epoch-barrier law to all
// three backends — frozen Poisson rates on FiniteSystem and ShardedDesSystem,
// a thinned aggregated stream on DesSystem — so their drop
// statistics must agree within Monte Carlo confidence intervals. sq-stale
// with a zero refresh period goes through the same code path as jsq and is
// pinned bit-identical to it; sharded results stay bit-identical across
// thread counts even when the service law consumes multiple draws per sample.
#include "core/mflb.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

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

template <class System>
ConfidenceInterval drops_ci(const FiniteSystemConfig& config, std::size_t episodes,
                            std::uint64_t seed) {
    const auto drops = run_replications(episodes, seed, 0, [&](std::size_t, Rng& rng) {
        System system(config);
        system.reset(rng);
        return system.run_episode(rng).total_drops_per_queue;
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
    const RouterSpec specs[] = {
        {RouterKind::Random, 2, 0.0},
        {RouterKind::Jsq, 2, 0.0},
        {RouterKind::JsqD, 2, 0.0},
        {RouterKind::SqStale, 2, 6.0},
    };
    for (const RouterSpec& spec : specs) {
        const FiniteSystemConfig config = fleet_config(spec);
        const std::size_t episodes = 12;
        const ConfidenceInterval finite = drops_ci<FiniteSystem>(config, episodes, 11);
        const ConfidenceInterval des = drops_ci<DesSystem>(config, episodes, 11);
        const ConfidenceInterval sharded = drops_ci<ShardedDesSystem>(config, episodes, 11);
        const std::string label(router_name(spec.kind));
        expect_overlap(finite, des, (label + " finite/des").c_str());
        expect_overlap(finite, sharded, (label + " finite/sharded").c_str());
        expect_overlap(des, sharded, (label + " des/sharded").c_str());
    }
}

TEST(RouterEquivalence, RoundRobinAgreesOnEventBackends) {
    // Only DesSystem realizes round-robin as a per-job cyclic cursor.
    // FiniteSystem and ShardedDesSystem both carry its equal-split mean
    // behavior (every queue at rate λ_t — see queueing/router.hpp), so those
    // two must agree in distribution.
    const FiniteSystemConfig config = fleet_config({RouterKind::RoundRobin, 2, 0.0});
    const ConfidenceInterval finite = drops_ci<FiniteSystem>(config, 12, 23);
    const ConfidenceInterval sharded = drops_ci<ShardedDesSystem>(config, 12, 23);
    expect_overlap(finite, sharded, "round-robin finite/sharded");
}

template <class System>
void expect_same_episode(const FiniteSystemConfig& a, const FiniteSystemConfig& b,
                         std::uint64_t seed, const char* label) {
    System sys_a(a);
    System sys_b(b);
    Rng rng_a(seed);
    Rng rng_b(seed);
    sys_a.reset(rng_a);
    sys_b.reset(rng_b);
    const EpisodeStats ep_a = sys_a.run_episode(rng_a);
    const EpisodeStats ep_b = sys_b.run_episode(rng_b);
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
    expect_same_episode<FiniteSystem>(jsq, sq0, 31, "finite");
    expect_same_episode<DesSystem>(jsq, sq0, 31, "des");
    expect_same_episode<ShardedDesSystem>(jsq, sq0, 31, "sharded");
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

template <class System>
void expect_rule_step_rejected(const FiniteSystemConfig& config, const std::string& backend) {
    System system(config);
    const DecisionRule h = DecisionRule::mf_rnd(system.tuple_space());
    Rng rng(3);
    system.reset(rng);
    try {
        system.step_with_rule(h, rng);
        ADD_FAILURE() << backend << " stepped a rule under a classical router";
    } catch (const std::logic_error& e) {
        EXPECT_EQ(std::string(e.what()),
                  backend + "::step_with_rule: a classical router is configured; use step_router");
    }
    EXPECT_EQ(system.time(), 0) << backend; // the rejected call ran no epoch
    system.step_router(rng);
    EXPECT_EQ(system.time(), 1) << backend;
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
        expect_rule_step_rejected<FiniteSystem>(config, "FiniteSystem");
        expect_rule_step_rejected<DesSystem>(config, "DesSystem");
        expect_rule_step_rejected<ShardedDesSystem>(config, "ShardedDesSystem");
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
        expect_same_episode<ShardedDesSystem>(config, two, 47,
                                              service_dist_name(kind).data());
        expect_same_episode<ShardedDesSystem>(config, eight, 47,
                                              service_dist_name(kind).data());
    }
}

} // namespace
} // namespace mflb
