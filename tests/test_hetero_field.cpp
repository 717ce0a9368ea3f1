// Tests for the heterogeneous-server mean-field model.
#include "field/hetero_field.hpp"
#include "math/simplex.hpp"
#include "queueing/finite_system.hpp"
#include "support/statistics.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

namespace mflb {
namespace {

ClassStateSpace two_class_space() {
    return ClassStateSpace({{0.5, 0.5}, {1.5, 0.5}}, 5);
}

TEST(ClassStateSpace, IndexingRoundTrip) {
    const ClassStateSpace space = two_class_space();
    EXPECT_EQ(space.size(), 12u);
    EXPECT_EQ(space.num_classes(), 2);
    EXPECT_EQ(space.fills(), 6);
    for (int c = 0; c < 2; ++c) {
        for (int z = 0; z <= 5; ++z) {
            const std::size_t s = space.index(c, z);
            EXPECT_EQ(space.class_of(s), c);
            EXPECT_EQ(space.fill_of(s), z);
        }
    }
    EXPECT_THROW(space.index(2, 0), std::out_of_range);
    EXPECT_THROW(space.index(0, 6), std::out_of_range);
}

TEST(ClassStateSpace, WeightsNormalized) {
    // Raw counts are accepted and normalized.
    const ClassStateSpace space({{1.0, 30.0}, {2.0, 10.0}}, 3);
    EXPECT_NEAR(space.server_class(0).weight, 0.75, 1e-12);
    EXPECT_NEAR(space.server_class(1).weight, 0.25, 1e-12);
    const auto nu0 = space.initial_distribution();
    EXPECT_NEAR(std::accumulate(nu0.begin(), nu0.end(), 0.0), 1.0, 1e-12);
    EXPECT_NEAR(nu0[space.index(0, 0)], 0.75, 1e-12);
}

TEST(ClassStateSpace, Validation) {
    EXPECT_THROW(ClassStateSpace({}, 5), std::invalid_argument);
    EXPECT_THROW(ClassStateSpace({{1.0, 1.0}}, 0), std::invalid_argument);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double bad : {0.0, -1.0, nan, inf, -inf}) {
        EXPECT_THROW(ClassStateSpace({{bad, 0.5}, {1.5, 0.5}}, 5), std::invalid_argument)
            << "rate " << bad;
        EXPECT_THROW(ClassStateSpace({{0.5, bad}, {1.5, 0.5}}, 5), std::invalid_argument)
            << "weight " << bad;
    }
}

TEST(HeteroRules, SedPrefersFastServers) {
    const ClassStateSpace space = two_class_space();
    const DecisionRule sed = hetero_sed_rule(space, 2);
    const DecisionRule jsq = hetero_jsq_rule(space, 2);
    EXPECT_TRUE(sed.is_valid());
    EXPECT_TRUE(jsq.is_valid());
    // Tuple: (slow with 1 job, fast with 3 jobs).
    // SED: (1+1)/0.5 = 4 vs (3+1)/1.5 = 2.67 -> fast wins.
    // JSQ: 1 < 3 -> slow wins.
    const TupleSpace tuples = space.tuple_space(2);
    std::vector<int> tuple{static_cast<int>(space.index(0, 1)),
                           static_cast<int>(space.index(1, 3))};
    const std::size_t idx = tuples.index_of(tuple);
    EXPECT_DOUBLE_EQ(sed.prob(idx, 1), 1.0);
    EXPECT_DOUBLE_EQ(jsq.prob(idx, 0), 1.0);
}

TEST(HeteroDiscretization, ConservesClassMarginals) {
    const ClassStateSpace space = two_class_space();
    const HeteroDiscretization disc(space, 5.0);
    const DecisionRule sed = hetero_sed_rule(space, 2);
    std::vector<double> nu = space.initial_distribution();
    for (int t = 0; t < 15; ++t) {
        const MeanFieldStep step = disc.step(nu, sed, 0.9);
        ASSERT_TRUE(is_probability_vector(step.nu_next, 1e-8));
        // Class weights never change (servers do not switch class).
        for (int c = 0; c < 2; ++c) {
            double marginal = 0.0;
            for (int z = 0; z <= 5; ++z) {
                marginal += step.nu_next[space.index(c, z)];
            }
            EXPECT_NEAR(marginal, 0.5, 1e-9) << "t=" << t << " c=" << c;
        }
        EXPECT_GE(step.expected_drops, 0.0);
        nu = step.nu_next;
    }
}

TEST(HeteroDiscretization, ReducesToHomogeneousWhenRatesEqual) {
    // One class with rate alpha must reproduce the homogeneous model.
    const ClassStateSpace space({{1.0, 1.0}}, 5);
    const HeteroDiscretization hetero(space, 5.0);
    const ExactDiscretization homo({5, 1.0}, 5.0);
    const TupleSpace tuples(6, 2);
    const DecisionRule h_homo = DecisionRule::mf_jsq(tuples);
    const DecisionRule h_hetero = hetero_jsq_rule(space, 2);
    std::vector<double> nu{0.3, 0.25, 0.2, 0.1, 0.1, 0.05};
    const MeanFieldStep a = hetero.step(nu, h_hetero, 0.9);
    const MeanFieldStep b = homo.step(nu, h_homo, 0.9);
    for (std::size_t z = 0; z < 6; ++z) {
        EXPECT_NEAR(a.nu_next[z], b.nu_next[z], 1e-12);
    }
    EXPECT_NEAR(a.expected_drops, b.expected_drops, 1e-12);
}

TEST(HeteroMfcEnv, SedBeatsJsqWithUnevenRates) {
    // Strongly uneven rates at small delay: exploiting them must help.
    const ClassStateSpace space({{0.2, 0.5}, {1.8, 0.5}}, 5);
    HeteroMfcEnv::Config config{space, 2, 1.0, ArrivalProcess::constant(0.8), 80, 0.99};
    const DecisionRule sed = hetero_sed_rule(space, 2);
    const DecisionRule jsq = hetero_jsq_rule(space, 2);
    Rng rng(1);
    HeteroMfcEnv env_sed(config);
    env_sed.reset(rng);
    const double sed_drops = hetero_rollout_drops(env_sed, sed, rng);
    HeteroMfcEnv env_jsq(config);
    env_jsq.reset(rng);
    const double jsq_drops = hetero_rollout_drops(env_jsq, jsq, rng);
    EXPECT_LT(sed_drops, jsq_drops);
}

TEST(HeteroMfcEnv, FiniteSystemConvergesToMeanField) {
    // Theorem-1-style check for the heterogeneous extension: the finite
    // system under the sed-d router approaches the hetero mean-field value
    // as M grows. Constant arrival rate removes λ-path noise.
    const int horizon = 30;
    const double dt = 2.0;
    const ArrivalProcess arrivals = ArrivalProcess::constant(0.8);

    const ClassStateSpace space({{0.5, 0.5}, {1.5, 0.5}}, 5);
    HeteroMfcEnv::Config mf_config{space, 2, dt, arrivals, horizon, 0.99};
    HeteroMfcEnv env(mf_config);
    Rng mf_rng(1);
    env.reset(mf_rng);
    const double limit = hetero_rollout_drops(env, hetero_sed_rule(space, 2), mf_rng);

    auto finite_drops = [&](std::size_t m, int episodes) {
        FiniteSystemConfig config;
        config.dt = dt;
        config.horizon = horizon;
        config.arrivals = arrivals;
        config.num_queues = m;
        config.server_speeds.assign(m, 0.5);
        for (std::size_t j = m / 2; j < m; ++j) {
            config.server_speeds[j] = 1.5;
        }
        config.router.kind = RouterKind::SedD;
        config.router.d = 2;
        RunningStat drops;
        for (int rep = 0; rep < episodes; ++rep) {
            FiniteSystem system(config);
            Rng rng(500 + rep);
            system.reset(rng);
            drops.add(system.run_episode(rng).total_drops_per_queue);
        }
        return drops.mean();
    };
    const double small_gap = std::abs(finite_drops(20, 12) - limit);
    const double large_gap = std::abs(finite_drops(200, 12) - limit);
    EXPECT_LT(large_gap, 0.12 * std::max(1.0, limit));
    EXPECT_LT(large_gap, small_gap + 0.05 * std::max(1.0, limit));
}

TEST(HeteroMfcEnv, ConditionedPathDeterminism) {
    const ClassStateSpace space = two_class_space();
    HeteroMfcEnv::Config config{space, 2, 5.0, ArrivalProcess::paper_two_state(), 10, 0.99};
    const std::vector<std::size_t> path{0, 1, 0, 1, 0, 1, 0, 1, 0, 1};
    auto run = [&] {
        HeteroMfcEnv env(config);
        env.reset_conditioned(path);
        Rng rng(9);
        return hetero_rollout_drops(env, hetero_sed_rule(space, 2), rng);
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

} // namespace
} // namespace mflb
