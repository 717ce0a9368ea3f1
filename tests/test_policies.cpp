// Tests for upper-level policies: fixed rules, tabular parameterizations,
// serialization, and the neural wrapper.
#include "core/neural_policy.hpp"
#include "core/rl_adapter.hpp"
#include "policies/fixed.hpp"
#include "policies/tabular.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace mflb {
namespace {

TEST(FixedPolicy, NamesAndRules) {
    const TupleSpace space(6, 2);
    const FixedRulePolicy jsq = make_jsq_policy(space);
    EXPECT_EQ(jsq.name(), "JSQ(2)");
    EXPECT_LT(jsq.rule().max_abs_diff(DecisionRule::mf_jsq(space)), 1e-15);
    const FixedRulePolicy rnd = make_rnd_policy(space);
    EXPECT_EQ(rnd.name(), "RND");
    const FixedRulePolicy soft = make_greedy_softmax_policy(space, 2.0);
    EXPECT_NE(soft.name().find("2"), std::string::npos);
}

TEST(FixedPolicy, DecideIgnoresState) {
    const TupleSpace space(6, 2);
    const FixedRulePolicy jsq = make_jsq_policy(space);
    Rng rng(1);
    const std::vector<double> nu_a{1.0, 0, 0, 0, 0, 0};
    const std::vector<double> nu_b{0, 0, 0, 0, 0, 1.0};
    const DecisionRule ra = jsq.decide(nu_a, 0, rng);
    const DecisionRule rb = jsq.decide(nu_b, 1, rng);
    EXPECT_LT(ra.max_abs_diff(rb), 1e-15);
}

TEST(TabularPolicy, DefaultIsUniform) {
    const TupleSpace space(6, 2);
    const TabularPolicy policy(space, 2);
    Rng rng(2);
    const std::vector<double> nu{1.0, 0, 0, 0, 0, 0};
    const DecisionRule rule = policy.decide(nu, 0, rng);
    EXPECT_LT(rule.max_abs_diff(DecisionRule::mf_rnd(space)), 1e-15);
    EXPECT_EQ(policy.parameter_count(), 2u * 36u * 2u);
}

TEST(TabularPolicy, PerLambdaRulesDiffer) {
    const TupleSpace space(6, 2);
    TabularPolicy policy(space, 2);
    std::vector<double> params(policy.parameter_count(), 0.0);
    // Make λ-state 1 strongly prefer coordinate 0 everywhere.
    const std::size_t per_rule = space.size() * 2;
    for (std::size_t r = 0; r < space.size(); ++r) {
        params[per_rule + r * 2] = 10.0;
    }
    policy.set_parameters(params);
    EXPECT_NEAR(policy.rule_for(0).prob(0, 0), 0.5, 1e-12);
    EXPECT_GT(policy.rule_for(1).prob(0, 0), 0.99);
    EXPECT_THROW(policy.rule_for(2), std::out_of_range);
    EXPECT_THROW(policy.set_parameters(std::vector<double>(3, 0.0)), std::invalid_argument);
}

TEST(TabularPolicy, SimplexParameterizationClamps) {
    const TupleSpace space(6, 2);
    TabularPolicy policy(space, 1, RuleParameterization::Simplex);
    std::vector<double> params(policy.parameter_count(), 0.25);
    params[0] = -1.0; // clamped to zero
    params[1] = 0.5;
    policy.set_parameters(params);
    const DecisionRule rule = policy.rule_for(0);
    EXPECT_TRUE(rule.is_valid());
    EXPECT_DOUBLE_EQ(rule.prob(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(rule.prob(0, 1), 1.0);
}

TEST(TabularPolicy, ArchiveRoundTrip) {
    const TupleSpace space(6, 2);
    TabularPolicy policy(space, 2, RuleParameterization::Logits, "my-policy");
    std::vector<double> params(policy.parameter_count());
    for (std::size_t i = 0; i < params.size(); ++i) {
        params[i] = 0.01 * static_cast<double>(i) - 0.7;
    }
    policy.set_parameters(params);
    const TabularPolicy loaded = TabularPolicy::from_archive(
        Archive::from_string(policy.to_archive().to_string()));
    EXPECT_EQ(loaded.name(), "my-policy");
    EXPECT_EQ(loaded.num_lambda_states(), 2u);
    EXPECT_EQ(loaded.parameterization(), RuleParameterization::Logits);
    for (std::size_t s = 0; s < 2; ++s) {
        EXPECT_LT(loaded.rule_for(s).max_abs_diff(policy.rule_for(s)), 1e-15);
    }
}

TEST(TabularPolicy, FromArchiveRejectsWrongType) {
    Archive archive;
    archive.put("type", std::string("other"));
    EXPECT_THROW(TabularPolicy::from_archive(archive), std::invalid_argument);
}

TEST(NeuralPolicy, ValidatesShapes) {
    const TupleSpace space(6, 2);
    Rng rng(3);
    auto wrong_obs = std::make_shared<rl::GaussianPolicy>(5, 72, std::vector<std::size_t>{8}, rng);
    EXPECT_THROW(NeuralUpperPolicy(space, 2, wrong_obs), std::invalid_argument);
    auto wrong_act = std::make_shared<rl::GaussianPolicy>(8, 10, std::vector<std::size_t>{8}, rng);
    EXPECT_THROW(NeuralUpperPolicy(space, 2, wrong_act), std::invalid_argument);
    EXPECT_THROW(NeuralUpperPolicy(space, 2, nullptr), std::invalid_argument);
}

TEST(NeuralPolicy, ProducesValidRules) {
    const TupleSpace space(6, 2);
    Rng rng(4);
    auto net = std::make_shared<rl::GaussianPolicy>(8, 72, std::vector<std::size_t>{16}, rng);
    const NeuralUpperPolicy policy(space, 2, net);
    const std::vector<double> nu{0.5, 0.2, 0.1, 0.1, 0.05, 0.05};
    Rng decide_rng(5);
    const DecisionRule rule = policy.decide(nu, 1, decide_rng);
    EXPECT_TRUE(rule.is_valid());
    EXPECT_THROW(policy.decide(std::vector<double>{1.0}, 0, decide_rng), std::invalid_argument);
    EXPECT_THROW(policy.decide(nu, 2, decide_rng), std::out_of_range);
}

TEST(NeuralPolicy, DeterministicMeanAction) {
    const TupleSpace space(6, 2);
    Rng rng(6);
    auto net = std::make_shared<rl::GaussianPolicy>(8, 72, std::vector<std::size_t>{16}, rng);
    const NeuralUpperPolicy policy(space, 2, net);
    const std::vector<double> nu{0.3, 0.3, 0.2, 0.1, 0.05, 0.05};
    Rng r1(7), r2(8);
    const DecisionRule a = policy.decide(nu, 0, r1);
    const DecisionRule b = policy.decide(nu, 0, r2);
    EXPECT_LT(a.max_abs_diff(b), 1e-15);
}

TEST(NeuralPolicy, DecideDecideIntoAndMeanActionAgreeBitForBit) {
    // Both epoch queries run the per-sample forward pass of mean_action, so
    // the rules from decide, from decide_into (warm scratch, reused rule)
    // and from the logits mean_action returns are equal bit for bit.
    const TupleSpace space(6, 2);
    Rng rng(10);
    auto net =
        std::make_shared<rl::GaussianPolicy>(8, 72, std::vector<std::size_t>{32, 32}, rng);
    net->network().output_bias()[5] = 0.7; // a rule visibly off uniform
    const NeuralUpperPolicy policy(space, 2, net);
    const std::unique_ptr<UpperLevelPolicy::Scratch> scratch = policy.make_scratch();
    DecisionRule into(space);
    for (const std::vector<double>& nu :
         {std::vector<double>{0.3, 0.3, 0.2, 0.1, 0.05, 0.05},
          std::vector<double>{0.0, 0.1, 0.1, 0.2, 0.25, 0.35}}) {
        for (const std::size_t lambda : {std::size_t{0}, std::size_t{1}}) {
            std::vector<double> obs = nu;
            obs.push_back(lambda == 0 ? 1.0 : 0.0);
            obs.push_back(lambda == 1 ? 1.0 : 0.0);
            DecisionRule expected(space);
            expected.set_from_logits(net->mean_action(obs));
            const DecisionRule decided = policy.decide(nu, lambda, rng);
            policy.decide_into(nu, lambda, rng, scratch.get(), into);
            EXPECT_EQ(decided.max_abs_diff(expected), 0.0);
            EXPECT_EQ(into.max_abs_diff(expected), 0.0);
        }
    }
}

TEST(MfcRlEnvAdapter, ActionDecoding) {
    MfcConfig config;
    config.dt = 5.0;
    config.horizon = 5;
    MfcRlEnv env(config, RuleParameterization::Logits);
    EXPECT_EQ(env.observation_dim(), 8u);
    EXPECT_EQ(env.action_dim(), 72u);
    const std::vector<double> zeros(72, 0.0);
    const DecisionRule rule = env.decode_action(zeros);
    EXPECT_LT(rule.max_abs_diff(DecisionRule::mf_rnd(env.env().tuple_space())), 1e-15);
}

TEST(MfcRlEnvAdapter, EpisodeFlow) {
    MfcConfig config;
    config.dt = 5.0;
    config.horizon = 4;
    MfcRlEnv env(config, RuleParameterization::Logits);
    Rng rng(9);
    auto obs = env.reset(rng);
    ASSERT_EQ(obs.size(), 8u);
    const std::vector<double> action(72, 0.0);
    int steps = 0;
    while (true) {
        const auto result = env.step(action, rng);
        ++steps;
        EXPECT_LE(result.reward, 0.0);
        if (result.done) {
            break;
        }
    }
    EXPECT_EQ(steps, 4);
}

TEST(MfcRlEnvAdapter, SimplexParameterization) {
    MfcConfig config;
    config.dt = 5.0;
    config.horizon = 3;
    MfcRlEnv env(config, RuleParameterization::Simplex);
    std::vector<double> action(72, 0.0);
    action[1] = 1.0; // row 0 fully on coordinate 1
    const DecisionRule rule = env.decode_action(action);
    EXPECT_DOUBLE_EQ(rule.prob(0, 1), 1.0);
    EXPECT_TRUE(rule.is_valid());
}

} // namespace
} // namespace mflb
