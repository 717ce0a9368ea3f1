// Tests for the named scenario registry (core/scenarios.hpp).
#include "core/scenarios.hpp"

#include "core/evaluator.hpp"
#include "des/des_system.hpp"
#include "policies/fixed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace mflb {
namespace {

TEST(Scenarios, RegistryHasUniqueNonEmptyNamesAndSummaries) {
    const auto& registry = scenario_registry();
    ASSERT_GE(registry.size(), 7u);
    std::set<std::string> names;
    for (const Scenario& scenario : registry) {
        EXPECT_FALSE(scenario.name.empty());
        EXPECT_FALSE(scenario.summary.empty());
        EXPECT_TRUE(names.insert(scenario.name).second) << "duplicate: " << scenario.name;
    }
}

TEST(Scenarios, FindAndDieSemantics) {
    EXPECT_NE(find_scenario("table1"), nullptr);
    EXPECT_EQ(find_scenario("nope"), nullptr);
    EXPECT_NO_THROW(scenario_or_die("delay-sweep"));
    EXPECT_THROW(scenario_or_die("nope"), std::invalid_argument);
}

TEST(Scenarios, Table1MatchesPaperBaseline) {
    const Scenario& table1 = scenario_or_die("table1");
    EXPECT_EQ(table1.experiment.num_queues, 100u);
    EXPECT_EQ(table1.experiment.num_clients, 10000u);
    EXPECT_EQ(table1.experiment.queue.buffer, 5);
    EXPECT_EQ(table1.experiment.d, 2);
    EXPECT_DOUBLE_EQ(table1.experiment.lambda_high, 0.9);
    EXPECT_DOUBLE_EQ(table1.experiment.lambda_low, 0.6);
}

TEST(Scenarios, EveryScenarioYieldsConstructibleSystems) {
    for (const Scenario& scenario : scenario_registry()) {
        SCOPED_TRACE(scenario.name);
        // The Table-1-style core must resolve into valid finite, MFC and
        // client-memory configs.
        EXPECT_NO_THROW({
            FiniteSystem system(scenario.experiment.finite_system());
            (void)system;
        });
        EXPECT_NO_THROW({
            MfcEnv env(scenario.experiment.mfc(true));
            (void)env;
        });
        EXPECT_NO_THROW({
            MemorySystem system(scenario.experiment.memory_system());
            (void)system;
        });
    }
}

TEST(Scenarios, EveryScenarioResizesAndStepsOnEveryBackend) {
    // The CLI's --m override: each scenario resized to M = 50 (per-queue
    // speeds resampled with the fleet) must construct and step on every
    // backend.
    for (const Scenario& scenario : scenario_registry()) {
        ExperimentConfig experiment = scenario.experiment;
        resize_fleet(experiment, 50);
        EXPECT_EQ(experiment.num_queues, 50u);
        if (!scenario.experiment.server_speeds.empty()) {
            EXPECT_EQ(experiment.server_speeds.size(), 50u);
        }
        for (const SimBackend backend :
             {SimBackend::Finite, SimBackend::Des, SimBackend::ShardedDes}) {
            SCOPED_TRACE(scenario.name + " on " + std::string(backend_name(backend)));
            const auto system = make_backend(backend, experiment.finite_system());
            const FixedRulePolicy jsq = make_jsq_policy(system->tuple_space());
            Rng rng(5);
            system->reset(rng);
            const EpochStats stats = system->step(jsq, rng);
            EXPECT_EQ(system->time(), 1);
            EXPECT_LE(stats.server_utilization, 1.0);
        }
    }
}

TEST(Scenarios, ResizeFleetResamplesSpeedsKeepingClassFractions) {
    ExperimentConfig hetero = scenario_or_die("heterogeneous").experiment; // 60 × 0.5, 60 × 1.5
    resize_fleet(hetero, 50);
    ASSERT_EQ(hetero.server_speeds.size(), 50u);
    EXPECT_EQ(std::count(hetero.server_speeds.begin(), hetero.server_speeds.end(), 0.5), 25);
    EXPECT_EQ(std::count(hetero.server_speeds.begin(), hetero.server_speeds.end(), 1.5), 25);
    resize_fleet(hetero, 7); // speed'[j] = speed[⌊j·50/7⌋]
    EXPECT_EQ(hetero.server_speeds, (std::vector<double>{0.5, 0.5, 0.5, 0.5, 1.5, 1.5, 1.5}));
    ExperimentConfig table1 = scenario_or_die("table1").experiment;
    resize_fleet(table1, 50);
    EXPECT_TRUE(table1.server_speeds.empty());
    EXPECT_EQ(table1.num_clients, 10000u); // N is the caller's to set.
}

TEST(Scenarios, HeterogeneousIsATwoClassSedDFleet) {
    // The Section 5 extension is a plain ExperimentConfig: 120 queues, half
    // at speed 0.5 and half at 1.5, routed by SED(2) for 100 epochs of 2.
    const ExperimentConfig& hetero = scenario_or_die("heterogeneous").experiment;
    EXPECT_EQ(hetero.num_queues, 120u);
    EXPECT_EQ(hetero.num_clients, 4800u);
    EXPECT_DOUBLE_EQ(hetero.dt, 2.0);
    EXPECT_EQ(hetero.eval_horizon(), 100);
    EXPECT_EQ(hetero.router.kind, RouterKind::SedD);
    EXPECT_EQ(hetero.router.d, 2);
    ASSERT_EQ(hetero.server_speeds.size(), 120u);
    EXPECT_DOUBLE_EQ(hetero.server_speeds.front(), 0.5);
    EXPECT_DOUBLE_EQ(hetero.server_speeds[59], 0.5);
    EXPECT_DOUBLE_EQ(hetero.server_speeds[60], 1.5);
    EXPECT_DOUBLE_EQ(hetero.server_speeds.back(), 1.5);
    EXPECT_EQ(hetero.finite_system().server_speeds, hetero.server_speeds);
}

TEST(Scenarios, PartialInfoForwardsSampledHistogram) {
    const Scenario& partial = scenario_or_die("partial-info");
    EXPECT_EQ(partial.experiment.histogram_sample_size, 20u);
    EXPECT_EQ(partial.experiment.finite_system().histogram_sample_size, 20u);
}

TEST(Scenarios, LargeNResolvesToTheDesBackendAtScale) {
    const Scenario& large = scenario_or_die("large-n");
    EXPECT_EQ(large.experiment.backend, SimBackend::Des);
    EXPECT_GE(large.experiment.num_queues, 10000u);
    EXPECT_GE(large.experiment.num_clients, 1000000u);
}

TEST(Scenarios, LargeNSmokeRunsOnTheEventDrivenBackend) {
    // One decision epoch at M = 10^4, N = 10^6 — far beyond what the
    // epoch-synchronous simulator could smoke-test here — must run and
    // produce sane statistics.
    const Scenario& large = scenario_or_die("large-n");
    DesSystem system(large.experiment.finite_system());
    const DecisionRule h = DecisionRule::mf_jsq(system.tuple_space());
    Rng rng(5);
    system.reset(rng);
    const EpochStats stats = system.step_with_rule(h, rng);
    EXPECT_GT(stats.accepted_packets, 0u);
    EXPECT_GE(stats.server_utilization, 0.0);
    EXPECT_LE(stats.server_utilization, 1.0);
    EXPECT_EQ(system.time(), 1);
}

TEST(Scenarios, ListTextNamesEveryScenario) {
    const std::string text = scenario_list_text();
    for (const Scenario& scenario : scenario_registry()) {
        EXPECT_NE(text.find(scenario.name), std::string::npos);
    }
}

} // namespace
} // namespace mflb
