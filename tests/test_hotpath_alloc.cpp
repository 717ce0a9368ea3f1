// Steady-state allocation tests for the simulation hot paths: after a warmup
// step sized every workspace buffer, `FiniteSystem::step_with_rule`, the
// event-driven `DesSystem::step_with_rule` (including its future event list)
// and the into-variants of `ExactDiscretization::step`/`step_with_rates`
// must not touch the heap. Verified by replacing the global allocator with a
// counting one in this test binary — any hidden vector/matrix construction
// in the step path shows up as a nonzero delta.
#include "core/evaluator.hpp"
#include "core/neural_policy.hpp"
#include "des/des_system.hpp"
#include "field/mfc_env.hpp"
#include "field/transition.hpp"
#include "policies/fixed.hpp"
#include "queueing/finite_system.hpp"
#include "rl/gaussian_policy.hpp"
#include "rl/ppo.hpp"
#include "support/counting_allocator.inc"
#include "support/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

namespace mflb {
namespace {

TEST(HotPathAllocations, FiniteSystemStepWithRuleAggregated) {
    FiniteSystemConfig config;
    config.num_queues = 50;
    config.num_clients = 2500;
    config.dt = 2.0;
    config.horizon = 1 << 20;
    FiniteSystem system(config);
    Rng rng(1);
    system.reset(rng);
    const DecisionRule h = DecisionRule::mf_jsq(system.tuple_space());

    (void)system.step_with_rule(h, rng); // warmup sizes every buffer
    const std::size_t before = counting_allocator::count();
    for (int i = 0; i < 50; ++i) {
        (void)system.step_with_rule(h, rng);
    }
    EXPECT_EQ(counting_allocator::count() - before, 0u);
}

TEST(HotPathAllocations, FiniteSystemStepWithRulePerClientAndInfinite) {
    for (const ClientModel model : {ClientModel::PerClient, ClientModel::InfiniteClients}) {
        FiniteSystemConfig config;
        config.num_queues = 20;
        config.num_clients = 400;
        config.dt = 2.0;
        config.horizon = 1 << 20;
        config.client_model = model;
        FiniteSystem system(config);
        Rng rng(2);
        system.reset(rng);
        const DecisionRule h = DecisionRule::mf_jsq(system.tuple_space());

        (void)system.step_with_rule(h, rng);
        const std::size_t before = counting_allocator::count();
        for (int i = 0; i < 20; ++i) {
            (void)system.step_with_rule(h, rng);
        }
        EXPECT_EQ(counting_allocator::count() - before, 0u)
            << "client model " << static_cast<int>(model);
    }
}

TEST(HotPathAllocations, DesSystemStepWithRuleAllClientModels) {
    for (const ClientModel model :
         {ClientModel::Aggregated, ClientModel::PerClient, ClientModel::InfiniteClients}) {
        FiniteSystemConfig config;
        config.num_queues = 50;
        config.num_clients = 2500;
        config.dt = 2.0;
        config.horizon = 1 << 20;
        config.client_model = model;
        config.track_sojourn = true; // cover the per-job ring/histogram path too
        DesSystem system(config);
        Rng rng(5);
        system.reset(rng);
        const DecisionRule h = DecisionRule::mf_jsq(system.tuple_space());

        (void)system.step_with_rule(h, rng); // warmup
        const std::size_t before = counting_allocator::count();
        for (int i = 0; i < 50; ++i) {
            (void)system.step_with_rule(h, rng);
        }
        EXPECT_EQ(counting_allocator::count() - before, 0u)
            << "client model " << static_cast<int>(model);
    }
}

/// Allocations of 40 JSQ(2) epochs of an Aggregated `System` (at `shards`
/// shards; DesSystem ignores it) after one warmup epoch, in three regimes of
/// the class-level count draw:
///  - M = 3: the lone queue at the minimum draws most of N and the other
///    classes' Poisson means jump between epochs;
///  - d·N/M above the sampler's table ceiling: classes take the
///    conditional-binomial fallback;
///  - N < M with N ≤ 9: every class mean is 0, so every client is a top-up.
template <class System>
void expect_aggregated_draw_allocation_free(std::size_t shards) {
    const struct {
        std::size_t queues;
        std::uint64_t clients;
        const char* regime;
    } cases[] = {
        {3, 30000, "lone queue takes most of N"},
        {8, 1000000000000ULL, "above the table ceiling"},
        {50, 9, "top-ups only"},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(c.regime);
        FiniteSystemConfig config;
        config.num_queues = c.queues;
        config.num_clients = c.clients;
        config.dt = 2.0;
        config.horizon = 1 << 20;
        config.shards = shards;
        config.threads = 1;
        System system(config);
        Rng rng(31);
        system.reset(rng);
        const DecisionRule h = DecisionRule::mf_jsq(system.tuple_space());
        (void)system.step_with_rule(h, rng); // warmup
        const std::size_t before = counting_allocator::count();
        for (int i = 0; i < 40; ++i) {
            (void)system.step_with_rule(h, rng);
        }
        EXPECT_EQ(counting_allocator::count() - before, 0u);
    }
    // The ceiling case really is capped: a class of two or more queues needs
    // a longer table than any sampler keeps.
    EXPECT_EQ(ClassCountSampler(6, 8, 2.0 * 1e12 / 8.0).table_capacity(),
              ClassCountSampler::kMaxTable);
}

TEST(HotPathAllocations, FiniteSystemAggregatedDrawAcrossMeanRegimes) {
    expect_aggregated_draw_allocation_free<FiniteSystem>(1);
}

TEST(HotPathAllocations, DesSystemAggregatedDrawAcrossMeanRegimes) {
    expect_aggregated_draw_allocation_free<DesSystem>(0);
}

TEST(HotPathAllocations, ShardedAggregatedDrawAcrossMeanRegimes) {
    expect_aggregated_draw_allocation_free<FiniteSystem>(2);
}

TEST(HotPathAllocations, SojournRecorderAllocatedOnlyWhenTracking) {
    // A SojournRecorder carries a 49 KB histogram. Built with tracking off,
    // neither backend allocates one: DesSystem (its object included, as
    // make_backend puts it on the heap) and the engine's eight shards
    // together allocate less than one recorder; with tracking on, each holds
    // at least one.
    for (const SimBackend backend : {SimBackend::Des, SimBackend::ShardedDes}) {
        for (const bool track : {false, true}) {
            SCOPED_TRACE(::testing::Message() << backend_name(backend) << " track " << track);
            FiniteSystemConfig config;
            config.num_queues = 16;
            config.client_model = ClientModel::InfiniteClients;
            config.track_sojourn = track;
            const std::size_t before = counting_allocator::bytes();
            const std::unique_ptr<FiniteBackend> system = make_backend(backend, config);
            const std::size_t bytes = counting_allocator::bytes() - before;
            if (track) {
                EXPECT_GE(bytes, sizeof(SojournRecorder));
            } else {
                EXPECT_LT(bytes, sizeof(SojournRecorder));
            }
        }
    }
}

TEST(HotPathAllocations, DesSystemStepAllocationFreeUnderBothFelKinds) {
    // The FEL seam must not change the steady-state allocation contract:
    // heap and calendar (including the calendar's epoch-barrier retunes,
    // whose width-change rebuilds reuse the preallocated scratch buffer)
    // both run the event loop without touching the heap allocator.
    for (const FelKind kind : {FelKind::Heap, FelKind::Calendar}) {
        FiniteSystemConfig config;
        config.num_queues = 50;
        config.num_clients = 2500;
        config.dt = 2.0;
        config.horizon = 1 << 20;
        config.fel = kind;
        DesSystem system(config);
        Rng rng(5);
        system.reset(rng);
        const DecisionRule h = DecisionRule::mf_jsq(system.tuple_space());

        (void)system.step_with_rule(h, rng); // warmup
        const std::size_t before = counting_allocator::count();
        for (int i = 0; i < 50; ++i) {
            (void)system.step_with_rule(h, rng);
        }
        EXPECT_EQ(counting_allocator::count() - before, 0u)
            << "fel kind " << static_cast<int>(kind);
    }
}

TEST(HotPathAllocations, DesSystemRouterStepNonExponentialService) {
    // The classical-router epoch path (weight law + prefix sums + arrival
    // reschedule) and the general-service departure path (multi-draw
    // hyperexponential sampling, per-queue speeds) must stay allocation-free
    // in steady state, like the decision-rule path they sit beside.
    for (const RouterKind kind : {RouterKind::Jsq, RouterKind::JsqD, RouterKind::SedD,
                                  RouterKind::RoundRobin, RouterKind::SqStale}) {
        FiniteSystemConfig config;
        config.num_queues = 50;
        config.num_clients = 2500;
        config.dt = 2.0;
        config.horizon = 1 << 20;
        config.router.kind = kind;
        config.router.stale_period = 6.0;
        config.service.kind = ServiceDistKind::HyperExp;
        config.server_speeds.assign(50, 0.5);
        std::fill(config.server_speeds.begin() + 25, config.server_speeds.end(), 1.5);
        config.track_sojourn = true;
        DesSystem system(config);
        Rng rng(7);
        system.reset(rng);

        (void)system.step_router(rng); // warmup sizes every buffer
        const std::size_t before = counting_allocator::count();
        for (int i = 0; i < 50; ++i) {
            (void)system.step_router(rng);
        }
        EXPECT_EQ(counting_allocator::count() - before, 0u)
            << "router " << router_name(kind);
    }
}

TEST(HotPathAllocations, FiniteSystemGeneralServiceKernel) {
    // The carried-completion-time mini-DES kernel that replaces the Gillespie
    // loop for non-exponential laws runs per queue per epoch — it must not
    // allocate either.
    FiniteSystemConfig config;
    config.num_queues = 50;
    config.num_clients = 2500;
    config.dt = 2.0;
    config.horizon = 1 << 20;
    config.service.kind = ServiceDistKind::BoundedPareto;
    FiniteSystem system(config);
    Rng rng(8);
    system.reset(rng);
    const DecisionRule h = DecisionRule::mf_jsq(system.tuple_space());

    (void)system.step_with_rule(h, rng);
    const std::size_t before = counting_allocator::count();
    for (int i = 0; i < 50; ++i) {
        (void)system.step_with_rule(h, rng);
    }
    EXPECT_EQ(counting_allocator::count() - before, 0u);
}

TEST(HotPathAllocations, NeuralPolicyDecideIntoReusesScratch) {
    // The epoch query: decide_into with a caller-owned QueryScratch runs the
    // per-sample forward pass in its workspace and realizes the rule in
    // place — zero heap traffic once the scratch and output rule exist.
    const TupleSpace space(6, 2);
    Rng rng(17);
    auto net = std::make_shared<rl::GaussianPolicy>(8, 72, std::vector<std::size_t>{32}, rng);
    const NeuralUpperPolicy policy(space, 2, net);
    const std::vector<double> nu{0.3, 0.3, 0.2, 0.1, 0.05, 0.05};
    const std::unique_ptr<UpperLevelPolicy::Scratch> scratch = policy.make_scratch();
    DecisionRule out(space);
    policy.decide_into(nu, 1, rng, scratch.get(), out); // warmup sizes the workspace
    const std::size_t before = counting_allocator::count();
    for (int i = 0; i < 50; ++i) {
        policy.decide_into(nu, i % 2, rng, scratch.get(), out);
    }
    EXPECT_EQ(counting_allocator::count() - before, 0u);
    EXPECT_TRUE(out.is_valid());
}

TEST(HotPathAllocations, ShardedDesStepWithNeuralPolicy) {
    // The full epoch barrier — observed-distribution snapshot, batched policy
    // query (cached scratch), destination law or rate table, shard masses,
    // shard multinomials, per-queue kernels with sojourn recording, and the
    // fixed-order fold over the shards — allocation-free in steady state.
    // K = 4 runs the fold over several shards. InfiniteClients from an empty
    // fleet runs the idle thinning; the hyperexponential law runs the
    // general-service kernel with its carried completion clocks. On four
    // threads the shards fan out on the parallel_for team.
    const struct {
        ClientModel model;
        ServiceDistKind service;
        std::size_t threads;
    } cases[] = {
        {ClientModel::Aggregated, ServiceDistKind::Exponential, 1},
        {ClientModel::InfiniteClients, ServiceDistKind::Exponential, 1},
        {ClientModel::InfiniteClients, ServiceDistKind::HyperExp, 1},
        {ClientModel::Aggregated, ServiceDistKind::Exponential, 4},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(::testing::Message() << "model " << static_cast<int>(c.model) << " "
                                          << service_dist_name(c.service) << " threads "
                                          << c.threads);
        FiniteSystemConfig config;
        config.num_queues = 48;
        config.num_clients = 2400;
        config.dt = 2.0;
        config.horizon = 1 << 20;
        config.shards = 4;
        config.threads = c.threads;
        config.track_sojourn = true;
        config.client_model = c.model;
        config.service.kind = c.service;
        FiniteSystem system(config);
        Rng net_rng(19);
        const std::size_t num_lambda = system.arrivals().num_states();
        const TupleSpace space(config.queue.num_states(), config.d);
        auto net = std::make_shared<rl::GaussianPolicy>(
            config.queue.num_states() + num_lambda,
            static_cast<std::size_t>(space.size()) * static_cast<std::size_t>(config.d),
            std::vector<std::size_t>{32}, net_rng);
        const NeuralUpperPolicy policy(space, num_lambda, net);
        Rng rng(23);
        system.reset(rng);

        (void)system.step(policy, rng); // warmup: builds the policy scratch + buffers
        const std::size_t before = counting_allocator::count();
        for (int i = 0; i < 50; ++i) {
            (void)system.step(policy, rng);
        }
        EXPECT_EQ(counting_allocator::count() - before, 0u);
    }
}

TEST(HotPathAllocations, ShardedDesPolicyAlternationReusesBothScratches) {
    // A/B/A policy alternation (eval-during-train interleaves a candidate and
    // a baseline policy against one system): the scratch cache is keyed by
    // policy identity, so switching *back* to an already-seen policy must
    // reuse its warm scratch instead of rebuilding it every flip.
    FiniteSystemConfig config;
    config.num_queues = 48;
    config.num_clients = 2400;
    config.dt = 2.0;
    config.horizon = 1 << 20;
    config.shards = 4;
    config.threads = 1;
    FiniteSystem system(config);
    Rng net_rng(19);
    const std::size_t num_lambda = system.arrivals().num_states();
    const TupleSpace space(config.queue.num_states(), config.d);
    const auto make_policy = [&] {
        auto net = std::make_shared<rl::GaussianPolicy>(
            config.queue.num_states() + num_lambda,
            static_cast<std::size_t>(space.size()) * static_cast<std::size_t>(config.d),
            std::vector<std::size_t>{32}, net_rng);
        return NeuralUpperPolicy(space, num_lambda, net);
    };
    const NeuralUpperPolicy a = make_policy();
    const NeuralUpperPolicy b = make_policy();
    Rng rng(23);
    system.reset(rng);

    (void)system.step(a, rng); // warmup builds one cache entry per policy
    (void)system.step(b, rng);
    const std::size_t before = counting_allocator::count();
    for (int i = 0; i < 50; ++i) {
        (void)system.step(i % 2 == 0 ? a : b, rng);
    }
    EXPECT_EQ(counting_allocator::count() - before, 0u);
}

TEST(HotPathAllocations, ShardedEpisodeWithTelemetryAddsNoAllocations) {
    // The sharded epoch loop with a live telemetry session: per-shard counter
    // lanes, the barrier merge, row formatting into the reused line buffer,
    // stdio emission, and tracer spans must all stay off the heap once the
    // warmup episodes have grown every buffer to its high-water mark. The
    // episode accumulator itself allocates per episode, so the contract is
    // pinned as a difference: a telemetry-on episode costs exactly as many
    // allocations as a telemetry-off one.
    const std::string metrics_path = ::testing::TempDir() + "mflb_alloc_metrics.jsonl";
    const std::string trace_path = ::testing::TempDir() + "mflb_alloc_trace.json";
    TelemetryConfig telemetry_config;
    telemetry_config.metrics_out = metrics_path;
    telemetry_config.trace_out = trace_path;
    {
        TelemetrySession session(telemetry_config);
        FiniteSystemConfig config;
        config.num_queues = 48;
        config.num_clients = 2400;
        config.dt = 2.0;
        config.horizon = 64;
        config.shards = 4;
        config.threads = 1;
        config.track_sojourn = true;

        const auto episode_allocations = [&](TelemetrySession* attached) {
            FiniteSystemConfig run_config = config;
            run_config.telemetry = attached;
            FiniteSystem system(run_config);
            const FixedRulePolicy policy = make_jsq_policy(system.tuple_space());
            Rng rng(29);
            for (int warmup = 0; warmup < 2; ++warmup) {
                system.reset(rng);
                (void)system.run_episode(policy, rng);
            }
            system.reset(rng);
            const std::size_t before = counting_allocator::count();
            (void)system.run_episode(policy, rng);
            return counting_allocator::count() - before;
        };
        const std::size_t off = episode_allocations(nullptr);
        const std::size_t on = episode_allocations(&session);
        EXPECT_EQ(on, off);
        EXPECT_EQ(session.sink().rows_written(), 3u * 64u);
    }
    std::remove(metrics_path.c_str());
    std::remove(trace_path.c_str());
}

TEST(HotPathAllocations, EventQueueOperationsAfterConstruction) {
    EventQueue fel(128);
    Rng rng(9);
    for (std::size_t id = 0; id < 128; ++id) {
        fel.schedule(id, rng.uniform());
    }
    const std::size_t before = counting_allocator::count();
    for (int round = 0; round < 1000; ++round) {
        const EventQueue::Event event = fel.pop();
        fel.schedule(event.id, event.time + rng.uniform());
        fel.schedule(static_cast<std::size_t>(rng.uniform_below(128)),
                     event.time + rng.uniform()); // reschedule path
        if (round % 7 == 0) {
            const auto victim = static_cast<std::size_t>(rng.uniform_below(128));
            if (fel.cancel(victim)) {
                fel.schedule(victim, event.time + 1.0);
            }
        }
    }
    EXPECT_EQ(counting_allocator::count() - before, 0u);
}

TEST(HotPathAllocations, CalendarQueueOperationsAfterConstruction) {
    // Same contract as the heap FEL: pop / schedule / reschedule / cancel —
    // and the epoch-barrier retune, when the day array needs no growth —
    // are allocation-free after construction.
    CalendarQueue fel(128, 2.0);
    Rng rng(9);
    for (std::size_t id = 0; id < 128; ++id) {
        fel.schedule(id, rng.uniform());
    }
    const std::size_t before = counting_allocator::count();
    for (int round = 0; round < 1000; ++round) {
        const CalendarQueue::Event event = fel.pop();
        fel.schedule(event.id, event.time + rng.uniform());
        fel.schedule(static_cast<std::size_t>(rng.uniform_below(128)),
                     event.time + rng.uniform()); // reschedule path
        if (round % 7 == 0) {
            const auto victim = static_cast<std::size_t>(rng.uniform_below(128));
            if (fel.cancel(victim)) {
                fel.pop_and_reschedule(fel.peek().id, event.time + 0.5);
                fel.schedule(victim, event.time + 1.0);
            }
        }
        if (round % 100 == 99) {
            fel.retune(); // width-change rebuilds reuse the scratch buffer.
        }
    }
    EXPECT_EQ(counting_allocator::count() - before, 0u);
}

TEST(HotPathAllocations, ExactDiscretizationStepWithRatesInto) {
    const ExactDiscretization disc({5, 1.0}, 5.0);
    const std::vector<double> nu{0.3, 0.25, 0.2, 0.1, 0.1, 0.05};
    const std::vector<double> rates{0.9, 0.9, 0.8, 0.7, 0.6, 0.5};
    MeanFieldStep out;
    disc.step_with_rates(nu, rates, out); // warmup sizes the output vectors
    const std::size_t before = counting_allocator::count();
    for (int i = 0; i < 100; ++i) {
        disc.step_with_rates(nu, rates, out);
    }
    EXPECT_EQ(counting_allocator::count() - before, 0u);
}

TEST(HotPathAllocations, ExactDiscretizationFullStepInto) {
    const ExactDiscretization disc({5, 1.0}, 5.0);
    const TupleSpace space(6, 2);
    const DecisionRule h = DecisionRule::mf_jsq(space);
    const std::vector<double> nu{0.3, 0.25, 0.2, 0.1, 0.1, 0.05};
    MeanFieldStep out;
    disc.step(nu, h, 0.9, out);
    const std::size_t before = counting_allocator::count();
    for (int i = 0; i < 100; ++i) {
        disc.step(nu, h, 0.9, out);
    }
    EXPECT_EQ(counting_allocator::count() - before, 0u);
}

TEST(HotPathAllocations, MfcEnvStepReusesItsBuffer) {
    MfcConfig config;
    config.dt = 5.0;
    config.horizon = 1 << 20;
    MfcEnv env(config);
    const DecisionRule h = DecisionRule::mf_jsq(TupleSpace(config.queue.num_states(), 2));
    Rng rng(3);
    env.reset(rng);
    (void)env.step(h, rng);
    const std::size_t before = counting_allocator::count();
    for (int i = 0; i < 100; ++i) {
        (void)env.step(h, rng);
    }
    EXPECT_EQ(counting_allocator::count() - before, 0u);
}

/// Minimal stochastic env for the training-step sections; reset()/step()
/// may allocate (the Env interface returns vectors by value), which is why
/// only the *update* phase carries the allocation-free contract.
class ProbeEnv final : public rl::Env {
public:
    std::size_t observation_dim() const override { return 3; }
    std::size_t action_dim() const override { return 2; }

    std::vector<double> reset(Rng& rng) override {
        t_ = 0;
        state_ = rng.uniform();
        return {state_, 1.0 - state_, 0.5};
    }

    rl::Env::StepResult step(std::span<const double> action, Rng& rng) override {
        rl::Env::StepResult r;
        r.reward = -(action[0] - state_) * (action[0] - state_) - action[1] * action[1];
        ++t_;
        r.done = t_ >= 4;
        state_ = rng.uniform();
        r.observation = {state_, 1.0 - state_, 0.5};
        return r;
    }

private:
    int t_ = 0;
    double state_ = 0.0;
};

TEST(HotPathAllocations, PpoOptimizePhaseIsAllocationFree) {
    // On four threads the row and gradient-block passes fan out on the
    // parallel_for team.
    for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "train_threads " << threads);
        rl::PpoConfig config;
        config.hidden = {32, 32};
        config.train_batch_size = 128;
        config.minibatch_size = 32;
        config.num_epochs = 2;
        config.num_envs = 2;
        config.train_threads = threads;
        rl::PpoTrainer trainer([] { return std::make_unique<ProbeEnv>(); }, config, Rng(11));
        (void)trainer.train_iteration(); // warmup sizes every workspace
        rl::PpoIterationStats stats;
        trainer.collect_phase(stats);
        const std::size_t before = counting_allocator::count();
        trainer.optimize_phase(stats);
        EXPECT_EQ(counting_allocator::count() - before, 0u);
        // A second full update stays allocation-free too (steady state).
        trainer.collect_phase(stats);
        const std::size_t again = counting_allocator::count();
        trainer.optimize_phase(stats);
        EXPECT_EQ(counting_allocator::count() - again, 0u);
    }
}

TEST(HotPathAllocations, BatchedMlpPassesAreAllocationFree) {
    Rng rng(13);
    rl::Mlp net({8, 64, 64, 6}, rng, 1.0);
    const std::size_t batch = 32;
    std::vector<double> inputs(batch * 8);
    for (double& v : inputs) {
        v = rng.normal();
    }
    std::vector<double> grad_out(batch * 6, 0.25);
    std::vector<double> grads(net.parameter_count(), 0.0);
    std::vector<double> grad_inputs(batch * 8, 0.0);
    rl::Mlp::BatchWorkspace ws(net, batch);

    const std::size_t before = counting_allocator::count();
    for (int i = 0; i < 20; ++i) {
        (void)net.forward_cached_batch(inputs, batch, ws);
        net.backward_batch(ws, grad_out, grads, grad_inputs);
    }
    EXPECT_EQ(counting_allocator::count() - before, 0u);
}

} // namespace
} // namespace mflb
