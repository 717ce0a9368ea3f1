/// Microbenchmarks (google-benchmark) of the hot kernels behind every
/// figure: matrix exponentials, the mean-field transition step, Gillespie
/// queue epochs, client aggregation, and network inference.
#include "core/mflb.hpp"

#include <benchmark/benchmark.h>

namespace {
using namespace mflb;

void BM_ExpmPade7x7(benchmark::State& state) {
    const ExactDiscretization disc({5, 1.0}, 5.0);
    const Matrix q = disc.extended_generator(0.9) * 5.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(expm(q));
    }
}
BENCHMARK(BM_ExpmPade7x7);

void BM_ExpmUniformizedAction7x7(benchmark::State& state) {
    const ExactDiscretization disc({5, 1.0}, 5.0);
    const Matrix q = disc.extended_generator(0.9);
    std::vector<double> e0(7, 0.0);
    e0[0] = 1.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(expm_uniformized_action(q, 5.0, e0));
    }
}
BENCHMARK(BM_ExpmUniformizedAction7x7);

void BM_MeanFieldStep(benchmark::State& state) {
    const ExactDiscretization disc({5, 1.0}, static_cast<double>(state.range(0)));
    const TupleSpace space(6, 2);
    const DecisionRule h = DecisionRule::mf_jsq(space);
    const std::vector<double> nu{0.3, 0.25, 0.2, 0.1, 0.1, 0.05};
    for (auto _ : state) {
        benchmark::DoNotOptimize(disc.step(nu, h, 0.9));
    }
}
BENCHMARK(BM_MeanFieldStep)->Arg(1)->Arg(5)->Arg(10);

void BM_GillespieQueueEpoch(benchmark::State& state) {
    Rng rng(1);
    const double dt = static_cast<double>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(simulate_queue_epoch(2, 0.9, 1.0, 5, dt, rng));
    }
}
BENCHMARK(BM_GillespieQueueEpoch)->Arg(1)->Arg(5)->Arg(10);

// FEL hold model (the classic priority-queue workload and the DES event
// loop's steady state): n pending events; each iteration pops the minimum
// and schedules its successor an exponential increment ahead. The heap pays
// O(log n) per transaction, the calendar amortized O(1) — the gap is the
// tentpole's claim, visible directly in the items/sec column.
void BM_FelHoldHeap(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    EventQueue fel(n);
    Rng rng(7);
    for (std::size_t id = 0; id < n; ++id) {
        fel.schedule(id, rng.exponential(1.0));
    }
    for (auto _ : state) {
        const EventQueue::Event event = fel.pop();
        fel.schedule(event.id, event.time + rng.exponential(1.0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FelHoldHeap)->Arg(100)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_FelHoldCalendar(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    // Rate hint = n: n pending events advancing by mean-1 increments is n
    // events per unit time, the same hint the DES derives from its config.
    CalendarQueue fel(n, static_cast<double>(n));
    Rng rng(7);
    for (std::size_t id = 0; id < n; ++id) {
        fel.schedule(id, rng.exponential(1.0));
    }
    fel.retune(); // the epoch-barrier call: grow the day array to the fill.
    for (auto _ : state) {
        const CalendarQueue::Event event = fel.pop();
        fel.schedule(event.id, event.time + rng.exponential(1.0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FelHoldCalendar)->Arg(100)->Arg(10000)->Arg(100000)->Arg(1000000);

// The fused fast path both DES backends actually run: peek the front event,
// then relocate it in place (one sift / one bucket relocation) instead of a
// pop followed by a fresh insert.
void BM_FelHoldHeapFused(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    EventQueue fel(n);
    Rng rng(7);
    for (std::size_t id = 0; id < n; ++id) {
        fel.schedule(id, rng.exponential(1.0));
    }
    for (auto _ : state) {
        const EventQueue::Event event = fel.peek();
        fel.pop_and_reschedule(event.id, event.time + rng.exponential(1.0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FelHoldHeapFused)->Arg(10000)->Arg(100000);

void BM_FelHoldCalendarFused(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    CalendarQueue fel(n, static_cast<double>(n));
    Rng rng(7);
    for (std::size_t id = 0; id < n; ++id) {
        fel.schedule(id, rng.exponential(1.0));
    }
    fel.retune();
    for (auto _ : state) {
        const CalendarQueue::Event event = fel.peek();
        fel.pop_and_reschedule(event.id, event.time + rng.exponential(1.0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FelHoldCalendarFused)->Arg(10000)->Arg(100000);

// Arrival-pattern mix: 70% hold transactions, 20% reschedules of a random
// slot (the DES's arrival-slot redraw), 10% cancel + re-insert — the FEL's
// full operation surface under one deterministic stream.
template <class Fel>
void fel_mixed_loop(benchmark::State& state, Fel& fel, std::size_t n) {
    Rng rng(7);
    for (auto _ : state) {
        const double coin = rng.uniform();
        if (coin < 0.7) {
            const auto event = fel.pop();
            fel.schedule(event.id, event.time + rng.exponential(1.0));
        } else if (coin < 0.9) {
            const auto id = static_cast<std::size_t>(rng.uniform_below(n));
            fel.schedule(id, fel.peek().time + rng.exponential(1.0));
        } else {
            const auto id = static_cast<std::size_t>(rng.uniform_below(n));
            const double t = fel.peek().time + rng.exponential(1.0);
            fel.cancel(id);
            fel.schedule(id, t);
        }
    }
    state.SetItemsProcessed(state.iterations());
}

void BM_FelMixedHeap(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    EventQueue fel(n);
    Rng fill(3);
    for (std::size_t id = 0; id < n; ++id) {
        fel.schedule(id, fill.exponential(1.0));
    }
    fel_mixed_loop(state, fel, n);
}
BENCHMARK(BM_FelMixedHeap)->Arg(10000)->Arg(100000);

void BM_FelMixedCalendar(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    CalendarQueue fel(n, static_cast<double>(n));
    Rng fill(3);
    for (std::size_t id = 0; id < n; ++id) {
        fel.schedule(id, fill.exponential(1.0));
    }
    fel.retune();
    fel_mixed_loop(state, fel, n);
}
BENCHMARK(BM_FelMixedCalendar)->Arg(10000)->Arg(100000);

void BM_FiniteSystemEpochAggregated(benchmark::State& state) {
    FiniteSystemConfig config;
    config.num_queues = static_cast<std::size_t>(state.range(0));
    config.num_clients = config.num_queues * config.num_queues;
    config.dt = 5.0;
    config.horizon = 1u << 20; // effectively unbounded for this loop
    FiniteSystem system(config);
    Rng rng(2);
    system.reset(rng);
    const DecisionRule h = DecisionRule::mf_jsq(system.tuple_space());
    for (auto _ : state) {
        benchmark::DoNotOptimize(system.step_with_rule(h, rng));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FiniteSystemEpochAggregated)->Arg(100)->Arg(400)->Arg(1000);

void BM_FiniteSystemEpochPerClient(benchmark::State& state) {
    FiniteSystemConfig config;
    config.num_queues = 100;
    config.num_clients = static_cast<std::uint64_t>(state.range(0));
    config.dt = 5.0;
    config.horizon = 1u << 20;
    config.client_model = ClientModel::PerClient;
    FiniteSystem system(config);
    Rng rng(3);
    system.reset(rng);
    const DecisionRule h = DecisionRule::mf_jsq(system.tuple_space());
    for (auto _ : state) {
        benchmark::DoNotOptimize(system.step_with_rule(h, rng));
    }
}
BENCHMARK(BM_FiniteSystemEpochPerClient)->Arg(10000)->Arg(100000);

void BM_DecisionRuleFromLogits(benchmark::State& state) {
    const TupleSpace space(6, 2);
    std::vector<double> logits(space.size() * 2);
    Rng rng(4);
    for (double& l : logits) {
        l = rng.normal();
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(DecisionRule::from_logits(space, logits));
    }
}
BENCHMARK(BM_DecisionRuleFromLogits);

void BM_GemmTN(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const std::size_t batch = 128;
    std::vector<double> a(batch * n), b(batch * n), c(n * n, 0.0);
    Rng rng(8);
    for (double& v : a) {
        v = rng.normal();
    }
    for (double& v : b) {
        v = rng.normal();
    }
    for (auto _ : state) {
        gemm_tn_acc(n, n, batch, a.data(), b.data(), c.data());
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * batch * n * n));
}
BENCHMARK(BM_GemmTN)->Arg(64)->Arg(256);

void BM_MlpForwardBatched(benchmark::State& state) {
    Rng rng(9);
    rl::Mlp net({8, 256, 256, 144}, rng, 1.0);
    const auto batch = static_cast<std::size_t>(state.range(0));
    std::vector<double> inputs(batch * 8);
    for (double& v : inputs) {
        v = rng.normal();
    }
    rl::Mlp::BatchWorkspace ws(net, batch);
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.forward_cached_batch(inputs, batch, ws).data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MlpForwardBatched)->Arg(1)->Arg(32)->Arg(128);

void BM_MlpForwardPerSampleLoop(benchmark::State& state) {
    // The pre-batching shape: one scalar forward per row (same net and rows
    // as BM_MlpForwardBatched for a direct items/sec comparison).
    Rng rng(9);
    rl::Mlp net({8, 256, 256, 144}, rng, 1.0);
    const auto batch = static_cast<std::size_t>(state.range(0));
    std::vector<double> inputs(batch * 8);
    for (double& v : inputs) {
        v = rng.normal();
    }
    rl::Mlp::Workspace ws;
    for (auto _ : state) {
        for (std::size_t row = 0; row < batch; ++row) {
            benchmark::DoNotOptimize(
                net.forward_span(std::span<const double>(inputs.data() + row * 8, 8), ws)
                    .data());
        }
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MlpForwardPerSampleLoop)->Arg(128);

void BM_MlpBackwardBatched(benchmark::State& state) {
    Rng rng(10);
    rl::Mlp net({8, 256, 256, 144}, rng, 1.0);
    const auto batch = static_cast<std::size_t>(state.range(0));
    std::vector<double> inputs(batch * 8), grad_out(batch * 144, 0.1);
    for (double& v : inputs) {
        v = rng.normal();
    }
    std::vector<double> grads(net.parameter_count(), 0.0);
    rl::Mlp::BatchWorkspace ws(net, batch);
    net.forward_cached_batch(inputs, batch, ws);
    for (auto _ : state) {
        net.forward_cached_batch(inputs, batch, ws);
        net.backward_batch(ws, grad_out, grads);
        benchmark::DoNotOptimize(grads.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MlpBackwardBatched)->Arg(128);

void BM_PolicyNetworkForward(benchmark::State& state) {
    Rng rng(5);
    rl::GaussianPolicy policy(8, 72, {static_cast<std::size_t>(state.range(0)),
                                      static_cast<std::size_t>(state.range(0))},
                              rng);
    const std::vector<double> obs{0.3, 0.2, 0.2, 0.1, 0.1, 0.1, 1.0, 0.0};
    for (auto _ : state) {
        benchmark::DoNotOptimize(policy.mean_action(obs));
    }
}
BENCHMARK(BM_PolicyNetworkForward)->Arg(64)->Arg(256);

void BM_MfcEnvEpisode(benchmark::State& state) {
    MfcConfig config;
    config.dt = 5.0;
    config.horizon = 100;
    const DecisionRule h = DecisionRule::greedy_softmax(TupleSpace(6, 2), 1.0);
    Rng rng(6);
    for (auto _ : state) {
        MfcEnv env(config);
        env.reset(rng);
        double total = 0.0;
        while (!env.done()) {
            total += env.step(h, rng).drops;
        }
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_MfcEnvEpisode);

} // namespace
