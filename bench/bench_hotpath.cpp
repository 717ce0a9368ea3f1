/// Hot-path microbenchmark for the unified simulation core: verifies at run
/// time that the two allocation-free kernels really are allocation-free in
/// steady state (counting global allocator), compares the cached
/// ExactDiscretization workspace against a rebuild-per-call loop
/// (extended_generator + expm_uniformized_action, the shape of the
/// pre-refactor step_with_rates — note the shared series itself got faster
/// too, so the full seed-vs-now win only shows in the end-to-end numbers:
/// evaluate_mfc measured 1.5x faster than the seed library at Table-1 dt=1),
/// and times Table-1-sized evaluate_finite / evaluate_mfc runs. Emits JSON
/// timings via --json so the perf trajectory is trackable across PRs. Also
/// times the per-queue epoch kernel alone at Table-1 load, the deployed
/// Table-2 network's policy query, how much of four cores a four-strip
/// `parallel_for` keeps busy, and what an empty four-strip fan-out costs.
#include "bench_common.hpp"
#include "support/counting_allocator.inc"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

namespace {

using namespace mflb;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> xs) {
    std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2),
                     xs.end());
    return xs[xs.size() / 2];
}

} // namespace

int main(int argc, char** argv) {
    CliParser cli("bench_hotpath: allocation-free hot paths + Table-1 evaluate_finite timing");
    cli.flag_bool("full", false, "More steps / episodes");
    cli.flag_int("seed", 1, "Seed");
    cli.flag("json", "", "Optional JSON timings output path");
    if (!cli.parse(argc, argv)) {
        return cli.exit_code();
    }
    const bool full = cli.get_bool("full");
    bench::print_header("Hot paths", "Workspace reuse in FiniteSystem and ExactDiscretization",
                        full);
    bench::TimingLog timings("hotpath");
    int failures = 0;

    // --- 1. FiniteSystem::step_with_rule, Table-1-sized, steady state ------
    {
        const ExperimentConfig experiment = scenario_or_die("table1").experiment;
        FiniteSystemConfig config = experiment.finite_system();
        config.dt = 5.0;
        config.horizon = 1 << 20;
        FiniteSystem system(config);
        Rng rng(cli.get_int("seed"));
        system.reset(rng);
        const DecisionRule h = DecisionRule::mf_jsq(system.tuple_space());
        (void)system.step_with_rule(h, rng); // warmup sizes the workspace
        const int steps = full ? 2000 : 400;
        const std::size_t allocs_before = counting_allocator::count();
        const auto start = Clock::now();
        for (int i = 0; i < steps; ++i) {
            (void)system.step_with_rule(h, rng);
        }
        const double elapsed = seconds_since(start);
        const std::size_t allocs = counting_allocator::count() - allocs_before;
        timings.record("finite_step_with_rule_table1", elapsed / steps);
        std::printf("FiniteSystem::step_with_rule (M=100, N=10^4, dt=5):\n"
                    "  %.1f us/epoch, %zu heap allocations over %d steady-state steps\n",
                    1e6 * elapsed / steps, allocs, steps);
        if (allocs != 0) {
            std::printf("  FAIL: expected zero steady-state allocations\n");
            ++failures;
        }
    }

    // --- 2. ExactDiscretization: cached workspace vs seed rebuild-per-call -
    {
        const ExactDiscretization disc({5, 1.0}, 5.0);
        const std::vector<double> nu{0.3, 0.25, 0.2, 0.1, 0.1, 0.05};
        const std::vector<double> rates{0.9, 0.9, 0.8, 0.7, 0.6, 0.5};
        const int reps = full ? 20000 : 4000;

        MeanFieldStep out;
        disc.step_with_rates(nu, rates, out); // warmup
        const std::size_t allocs_before = counting_allocator::count();
        const auto start_cached = Clock::now();
        for (int i = 0; i < reps; ++i) {
            disc.step_with_rates(nu, rates, out);
        }
        const double cached = seconds_since(start_cached);
        const std::size_t allocs = counting_allocator::count() - allocs_before;

        // Rebuild-per-call shape of the seed implementation (fresh generator
        // matrix and series output per occupied state; the series arithmetic
        // itself is the shared, already-fast path).
        std::vector<double> e(7, 0.0);
        const auto start_naive = Clock::now();
        for (int i = 0; i < reps; ++i) {
            for (std::size_t z = 0; z < nu.size(); ++z) {
                if (nu[z] == 0.0) {
                    continue;
                }
                const Matrix q = disc.extended_generator(rates[z]);
                std::fill(e.begin(), e.end(), 0.0);
                e[z] = 1.0;
                (void)expm_uniformized_action(q, disc.dt(), e);
            }
        }
        const double naive = seconds_since(start_naive);
        timings.record("mean_field_step_cached", cached / reps);
        timings.record("mean_field_step_rebuild_per_call", naive / reps);
        std::printf("\nExactDiscretization::step_with_rates (B=5, dt=5):\n"
                    "  cached workspace:  %.2f us/step, %zu allocations over %d steps\n"
                    "  rebuild-per-call:  %.2f us/step  ->  %.2fx speedup\n",
                    1e6 * cached / reps, allocs, reps, 1e6 * naive / reps, naive / cached);
        if (allocs != 0) {
            std::printf("  FAIL: expected zero steady-state allocations\n");
            ++failures;
        }
    }

    // --- 3. Table-1-sized end-to-end wall clocks ----------------------------
    // evaluate_finite is event-sampling-bound (the exact Gillespie kernel
    // dominates), so the workspace refactor buys only a few percent there;
    // evaluate_mfc runs the discretizer in its inner loop and shows the
    // cached-workspace win end to end (measured 1.5x vs the seed library).
    {
        ExperimentConfig experiment = scenario_or_die("table1").experiment;
        experiment.dt = 5.0;
        const std::size_t episodes = full ? 50 : 10;
        const TupleSpace space(experiment.queue.num_states(), experiment.d);
        const auto start = Clock::now();
        const EvaluationResult result =
            evaluate_backend(SimBackend::Finite, experiment.finite_system(),
                             make_jsq_policy(space), episodes, cli.get_int("seed"));
        const double elapsed = seconds_since(start);
        timings.record("evaluate_finite_table1", elapsed);
        std::printf("\nevaluate_finite (Table 1, dt=5, T_e=%d, %zu episodes, all cores):\n"
                    "  %.3f s wall clock, drops/queue = %s\n",
                    experiment.eval_horizon(), episodes, elapsed,
                    bench::ci_cell(result.total_drops).c_str());
    }
    {
        ExperimentConfig experiment = scenario_or_die("table1").experiment;
        experiment.dt = 1.0; // T_e = 500 epochs of pure discretizer work
        const std::size_t episodes = full ? 100 : 20;
        const TupleSpace space(experiment.queue.num_states(), experiment.d);
        const auto start = Clock::now();
        const EvaluationResult result = evaluate_mfc(
            experiment.mfc(true), make_jsq_policy(space), episodes, cli.get_int("seed"));
        const double elapsed = seconds_since(start);
        timings.record("evaluate_mfc_table1", elapsed);
        std::printf("\nevaluate_mfc (Table 1, dt=1, T_e=500, %zu episodes, all cores):\n"
                    "  %.3f s wall clock, drops/queue = %s\n",
                    episodes, elapsed, bench::ci_cell(result.total_drops).c_str());
    }

    // --- 4. PPO training step: collect + allocation-free batched update ----
    // The update phase shares the hot-path contract with the simulators:
    // after the warmup iteration sizes the GEMM workspaces, the SGD epochs
    // must not touch the heap. The contract holds on the inline path
    // (train_threads = 1); a multi-thread fan-out allocates its per-call
    // strip cursors. Rows feed the CI perf artifact so training throughput
    // is tracked alongside sim throughput.
    {
        ExperimentConfig experiment = scenario_or_die("table1").experiment;
        experiment.dt = 5.0;
        MfcConfig config = experiment.mfc();
        config.horizon = 25;
        rl::PpoConfig ppo;
        ppo.hidden = {64, 64};
        ppo.train_batch_size = full ? 2000 : 500;
        ppo.minibatch_size = 125;
        ppo.num_epochs = full ? 6 : 3;
        ppo.num_envs = 1;
        ppo.train_threads = 1;
        const auto factory = [&config]() -> std::unique_ptr<rl::Env> {
            return std::make_unique<MfcRlEnv>(config, RuleParameterization::Logits);
        };
        rl::PpoTrainer trainer(factory, ppo, Rng(cli.get_int("seed")));
        (void)trainer.train_iteration(); // warmup sizes every workspace

        rl::PpoIterationStats stats;
        const auto start_collect = Clock::now();
        trainer.collect_phase(stats);
        const double collect_seconds = seconds_since(start_collect);
        const std::size_t allocs_before = counting_allocator::count();
        const auto start_update = Clock::now();
        trainer.optimize_phase(stats);
        const double update_seconds = seconds_since(start_update);
        const std::size_t allocs = counting_allocator::count() - allocs_before;
        timings.record("rollout_collect_mfc", collect_seconds);
        timings.record("ppo_update_batched_mfc", update_seconds);
        std::printf("\nPPO training step (MFC MDP, 64x64 net, batch %zu, %zu epochs):\n"
                    "  collect %.3f s, batched update %.3f s, %zu heap allocations in the "
                    "update\n",
                    ppo.train_batch_size, ppo.num_epochs, collect_seconds, update_seconds,
                    allocs);
        if (allocs != 0) {
            std::printf("  FAIL: expected zero steady-state allocations in the update\n");
            ++failures;
        }

        // Legacy per-sample update on the same net, for the CI speedup trail.
        rl::PpoConfig scalar_ppo = ppo;
        scalar_ppo.batched_update = false;
        rl::PpoTrainer scalar(factory, scalar_ppo, Rng(cli.get_int("seed")));
        (void)scalar.train_iteration();
        rl::PpoIterationStats scalar_stats;
        scalar.collect_phase(scalar_stats);
        const auto start_scalar = Clock::now();
        scalar.optimize_phase(scalar_stats);
        const double scalar_seconds = seconds_since(start_scalar);
        timings.record("ppo_update_scalar_mfc", scalar_seconds);
        std::printf("  per-sample update %.3f s  ->  %.2fx batched speedup\n", scalar_seconds,
                    scalar_seconds / update_seconds);
    }

    // --- 5. Telemetry overhead: epoch loop with the session off vs on ------
    // The telemetry layer's contract is branch-cheap when disabled and
    // allocation-free in steady state when enabled; this section puts a
    // number on the "on" cost per backend. The *_overhead_fraction rows are
    // informational (fraction rows never gate in check-bench-regression.sh);
    // the absolute per-episode times feed the CI perf artifact.
    {
        const ExperimentConfig base_experiment = scenario_or_die("table1").experiment;
        const std::size_t episodes = full ? 6 : 2;
        std::printf("\nTelemetry overhead (Table 1, dt=5, %zu episodes, metrics+trace on):\n",
                    episodes);
        const auto time_backend = [&](SimBackend backend, const char* name) {
            FiniteSystemConfig config = base_experiment.finite_system();
            config.dt = 5.0;
            const TupleSpace space(base_experiment.queue.num_states(), base_experiment.d);
            const FixedRulePolicy policy = make_jsq_policy(space);
            const auto run = [&](TelemetrySession* session) {
                FiniteSystemConfig run_config = config;
                run_config.telemetry = session;
                const std::unique_ptr<FiniteBackend> system = make_backend(backend, run_config);
                Rng rng(cli.get_int("seed"));
                system->reset(rng);
                (void)system->run_episode(policy, rng); // warmup sizes workspaces
                const auto start = Clock::now();
                for (std::size_t e = 0; e < episodes; ++e) {
                    system->reset(rng);
                    (void)system->run_episode(policy, rng);
                }
                return seconds_since(start) / static_cast<double>(episodes);
            };
            const double off = run(nullptr);
            const auto session = TelemetrySession::in_memory(SeriesFormat::Jsonl, true);
            const double on = run(session.get());
            const double fraction = off > 0.0 ? (on - off) / off : 0.0;
            timings.record(std::string(name) + "_epoch_telemetry_off", off);
            timings.record(std::string(name) + "_epoch_telemetry_on", on);
            timings.record(std::string(name) + "_telemetry_overhead_fraction", fraction);
            std::printf("  %-8s off %.3f ms/episode, on %.3f ms/episode  ->  %+.2f%%\n", name,
                        1e3 * off, 1e3 * on, 1e2 * fraction);
        };
        time_backend(SimBackend::Finite, "finite");
        time_backend(SimBackend::Des, "des");
        time_backend(SimBackend::ShardedDes, "sharded");
    }

    // --- 6. Per-queue epoch kernel at Table-1 load ----------------------
    // Seconds per queue-epoch of simulate_queue_epoch, the loop every shard
    // of the epoch engine runs: rho = 0.75, mu = 1, B = 5, each queue
    // starting from nu0 (the truncated geometric at rho).
    {
        const int buffer = 5;
        const double rho = 0.75;
        std::vector<double> nu0;
        for (int z = 0; z <= buffer; ++z) {
            nu0.push_back(std::pow(rho, z));
        }
        Rng rng(cli.get_int("seed"));
        std::vector<int> fill(std::size_t{1} << 14);
        for (int& z : fill) {
            z = static_cast<int>(rng.categorical(nu0));
        }
        const std::size_t rounds = full ? 64 : 16;
        std::printf("\nPer-queue epoch kernel (rho=%.2f, mu=1, B=%d, fill from nu0):\n", rho,
                    buffer);
        for (const int dt : {1, 5}) {
            std::uint64_t events = 0;
            const auto start = Clock::now();
            for (std::size_t r = 0; r < rounds; ++r) {
                for (const int z0 : fill) {
                    const QueueEpochResult q = simulate_queue_epoch(z0, rho, 1.0, buffer, dt, rng);
                    events += q.arrivals + q.drops + q.services;
                }
            }
            const double elapsed = seconds_since(start);
            const double queue_epochs = static_cast<double>(rounds * fill.size());
            timings.record("queue_kernel_epoch_dt=" + std::to_string(dt), elapsed / queue_epochs);
            std::printf("  dt=%d: %.1f ns/queue-epoch, %.1f ns/event (%.2f events/queue-epoch)\n",
                        dt, 1e9 * elapsed / queue_epochs,
                        1e9 * elapsed / static_cast<double>(events),
                        static_cast<double>(events) / queue_epochs);
        }
    }

    // --- 7. Deployed policy query on the Table-2 network ------------------
    // Seconds per NeuralUpperPolicy::decide_into on a seed-initialised
    // Table-2 network (8 → 256 → 256 tanh → 144): one per-sample forward
    // pass (math/vec_ops matvec + vec_tanh) per decision epoch.
    {
        const ExperimentConfig experiment = scenario_or_die("table1").experiment;
        const TupleSpace space(experiment.queue.num_states(), experiment.d);
        const std::size_t lambda_states = experiment.arrivals().num_states();
        Rng rng(cli.get_int("seed"));
        const auto network = std::make_shared<const rl::GaussianPolicy>(
            static_cast<std::size_t>(space.num_states()) + lambda_states,
            space.size() * static_cast<std::size_t>(space.d()),
            std::vector<std::size_t>{256, 256}, rng);
        const NeuralUpperPolicy policy(space, lambda_states, network);
        const std::unique_ptr<UpperLevelPolicy::Scratch> scratch = policy.make_scratch();
        DecisionRule rule(space);
        std::vector<double> nu(static_cast<std::size_t>(space.num_states()));
        for (double& v : nu) {
            v = rng.uniform();
        }
        policy.decide_into(nu, 0, rng, scratch.get(), rule); // warmup sizes the workspace
        const int queries = full ? 20000 : 4000;
        const auto start = Clock::now();
        for (int i = 0; i < queries; ++i) {
            policy.decide_into(nu, static_cast<std::size_t>(i) % lambda_states, rng,
                               scratch.get(), rule);
        }
        const double elapsed = seconds_since(start);
        timings.record("policy_query_table2", elapsed / queries);
        std::printf("\nNeuralUpperPolicy::decide_into (Table-2 net, %zu params):\n"
                    "  %.1f us/query over %d queries\n",
                    network->parameter_count(), 1e6 * elapsed / queries, queries);
    }

    // --- 8. parallel_for strip efficiency ------------------------------------
    // One fixed-work strip run serially ÷ parallel_for(4, …, 4) over four
    // such strips, medians over rounds: 1 when the four strips run on four
    // cores at once, 0.5 when the call takes two strips' time.
    {
        constexpr std::size_t kStrips = 4;
        constexpr int kStripWork = 100000; // a dependent chain, ~0.3 ms
        const std::size_t rounds = full ? 400 : 100;
        std::vector<double> sink(kStrips, 0.0);
        const auto strip = [&](std::size_t i) {
            double acc = static_cast<double>(i);
            for (int k = 0; k < kStripWork; ++k) {
                acc = acc * 0.999999 + 1.0;
            }
            sink[i] += acc;
        };
        std::vector<double> serial_s, parallel_s;
        for (std::size_t r = 0; r < rounds; ++r) {
            const auto start_serial = Clock::now();
            strip(0);
            serial_s.push_back(seconds_since(start_serial));
            const auto start_parallel = Clock::now();
            parallel_for(kStrips, strip, kStrips);
            parallel_s.push_back(seconds_since(start_parallel));
        }
        const double serial = median(serial_s);
        const double parallel = median(parallel_s);
        timings.record("parallel_for_strip_efficiency", serial / parallel);
        std::printf("\nparallel_for(%zu, fixed-work strips, %zu), %zu rounds (checksum %.3g):\n"
                    "  one strip %.1f us, the fan-out %.1f us  ->  strip efficiency %.2f\n",
                    kStrips, kStrips, rounds, sink[0] + sink[kStrips - 1], 1e6 * serial,
                    1e6 * parallel, serial / parallel);
    }

    // --- 9. parallel_for hand-off ----------------------------------------------
    // Seconds per empty parallel_for(4, …, 4), back to back after a warm-up:
    // what publishing a fan-out to the team and waiting for it costs.
    {
        constexpr std::size_t kStrips = 4;
        const std::size_t calls = full ? 20000 : 4000;
        const auto empty = [](std::size_t) {};
        for (std::size_t i = 0; i < 200; ++i) {
            parallel_for(kStrips, empty, kStrips);
        }
        std::vector<double> dispatch_s(calls);
        for (double& seconds : dispatch_s) {
            const auto start = Clock::now();
            parallel_for(kStrips, empty, kStrips);
            seconds = seconds_since(start);
        }
        const double dispatch = median(dispatch_s);
        timings.record("parallel_for_dispatch", dispatch);
        std::printf("\nempty parallel_for(%zu, …, %zu), %zu calls back to back:\n"
                    "  %.2f us per call (median)\n",
                    kStrips, kStrips, calls, 1e6 * dispatch);
    }

    timings.write(cli.get("json"));
    if (!cli.get("json").empty()) {
        std::printf("\ntimings written to %s\n", cli.get("json").c_str());
    }
    return failures == 0 ? 0 : 1;
}
