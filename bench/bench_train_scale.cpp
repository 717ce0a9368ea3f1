/// Training-stack scaling benchmark: throughput and speedup of the batched
/// + multi-threaded PPO/CEM pipeline on the MFC MDP.
///
///   1. Update phase: the batched GEMM update vs the legacy per-sample
///      update on the identical collected batch, single thread (target >= 3x;
///      losses agree to 1e-12, FMA contraction being the only difference,
///      verified here), then the batched update at 1/2/4 `train_threads`
///      (two fan-outs per minibatch), whose losses and parameters must be
///      bitwise equal to the 1-thread update.
///   2. Rollout collection: K parallel env slots at 1/2/4/8 worker threads
///      vs the serial single-env baseline (fixed-order merge keeps results
///      (seed, K)-deterministic; scaling with cores lands on CI/real
///      hardware — the dev container is 1-core).
///   3. CEM population evaluation: parallel candidate evaluation vs serial.
///   4. Determinism: PPO training losses bit-identical at 1/2/8 threads for
///      fixed (seed, num_envs), and CEM scores thread-count-invariant —
///      the bench exits nonzero on any mismatch.
///
/// `--json` emits steps/sec and speedup rows (`update_*`, including
/// `update_batched_seconds_threads=T` and `update_thread_speedup_x`,
/// `rollout_*`, `cem_*`) for the CI Release bench artifact.
#include "bench_common.hpp"
#include "support/trace.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <thread>
#include <vector>

namespace {

using namespace mflb;

rl::PpoTrainer::EnvFactory mfc_factory(const MfcConfig& config) {
    return [config]() -> std::unique_ptr<rl::Env> {
        return std::make_unique<MfcRlEnv>(config, RuleParameterization::Logits);
    };
}

rl::PpoConfig trainer_config(bool full, std::size_t num_envs, std::size_t train_threads,
                             bool batched) {
    rl::PpoConfig ppo; // Table 2 network (256x256) is the shape that matters
    ppo.train_batch_size = full ? 4000 : 1024;
    ppo.minibatch_size = 128;
    ppo.num_epochs = full ? 4 : 2;
    ppo.num_envs = num_envs;
    ppo.train_threads = train_threads;
    ppo.batched_update = batched;
    return ppo;
}

/// Bitwise equality of two double sequences (bit patterns, not values).
bool same_bits(std::span<const double> a, std::span<const double> b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool identical(const rl::PpoIterationStats& a, const rl::PpoIterationStats& b) {
    const std::array<double, 6> x{a.mean_episode_return, a.mean_kl, a.policy_loss,
                                  a.value_loss,          a.entropy, a.kl_coeff};
    const std::array<double, 6> y{b.mean_episode_return, b.mean_kl, b.policy_loss,
                                  b.value_loss,          b.entropy, b.kl_coeff};
    return a.timesteps_total == b.timesteps_total &&
           a.episodes_completed == b.episodes_completed && same_bits(x, y);
}

/// Batched-vs-scalar losses agree to 1e-12 (the only permitted divergence
/// is FMA contraction in the GEMM kernels on FMA hardware).
bool agrees(const rl::PpoIterationStats& a, const rl::PpoIterationStats& b) {
    const auto close = [](double x, double y) {
        return std::abs(x - y) <= 1e-12 * std::max(1.0, std::abs(y));
    };
    return a.timesteps_total == b.timesteps_total &&
           a.mean_episode_return == b.mean_episode_return && close(a.mean_kl, b.mean_kl) &&
           close(a.policy_loss, b.policy_loss) && close(a.value_loss, b.value_loss) &&
           close(a.entropy, b.entropy);
}

} // namespace

int main(int argc, char** argv) {
    CliParser cli("bench_train_scale: batched + multi-threaded training throughput");
    cli.flag_bool("full", false, "Paper-scale batch (4000) and larger budgets");
    cli.flag_int("seed", 1, "Seed");
    cli.flag("json", "", "Optional JSON timings output path");
    if (!cli.parse(argc, argv)) {
        return cli.exit_code();
    }
    const bool full = cli.get_bool("full");
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    bench::print_header("Training scale",
                        "GEMM-batched PPO update, parallel rollout & CEM evaluation", full);
    bench::TimingLog timings("train_scale");
    int failures = 0;

    ExperimentConfig experiment;
    experiment.dt = 5.0;
    MfcConfig config = experiment.mfc();
    config.horizon = 30;

    // --- 1. Update phase: batched GEMM vs per-sample, then thread scaling --
    {
        rl::PpoTrainer batched(mfc_factory(config), trainer_config(full, 1, 1, true),
                               Rng(seed));
        rl::PpoTrainer scalar(mfc_factory(config), trainer_config(full, 1, 1, false),
                              Rng(seed));
        rl::PpoIterationStats batched_stats;
        rl::PpoIterationStats scalar_stats;
        batched.collect_phase(batched_stats);
        scalar.collect_phase(scalar_stats);

        // Best of two runs each: the second update re-times the identical
        // work from warm caches, which is the steady-state cost (the loss
        // comparison below uses the first, equivalent pass of each path).
        auto time_update = [](rl::PpoTrainer& trainer, rl::PpoIterationStats& stats) {
            double best = 1e300;
            for (int rep = 0; rep < 2; ++rep) {
                rl::PpoIterationStats repeat = stats;
                const trace::Stopwatch watch;
                trainer.optimize_phase(rep == 0 ? stats : repeat);
                best = std::min(best, watch.seconds());
            }
            return best;
        };
        const double batched_seconds = time_update(batched, batched_stats);
        const double scalar_seconds = time_update(scalar, scalar_stats);

        const double speedup = scalar_seconds / batched_seconds;
        const auto samples = static_cast<double>(batched_stats.timesteps_total) *
                             static_cast<double>(trainer_config(full, 1, 1, true).num_epochs);
        timings.record("update_scalar_seconds", scalar_seconds);
        timings.record("update_batched_seconds", batched_seconds);
        timings.record("update_speedup_x", speedup);
        timings.record("update_batched_steps_per_sec", samples / batched_seconds);
        std::printf("PPO update phase (Table-2 net 256x256, batch %zu, minibatch 128):\n"
                    "  per-sample: %.3f s   batched GEMM: %.3f s   ->  %.2fx speedup\n",
                    trainer_config(full, 1, 1, true).train_batch_size, scalar_seconds,
                    batched_seconds, speedup);
        if (speedup < 3.0) {
            std::printf("  WARNING: below the 3x target on this host\n");
        }
        if (!agrees(batched_stats, scalar_stats)) {
            std::printf("  FAIL: batched and per-sample updates disagree beyond 1e-12\n");
            ++failures;
        } else {
            std::printf("  batched == per-sample: losses agree to 1e-12\n");
        }

        // Update-thread scaling: the same update on 1/2/4 train_threads.
        // Each trainer runs the identical two updates, so losses and final
        // parameters must match the 1-thread run bit for bit.
        struct Run {
            double seconds = 0.0;
            rl::PpoIterationStats stats;
            std::vector<double> params;
        };
        std::vector<Run> runs;
        for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
            rl::PpoTrainer trainer(mfc_factory(config), trainer_config(full, 1, threads, true),
                                   Rng(seed));
            Run run;
            trainer.collect_phase(run.stats);
            run.seconds = time_update(trainer, run.stats);
            const auto p = trainer.policy().network().parameters();
            const auto v = trainer.value_network().parameters();
            run.params.assign(p.begin(), p.end());
            run.params.insert(run.params.end(), v.begin(), v.end());
            char label[64];
            std::snprintf(label, sizeof(label), "update_batched_seconds_threads=%zu", threads);
            timings.record(label, run.seconds);
            std::printf("  batched update, %zu thread%s: %.3f s (%.2fx)\n", threads,
                        threads == 1 ? "" : "s", run.seconds,
                        runs.empty() ? 1.0 : runs.front().seconds / run.seconds);
            if (!runs.empty() && (!identical(runs.front().stats, run.stats) ||
                                  !same_bits(runs.front().params, run.params))) {
                std::printf("  FAIL: %zu-thread update differs from the 1-thread update\n",
                            threads);
                ++failures;
            }
            runs.push_back(std::move(run));
        }
        timings.record("update_thread_speedup_x", runs.front().seconds / runs.back().seconds);
    }

    // --- 2. Rollout collection: K env slots, thread sweep ------------------
    {
        rl::PpoIterationStats stats;
        rl::PpoTrainer serial(mfc_factory(config), trainer_config(full, 1, 1, true), Rng(seed));
        const trace::Stopwatch serial_watch;
        serial.collect_phase(stats);
        const double serial_seconds = serial_watch.seconds();
        timings.record("rollout_collect_serial_seconds", serial_seconds);
        timings.record("rollout_collect_serial_steps_per_sec",
                       static_cast<double>(stats.timesteps_total) / serial_seconds);

        const std::size_t num_envs = 8;
        Table table({"threads", "collect (s)", "steps/s", "speedup vs serial"});
        for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                          std::size_t{8}}) {
            rl::PpoTrainer trainer(mfc_factory(config),
                                   trainer_config(full, num_envs, threads, true), Rng(seed));
            rl::PpoIterationStats collect_stats;
            const trace::Stopwatch watch;
            trainer.collect_phase(collect_stats);
            const double seconds = watch.seconds();
            const double steps_per_sec =
                static_cast<double>(collect_stats.timesteps_total) / seconds;
            char label[64];
            std::snprintf(label, sizeof(label), "rollout_collect_K=%zu_T=%zu_seconds",
                          num_envs, threads);
            timings.record(label, seconds);
            std::snprintf(label, sizeof(label), "rollout_speedup_K=%zu_T=%zu", num_envs,
                          threads);
            timings.record(label, serial_seconds / seconds);
            char cell[32];
            std::snprintf(cell, sizeof(cell), "%.2fx", serial_seconds / seconds);
            table.row()
                .cell(static_cast<std::int64_t>(threads))
                .cell(seconds, 3)
                .cell(steps_per_sec, 0)
                .cell(std::string(cell));
        }
        std::printf("\nrollout collection, K=%zu envs (serial 1-env baseline: %.3f s):\n%s",
                    num_envs, serial_seconds, table.to_text().c_str());
        std::printf("(hardware: %u threads available; rollout scaling with cores lands on "
                    "CI/real hardware)\n",
                    std::thread::hardware_concurrency());
    }

    // --- 3. CEM population evaluation: serial vs parallel ------------------
    {
        const TupleSpace space(config.queue.num_states(), config.d);
        rl::CemConfig cem;
        cem.population = full ? 32 : 16;
        cem.elites = 4;
        cem.generations = full ? 6 : 3;

        auto run_cem = [&](std::size_t threads) {
            rl::CemConfig threaded = cem;
            threaded.threads = threads;
            const trace::Stopwatch watch;
            const CemTrainingResult result =
                train_tabular_cem(config, threaded, 2, seed + 17);
            return std::make_pair(watch.seconds(), result.best_return);
        };
        const auto [serial_seconds, serial_best] = run_cem(1);
        const auto [parallel_seconds, parallel_best] = run_cem(0);
        timings.record("cem_eval_serial_seconds", serial_seconds);
        timings.record("cem_eval_parallel_seconds", parallel_seconds);
        timings.record("cem_eval_speedup_x", serial_seconds / parallel_seconds);
        std::printf("\nCEM population evaluation (pop %zu, %zu generations):\n"
                    "  serial: %.3f s   parallel (all cores): %.3f s   ->  %.2fx\n",
                    cem.population, cem.generations, serial_seconds, parallel_seconds,
                    serial_seconds / parallel_seconds);
        if (serial_best != parallel_best) {
            std::printf("  FAIL: CEM result depends on thread count\n");
            ++failures;
        }
    }

    // --- 4. Determinism: bitwise equal losses at 1/2/8 threads -------------
    {
        auto run = [&](std::size_t threads) {
            rl::PpoTrainer trainer(mfc_factory(config), trainer_config(false, 4, threads, true),
                                   Rng(seed));
            trainer.train_iteration();
            return trainer.train_iteration();
        };
        const rl::PpoIterationStats t1 = run(1);
        const rl::PpoIterationStats t2 = run(2);
        const rl::PpoIterationStats t8 = run(8);
        if (!identical(t1, t2) || !identical(t1, t8)) {
            std::printf("\nFAIL: PPO training losses differ across thread counts\n");
            ++failures;
        } else {
            std::printf("\nPPO training losses bit-identical at 1/2/8 threads for fixed "
                        "(seed, num_envs=4): return=%.6f policy_loss=%.6f value_loss=%.6f\n",
                        t1.mean_episode_return, t1.policy_loss, t1.value_loss);
        }
    }

    timings.write(cli.get("json"));
    if (!cli.get("json").empty()) {
        std::printf("\ntimings written to %s\n", cli.get("json").c_str());
    }
    return failures == 0 ? 0 : 1;
}
