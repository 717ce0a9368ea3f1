/// Reproduces Figure 3: the PPO learning curve on the MFC MDP for Δt = 5,
/// with the MF-JSQ(2) and MF-RND reference returns as horizontal lines and
/// the final learned-MF performance marker.
///
/// Default budget trains a reduced configuration (smaller network / batch /
/// iteration count) so the binary finishes in ~1 minute on one core; the
/// paper trained Table 2 exactly for ~2.5e7 steps on 20 cores for 35 h.
/// `--full` restores Table 2 and the paper's step budget. The expected shape
/// — curve starts between the RND/JSQ references and climbs toward the CEM
/// optimum — is budget-independent.
#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace mflb;
    CliParser cli("bench_fig3_training_curve: reproduce Figure 3 (PPO learning curve, dt=5)");
    cli.flag_bool("full", false, "Use the paper-scale Table 2 configuration");
    cli.flag_double("dt", 5, "Synchronization delay");
    cli.flag_int("iterations", 25, "PPO training iterations at default budget");
    cli.flag_int("horizon", 30, "Episode length (decision epochs) at default budget");
    cli.flag_int("seed", 1, "Training seed");
    cli.flag_int("num-envs", 1,
                 "Parallel rollout environments K (results depend on (seed, K) but "
                 "never on thread count)");
    cli.flag_int("train-threads", 0,
                 "Worker threads for rollout collection and the PPO update (0 = all "
                 "cores; never changes results)");
    cli.flag_bool("warm-start", false,
             "Initialize the policy mean at the best Boltzmann rule (shows the "
             "pipeline surpassing JSQ(2) within the small default budget)");
    if (!cli.parse(argc, argv)) {
        return cli.exit_code();
    }
    const bool full = cli.get_bool("full");
    const double dt = cli.get_double("dt");

    ExperimentConfig experiment;
    experiment.dt = dt;
    MfcConfig config = experiment.mfc();
    config.horizon = full ? 500 : static_cast<int>(cli.get_int("horizon"));

    rl::PpoConfig ppo; // Table 2 defaults
    std::size_t iterations = 6250;  // ≈ 2.5e7 steps at batch 4000
    if (!full) {
        // Calibrated small-budget configuration: tighter exploration noise
        // for the 72-dimensional decision-rule action space, shorter
        // episodes (less λ-path return variance), unclipped critic loss so
        // the value net actually trains at these return magnitudes.
        ppo.hidden = {64, 64};
        ppo.train_batch_size = 2000;
        ppo.num_epochs = 10;
        ppo.learning_rate = 1e-3;
        ppo.vf_clip_param = 1e9;
        ppo.initial_log_std = -1.2;
        ppo.kl_target = 0.03;
        iterations = static_cast<std::size_t>(cli.get_int("iterations"));
    }
    if (cli.get_int("num-envs") < 1 || cli.get_int("train-threads") < 0) {
        std::fprintf(stderr, "error: --num-envs must be >= 1 and --train-threads >= 0\n");
        return 2;
    }
    experiment.num_envs = static_cast<std::size_t>(cli.get_int("num-envs"));
    experiment.train_threads = static_cast<std::size_t>(cli.get_int("train-threads"));
    ppo.num_envs = experiment.num_envs;
    ppo.train_threads = experiment.train_threads;

    bench::print_header("Figure 3",
                        "PPO training curve on the MFC MDP (episode return = -packet drops)",
                        full);

    // Reference lines: MF-JSQ(2), MF-RND, and the CEM-learned optimum (the
    // "MF final performance" dotted line of the figure).
    const TupleSpace space(config.queue.num_states(), config.d);
    const std::size_t ref_episodes = 40;
    const EvaluationResult jsq_ref =
        evaluate_mfc(config, make_jsq_policy(space), ref_episodes, 99);
    const EvaluationResult rnd_ref =
        evaluate_mfc(config, make_rnd_policy(space), ref_episodes, 99);
    bench::LearnedPolicyCache cache(full, 4242);
    MfcConfig cem_eval_config = config;
    const EvaluationResult cem_ref =
        evaluate_mfc(cem_eval_config, cache.policy_for(dt), ref_episodes, 99);

    std::printf("reference returns (mean over %zu episodes, horizon %d):\n", ref_episodes,
                config.horizon);
    std::printf("  MF-JSQ(2):            %.3f\n", -jsq_ref.total_drops.mean);
    std::printf("  MF-RND:               %.3f\n", -rnd_ref.total_drops.mean);
    std::printf("  MF final (CEM optimum): %.3f\n\n", -cem_ref.total_drops.mean);

    Table curve({"iteration", "timesteps", "mean_episode_return", "mean_KL", "kl_coeff",
                 "policy_loss", "value_loss"});
    const auto make_env = [&config]() -> std::unique_ptr<rl::Env> {
        return std::make_unique<MfcRlEnv>(config, RuleParameterization::Logits);
    };
    rl::PpoTrainer trainer(make_env, ppo, Rng(cli.get_int("seed")));
    if (cli.get_bool("warm-start")) {
        const std::vector<double> beta_grid{0.0, 0.5, 1.0, 2.0, 4.0, 8.0};
        const double beta = best_boltzmann_beta(config, beta_grid, 4, 99);
        trainer.policy().set_initial_mean(boltzmann_initial_params(space, 1, beta));
        std::printf("warm start: Boltzmann beta = %.2f\n\n", beta);
    }
    trainer.train(iterations, [&](const rl::PpoIterationStats& stats) {
        curve.row()
            .cell(static_cast<std::int64_t>(curve.rows() + 1))
            .cell(static_cast<std::int64_t>(stats.timesteps_total))
            .cell(stats.mean_episode_return, 3)
            .cell(stats.mean_kl, 5)
            .cell(stats.kl_coeff, 4)
            .cell(stats.policy_loss, 5)
            .cell(stats.value_loss, 3);
        std::fprintf(stderr, "[fig3] steps=%zu return=%.3f kl=%.5f\n", stats.timesteps_total,
                     stats.mean_episode_return, stats.mean_kl);
    });
    const double final_eval = trainer.evaluate(20);

    std::printf("%s\n", curve.to_text().c_str());
    std::printf("final deterministic-policy return: %.3f\n", final_eval);
    if (full) {
        std::printf("(paper shape: curve starts near MF-RND level and climbs above both\n"
                    " MF-RND and MF-JSQ(2) toward the MF optimum as steps accumulate)\n");
    } else {
        std::printf(
            "(at this reduced budget the curve separates from the MF-RND level but\n"
            " does not yet pass MF-JSQ(2); the paper trained ~2.5e7 steps on 20 cores\n"
            " for ~35h. Run with --full for the Table 2 configuration, or with\n"
            " --warm-start to see the pipeline surpass JSQ(2) within this budget.\n"
            " The CEM line above shows the optimum this MDP admits.)\n");
    }
    return 0;
}
