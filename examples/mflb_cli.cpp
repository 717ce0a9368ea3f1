/// mflb_cli — a single command-line front end over the library, the kind of
/// tool a downstream operator would actually run:
///
///   mflb_cli --mode train   --dt 5 --out /tmp/policy.txt
///   mflb_cli --mode train   --trainer ppo --num-envs 8 --train-threads 8
///   mflb_cli --mode eval    --dt 5 --policy /tmp/policy.txt --m 200
///   mflb_cli --mode eval    --scenario small-n
///   mflb_cli --mode sweep   --dts 1,3,5,10 --m 100
///   mflb_cli --mode dp      --dt 5 --resolution 6
///   mflb_cli --mode scenarios
///
/// Modes:
///   train     — policy search on the mean-field MDP: CEM (default; save to
///               --out) or the Table 2 PPO pipeline (--trainer ppo, with
///               --num-envs parallel rollout environments).
///   eval      — evaluate a saved policy (or baselines) on the finite system;
///               the baseline configuration resolves from --scenario.
///   sweep     — JSQ/RND/Boltzmann delay sweep table.
///   dp        — discretized value-iteration solve and evaluation.
///   scenarios — list the named scenarios of the registry.
#include "core/mflb.hpp"

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

namespace {
using namespace mflb;

/// Telemetry session from --metrics-out/--metrics-every/--trace-out, or null
/// when neither output is requested (the zero-overhead default). The caller
/// keeps it alive across the run; destruction flushes the series file and
/// writes the chrome://tracing JSON.
std::unique_ptr<TelemetrySession> make_telemetry(const CliParser& cli) {
    TelemetryConfig config;
    config.metrics_out = cli.get("metrics-out");
    config.trace_out = cli.get("trace-out");
    const auto every = cli.get_int("metrics-every");
    config.metrics_every = every > 0 ? static_cast<std::size_t>(every) : 1;
    if (!config.any_enabled()) {
        return nullptr;
    }
    return std::make_unique<TelemetrySession>(config);
}

int run_train_ppo(const CliParser& cli, const ExperimentConfig& experiment,
                  const MfcConfig& config) {
    rl::PpoConfig ppo; // defaults ARE Table 2 (cross-checked by bench_table2)
    if (!cli.get_bool("paper")) {
        // Calibrated small-budget configuration (same as bench_fig3's
        // default): finishes in seconds instead of the paper's ~35 h.
        ppo.hidden = {64, 64};
        ppo.train_batch_size = 2000;
        ppo.num_epochs = 10;
        ppo.learning_rate = 1e-3;
        ppo.vf_clip_param = 1e9;
        ppo.initial_log_std = -1.2;
        ppo.kl_target = 0.03;
    }
    ppo.num_envs = experiment.num_envs;
    ppo.train_threads = experiment.train_threads;
    const std::unique_ptr<TelemetrySession> telemetry = make_telemetry(cli);
    ppo.telemetry = telemetry.get();
    const auto iterations = static_cast<std::size_t>(cli.get_int("generations"));
    std::printf("training: dt=%.1f horizon=%d ppo(%s budget, iters=%zu, K=%zu envs, "
                "%zu threads)\n",
                config.dt, config.horizon, cli.get_bool("paper") ? "Table 2" : "reduced",
                iterations, ppo.num_envs, ppo.train_threads);
    const PpoTrainingResult result =
        train_mfc_ppo(config, ppo, iterations, 10, cli.get_int("seed"));
    for (const rl::PpoIterationStats& stats : result.history) {
        std::printf("  steps=%8zu return=%9.3f kl=%.5f\n", stats.timesteps_total,
                    stats.mean_episode_return, stats.mean_kl);
    }
    std::printf("final deterministic-policy return: %.4f\n", result.final_eval_return);
    std::printf("(note: only tabular CEM policies support --out archives; PPO weights "
                "stay in memory)\n");
    return 0;
}

int run_train(const CliParser& cli) {
    if (cli.get_int("train-threads") < 0 || cli.get_int("num-envs") < 1) {
        std::fprintf(stderr, "error: --train-threads must be >= 0 and --num-envs >= 1\n");
        return 2;
    }
    ExperimentConfig experiment;
    experiment.dt = cli.get_double("dt");
    experiment.train_threads = static_cast<std::size_t>(cli.get_int("train-threads"));
    experiment.num_envs = static_cast<std::size_t>(cli.get_int("num-envs"));
    MfcConfig config = experiment.mfc();
    config.horizon = static_cast<int>(cli.get_int("horizon"));
    const std::string trainer = cli.get("trainer");
    if (trainer == "ppo") {
        return run_train_ppo(cli, experiment, config);
    }
    if (trainer != "cem") {
        std::fprintf(stderr, "error: unknown --trainer '%s'; expected 'cem' or 'ppo'\n",
                     trainer.c_str());
        return 2;
    }
    rl::CemConfig cem;
    cem.population = static_cast<std::size_t>(cli.get_int("population"));
    cem.generations = static_cast<std::size_t>(cli.get_int("generations"));
    cem.elites = std::max<std::size_t>(2, cem.population / 5);
    cem.threads = experiment.train_threads;
    const std::unique_ptr<TelemetrySession> telemetry = make_telemetry(cli);
    cem.telemetry = telemetry.get();

    const TupleSpace space(config.queue.num_states(), config.d);
    const std::vector<double> beta_grid{0.0, 0.5, 1.0, 2.0, 4.0, 8.0};
    const double beta = best_boltzmann_beta(config, beta_grid, 4, cli.get_int("seed"));
    const std::vector<double> warm = boltzmann_initial_params(space, 2, beta);
    std::printf("training: dt=%.1f horizon=%d cem(pop=%zu, gens=%zu), warm beta=%.2f\n",
                config.dt, config.horizon, cem.population, cem.generations, beta);
    const CemTrainingResult result =
        train_tabular_cem(config, cem, 2, cli.get_int("seed"), RuleParameterization::Logits,
                          true, &warm);
    std::printf("best mean-field return: %.4f\n", result.best_return);
    const std::string out = cli.get("out");
    if (!result.policy.to_archive().save(out)) {
        std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
        return 1;
    }
    std::printf("policy saved to %s\n", out.c_str());
    return 0;
}

int run_eval(const CliParser& cli) {
    // Base parameters come from the scenario registry (--scenario, default
    // table1); explicitly provided flags override the scenario's values.
    const Scenario* scenario = find_scenario(cli.get("scenario"));
    if (scenario == nullptr) {
        std::fprintf(stderr, "unknown scenario '%s'; known scenarios:\n%s",
                     cli.get("scenario").c_str(), scenario_list_text().c_str());
        return 2;
    }
    ExperimentConfig experiment = scenario->experiment;
    // The --dt default (5) applies to the table1 baseline; any other
    // scenario keeps its own delay unless --dt is given explicitly. Keyed on
    // the resolved name, so `--scenario table1` behaves exactly like the
    // no-flag invocation.
    if (cli.provided("dt") || scenario->name == "table1") {
        experiment.dt = cli.get_double("dt");
    }
    if (cli.provided("m")) {
        resize_fleet(experiment, static_cast<std::size_t>(cli.get_int("m")));
        experiment.num_clients = experiment.num_queues * experiment.num_queues;
    }
    if (cli.provided("n") && cli.get_int("n") != 0) {
        experiment.num_clients = static_cast<std::uint64_t>(cli.get_int("n"));
    }
    if (cli.get_int("shards") < 0 || cli.get_int("threads") < 0) {
        std::fprintf(stderr, "error: --shards and --threads must be >= 0\n");
        return 2;
    }
    if (cli.provided("shards")) {
        experiment.shards = static_cast<std::size_t>(cli.get_int("shards"));
    }
    const auto threads = static_cast<std::size_t>(cli.get_int("threads"));
    experiment.threads = threads;
    // Simulator backend: the scenario's choice unless --backend overrides
    // (the large-n scenario defaults to the event-driven engine).
    SimBackend backend = experiment.backend;
    try {
        if (cli.provided("backend")) {
            backend = parse_backend(cli.get("backend"));
        }
        // Future-event-list implementation for the DES backends; both kinds
        // produce bit-identical episodes, so this is a pure speed knob.
        if (cli.provided("fel")) {
            experiment.fel = parse_fel_kind(cli.get("fel"));
        }
        // Routing discipline and service-time law: scenario values unless
        // overridden (the staleness-sweep / heavy-tail scenarios preset them).
        if (cli.provided("router")) {
            experiment.router.kind = parse_router(cli.get("router"));
        }
        if (cli.provided("router-d")) {
            experiment.router.d = cli.get_int("router-d");
        }
        if (cli.provided("stale-period")) {
            experiment.router.stale_period = cli.get_double("stale-period");
        }
        if (cli.provided("service-dist")) {
            experiment.service.kind = parse_service_dist(cli.get("service-dist"));
        }
        if (cli.provided("pareto-alpha")) {
            experiment.service.pareto_alpha = cli.get_double("pareto-alpha");
        }
        if (cli.provided("pareto-cap")) {
            experiment.service.pareto_cap = cli.get_double("pareto-cap");
        }
        if (cli.provided("hyper-scv")) {
            experiment.service.hyper_scv = cli.get_double("hyper-scv");
        }
    } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    }
    const TupleSpace space(experiment.queue.num_states(), experiment.d);
    const std::size_t episodes = static_cast<std::size_t>(cli.get_int("episodes"));

    std::optional<TabularPolicy> learned;
    if (!cli.get("policy").empty()) {
        learned = TabularPolicy::from_archive(Archive::load(cli.get("policy")));
    }

    // One session shared by every evaluation below: replication 0 of each
    // evaluated policy appends its epoch rows to the same series file.
    const std::unique_ptr<TelemetrySession> telemetry = make_telemetry(cli);
    Table table({"policy", "drops/queue (95% CI)", "mean fill", "utilization",
                 "sojourn p50/p95/p99"});
    auto add = [&](const ExperimentConfig& config, const UpperLevelPolicy& policy,
                   const std::string& label) {
        FiniteSystemConfig system = config.finite_system();
        system.telemetry = telemetry.get();
        system.track_sojourn = true;
        const EvaluationResult r =
            evaluate_backend(backend, system, policy, episodes, cli.get_int("seed"), threads);
        char percentiles[64];
        std::snprintf(percentiles, sizeof(percentiles), "%.2f / %.2f / %.2f",
                      r.sojourn_p50.mean, r.sojourn_p95.mean, r.sojourn_p99.mean);
        table.row()
            .cell(label)
            .cell_ci(r.total_drops.mean, r.total_drops.half_width)
            .cell(r.mean_queue_length.mean, 3)
            .cell(r.utilization.mean, 3)
            .cell(percentiles);
    };
    if (experiment.router.kind != RouterKind::Policy) {
        // A classical router bypasses the upper-level policy; evaluate it
        // first, then the decision-rule baselines on the same system for
        // comparison (router reset to the policy path).
        add(experiment, make_rnd_policy(space),
            std::string(router_name(experiment.router.kind)));
        experiment.router = RouterSpec{};
    }
    if (learned) {
        add(experiment, *learned, learned->name());
    }
    add(experiment, make_jsq_policy(space), "JSQ(d)");
    add(experiment, make_rnd_policy(space), "RND(d)");
    std::printf("M=%zu N=%llu dt=%.1f, %zu episodes, backend=%s, service=%s\n%s",
                experiment.num_queues,
                static_cast<unsigned long long>(experiment.num_clients), experiment.dt,
                episodes, std::string(backend_name(backend)).c_str(),
                std::string(service_dist_name(experiment.service.kind)).c_str(),
                table.to_text().c_str());
    return 0;
}

int run_sweep(const CliParser& cli) {
    Table table({"dt", "JSQ(2)", "RND", "best Boltzmann", "best beta"});
    for (const double dt : cli.get_double_list("dts")) {
        ExperimentConfig experiment;
        experiment.dt = dt;
        const MfcConfig config = experiment.mfc(/*eval_horizon_instead=*/true);
        const TupleSpace space(config.queue.num_states(), config.d);
        const std::vector<double> beta_grid{0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 1e6};
        const double beta = best_boltzmann_beta(config, beta_grid, 6, cli.get_int("seed"));
        const std::size_t episodes = static_cast<std::size_t>(cli.get_int("episodes"));
        const EvaluationResult jsq =
            evaluate_mfc(config, make_jsq_policy(space), episodes, cli.get_int("seed"));
        const EvaluationResult rnd =
            evaluate_mfc(config, make_rnd_policy(space), episodes, cli.get_int("seed"));
        const EvaluationResult boltzmann = evaluate_mfc(
            config, make_greedy_softmax_policy(space, std::min(beta, 1e6)), episodes,
            cli.get_int("seed"));
        table.row()
            .cell(dt, 1)
            .cell(jsq.total_drops.mean, 3)
            .cell(rnd.total_drops.mean, 3)
            .cell(boltzmann.total_drops.mean, 3)
            .cell(beta >= 1e6 ? std::string("inf") : std::to_string(beta));
    }
    std::printf("%s", table.to_text().c_str());
    return 0;
}

int run_dp(const CliParser& cli) {
    MfcConfig config;
    config.dt = cli.get_double("dt");
    config.horizon = static_cast<int>(cli.get_int("horizon"));
    DpConfig dp;
    dp.resolution = static_cast<std::size_t>(cli.get_int("resolution"));
    const auto [policy, stats] = solve_mfc_dp(config, dp);
    std::printf("DP solve: %zu states x %zu actions, %zu sweeps, residual %.2e\n",
                stats.states, stats.actions, stats.sweeps, stats.final_residual);
    const TupleSpace space(config.queue.num_states(), config.d);
    const std::size_t episodes = static_cast<std::size_t>(cli.get_int("episodes"));
    const EvaluationResult dp_eval = evaluate_mfc(config, policy, episodes, cli.get_int("seed"));
    const EvaluationResult jsq =
        evaluate_mfc(config, make_jsq_policy(space), episodes, cli.get_int("seed"));
    const EvaluationResult rnd =
        evaluate_mfc(config, make_rnd_policy(space), episodes, cli.get_int("seed"));
    std::printf("mean-field drops: DP %.3f | JSQ(2) %.3f | RND %.3f\n", dp_eval.total_drops.mean,
                jsq.total_drops.mean, rnd.total_drops.mean);
    return 0;
}
} // namespace

int main(int argc, char** argv) {
    using namespace mflb;
    CliParser cli("mflb_cli: train / evaluate / sweep / dp-solve mean-field load balancers");
    cli.flag("mode", "sweep", "One of: train, eval, sweep, dp, scenarios");
    cli.flag("scenario", "table1",
             "Named scenario from the registry (see --mode scenarios) used as the "
             "eval-mode baseline; other flags override its values");
    cli.flag("backend", "finite",
             "Finite-system simulator for eval mode: 'finite' (epoch engine, "
             "per-queue kernels on one shard), 'des' (event-driven), or 'sharded-des' "
             "(the same engine on K parallel shards, see --shards); all report "
             "sojourn percentiles; default = scenario's backend");
    cli.flag_int("threads", 0,
                 "Worker threads for replications / sharded epochs (0 = all cores)");
    cli.flag("metrics-out", "",
             "Per-epoch (eval) / per-iteration (train) time-series output: JSONL, or "
             "CSV when the path ends in .csv; empty = disabled");
    cli.flag_int("metrics-every", 1, "Emit every k-th epoch row (train rows always emit)");
    cli.flag("trace-out", "",
             "chrome://tracing span JSON covering barrier phases, shard tasks, "
             "and trainer phases; empty = disabled");
    cli.flag("trainer", "cem",
             "Train-mode optimizer: 'cem' (tabular policy search, supports --out) or "
             "'ppo' (Table 2 pipeline on the MFC MDP)");
    cli.flag_int("train-threads", 0,
                 "Worker threads for trainer fan-outs (CEM population / PPO rollout "
                 "slots and update; 0 = all cores; never changes results)");
    cli.flag_int("num-envs", 1,
                 "Parallel PPO rollout environments K (results depend on (seed, K), "
                 "never on thread count)");
    cli.flag_bool("paper", false,
                  "With --trainer ppo: use the exact Table 2 configuration instead of "
                  "the reduced CI-sized budget (paper scale: ~2.5e7 steps, hours)");
    cli.flag_int("shards", 0,
                 "Queue shards K for the sharded-des backend (0 = scenario's, or 8; "
                 "clamped to M); the finite backend always runs one shard");
    cli.flag("fel", "calendar",
             "Future event list for the des backend: calendar (amortized O(1) "
             "buckets, default) or heap (binary heap); bit-identical results "
             "either way");
    cli.flag("router", "policy",
             "Routing discipline for eval mode: 'policy' (decision-rule path), "
             "'random', 'round-robin', 'jsq', 'jsq-d', 'sed-d' (shortest expected "
             "delay (z+1)/speed over the scenario's server speeds), or 'sq-stale'; "
             "default = scenario's router");
    cli.flag_int("router-d", 2, "Choices d for the jsq-d and sed-d routers");
    cli.flag_double("stale-period", 10,
                    "Snapshot refresh period (time units) for the sq-stale router; "
                    "0 = refresh every epoch (exact JSQ)");
    cli.flag("service-dist", "exponential",
             "Service-time law: 'exponential', 'deterministic', 'hyperexp', or "
             "'pareto' (bounded); all have mean 1/alpha; default = scenario's");
    cli.flag_double("pareto-alpha", 1.5, "Tail index for --service-dist pareto");
    cli.flag_double("pareto-cap", 1000,
                    "Truncation ratio H/L for --service-dist pareto");
    cli.flag_double("hyper-scv", 4,
                    "Squared coefficient of variation for --service-dist hyperexp");
    cli.flag_double("dt", 5, "Synchronization delay");
    cli.flag_double_list("dts", "1,3,5,10", "Delays for sweep mode");
    cli.flag_int("m", 100, "Queues for eval mode (sets clients to M^2 unless --n is given)");
    cli.flag_int("n", 0, "Clients for eval mode (0 = scenario's count, or M^2 with --m)");
    cli.flag_int("horizon", 60, "Training/DP episode length (epochs)");
    cli.flag_int("episodes", 15, "Evaluation episodes");
    cli.flag_int("population", 32, "CEM population");
    cli.flag_int("generations", 25, "CEM generations");
    cli.flag_int("resolution", 6, "DP simplex-grid resolution");
    cli.flag("policy", "", "Path of a saved policy for eval mode");
    cli.flag("out", "/tmp/mflb_policy.txt", "Output path for train mode");
    cli.flag_int("seed", 1, "Seed");
    if (!cli.parse(argc, argv)) {
        return cli.exit_code();
    }
    const std::string mode = cli.get("mode");
    try {
        if (mode == "train") {
            return run_train(cli);
        }
        if (mode == "eval") {
            return run_eval(cli);
        }
        if (mode == "sweep") {
            return run_sweep(cli);
        }
        if (mode == "dp") {
            return run_dp(cli);
        }
    } catch (const std::invalid_argument& error) {
        // A flag value the library's config checks reject (e.g. --dt nan).
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    } catch (const std::exception& error) {
        // A failed library invariant (e.g. a per-epoch conservation check).
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    if (mode == "scenarios") {
        std::printf("Registered scenarios:\n%s", scenario_list_text().c_str());
        return 0;
    }
    std::fprintf(stderr, "unknown mode '%s'\n%s", mode.c_str(), cli.usage().c_str());
    return 1;
}
