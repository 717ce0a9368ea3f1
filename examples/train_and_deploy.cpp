/// Offline-train / online-deploy workflow (the paper's intended usage):
///  1. train an upper-level mean-field policy on the exact MFC MDP — cheap,
///     no cluster needed, complexity independent of N and M;
///  2. persist it to disk;
///  3. reload and deploy it in a (simulated) finite cluster, where every
///     client evaluates the shared policy on the broadcast queue-state
///     histogram and routes its own jobs through the resulting rule.
#include "core/mflb.hpp"

#include <cstdio>

int main() {
    using namespace mflb;
    const double dt = 5.0;

    // --- 1. offline training on the mean-field MDP -------------------------
    ExperimentConfig experiment = scenario_or_die("table1").experiment;
    experiment.dt = dt;
    MfcConfig train_config = experiment.mfc(/*eval_horizon_instead=*/true);
    train_config.horizon = 60; // keep the example snappy

    std::printf("Training MF policy on the mean-field MDP (dt=%.1f)...\n", dt);
    rl::CemConfig cem;
    cem.population = 32;
    cem.elites = 6;
    cem.generations = 25;
    const CemTrainingResult trained = train_tabular_cem(train_config, cem, 2, /*seed=*/42);
    std::printf("  best mean-field return during search: %.3f\n\n", trained.best_return);

    // --- 2. persist --------------------------------------------------------
    const std::string path = "/tmp/mflb_example_policy.txt";
    trained.policy.to_archive().save(path);
    std::printf("Policy saved to %s\n", path.c_str());

    // --- 3. reload and deploy in the finite cluster ------------------------
    const TabularPolicy deployed = TabularPolicy::from_archive(Archive::load(path));
    experiment.num_queues = 200;
    experiment.num_clients = 40000; // N = M^2
    experiment.eval_total_time = 250.0;
    const FiniteSystemConfig cluster = experiment.finite_system();
    const TupleSpace space(experiment.queue.num_states(), experiment.d);

    const std::size_t episodes = 15;
    const EvaluationResult mf =
        evaluate_backend(SimBackend::Finite, cluster, deployed, episodes, 3);
    const EvaluationResult jsq =
        evaluate_backend(SimBackend::Finite, cluster, make_jsq_policy(space), episodes, 3);
    const EvaluationResult rnd =
        evaluate_backend(SimBackend::Finite, cluster, make_rnd_policy(space), episodes, 3);

    Table table({"policy", "total drops/queue (95% CI)"});
    table.row().cell("MF (learned, deployed)").cell_ci(mf.total_drops.mean,
                                                       mf.total_drops.half_width);
    table.row().cell("JSQ(2)").cell_ci(jsq.total_drops.mean, jsq.total_drops.half_width);
    table.row().cell("RND").cell_ci(rnd.total_drops.mean, rnd.total_drops.half_width);
    std::printf("\nDeployment on M=%zu, N=%llu, dt=%.1f:\n%s\n", experiment.num_queues,
                static_cast<unsigned long long>(experiment.num_clients), dt,
                table.to_text().c_str());

    // Show what the policy actually learned: its routing rule for a few
    // observed state tuples under the high arrival rate.
    std::printf("Learned rule h(u=1 | (z1, z2)) under lambda_high (probability of\n"
                "routing to the FIRST sampled queue):\n");
    const DecisionRule rule = deployed.rule_for(0);
    for (const auto& [a, b] : {std::pair{0, 1}, {0, 3}, {1, 2}, {2, 2}, {4, 5}}) {
        const std::vector<int> tuple{a, b};
        const std::size_t idx = space.index_of(tuple);
        std::printf("  observed (%d, %d): %.3f  (JSQ would say %.1f, RND 0.5)\n", a, b,
                    rule.prob(idx, 0), a < b ? 1.0 : (a == b ? 0.5 : 0.0));
    }
    std::printf("\n(The learned policy hedges between greedy and uniform routing —\n"
                " exactly the paper's point about intermediate synchronization delays.)\n");
    return 0;
}
