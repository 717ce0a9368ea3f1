/// Quickstart: simulate a delayed-information load-balancing cluster and
/// compare the classic JSQ(2) and RND dispatch policies.
///
/// The setting is the paper's: M finite-buffer queues, N clients that only
/// see queue states refreshed every Δt time units, jobs arriving at a
/// Markov-modulated rate. With Δt = 5 the stale snapshots make JSQ(2) herd
/// onto the momentarily-shortest queues, and random dispatch is already
/// competitive — the motivation for learning a policy in between (see
/// examples/train_and_deploy.cpp).
#include "core/mflb.hpp"

#include <cstdio>

int main() {
    using namespace mflb;

    // 1. Configure the system: resolve the paper's Table 1 baseline from the
    //    scenario registry, then override the knobs this walkthrough varies.
    ExperimentConfig config = scenario_or_die("table1").experiment;
    config.dt = 5.0;          // queue states are broadcast every 5 time units
    config.eval_total_time = 250.0;

    std::printf("System: M=%zu queues (buffer B=%d), N=%llu clients, dt=%.1f\n\n",
                config.num_queues, config.queue.buffer,
                static_cast<unsigned long long>(config.num_clients), config.dt);

    // 2. Build the two baseline dispatch policies over Z^d tuples.
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy jsq = make_jsq_policy(space);
    const FixedRulePolicy rnd = make_rnd_policy(space);

    // 3. Monte Carlo evaluation with 95% confidence intervals.
    const std::size_t episodes = 20;
    const EvaluationResult jsq_result =
        evaluate_backend(SimBackend::Finite, config.finite_system(), jsq, episodes, /*seed=*/1);
    const EvaluationResult rnd_result =
        evaluate_backend(SimBackend::Finite, config.finite_system(), rnd, episodes, /*seed=*/1);

    Table table({"policy", "total drops/queue", "mean queue length", "utilization"});
    table.row()
        .cell(jsq.name())
        .cell_ci(jsq_result.total_drops.mean, jsq_result.total_drops.half_width)
        .cell(jsq_result.mean_queue_length.mean, 3)
        .cell(jsq_result.utilization.mean, 3);
    table.row()
        .cell(rnd.name())
        .cell_ci(rnd_result.total_drops.mean, rnd_result.total_drops.half_width)
        .cell(rnd_result.mean_queue_length.mean, 3)
        .cell(rnd_result.utilization.mean, 3);
    std::printf("%s\n", table.to_text().c_str());

    // 4. Peek at one trajectory: empirical queue-state distribution drift.
    FiniteSystem system(config.finite_system());
    Rng rng(7);
    system.reset(rng);
    for (int t = 0; t < 5; ++t) {
        system.step(jsq, rng);
    }
    std::printf("Queue-state histogram after 5 epochs under %s:\n", jsq.name().c_str());
    const auto hist = system.empirical_distribution();
    for (std::size_t z = 0; z < hist.size(); ++z) {
        std::printf("  %zu jobs: %5.1f%%  ", z, 100.0 * hist[z]);
        const int bar = static_cast<int>(hist[z] * 50);
        for (int i = 0; i < bar; ++i) {
            std::printf("#");
        }
        std::printf("\n");
    }
    std::printf("\nNext: examples/train_and_deploy trains a mean-field policy that beats\n"
                "both baselines at this synchronization delay.\n");
    return 0;
}
