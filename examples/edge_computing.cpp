/// Edge-computing scenario from the paper's motivation: a metro-area fleet
/// of edge servers fed by a large population of devices (the clients), whose
/// offered load follows a day / night / burst pattern — a 3-level Markov-
/// modulated arrival process. Queue-state broadcasts are periodic, so all
/// devices share the same stale view.
///
/// Demonstrates: custom arrival modulation (beyond the paper's 2 levels),
/// training one decision rule per load level, and inspecting how the
/// learned greediness adapts to load.
#include "core/mflb.hpp"

#include <cstdio>

int main() {
    using namespace mflb;

    // Day (0.85), night (0.4), flash-crowd burst (1.1 — temporarily above
    // service capacity). Bursts are rare but sticky.
    const Matrix modulation{
        {0.90, 0.07, 0.03}, // day -> day/night/burst
        {0.20, 0.79, 0.01}, // night
        {0.50, 0.00, 0.50}, // burst
    };
    const ArrivalProcess arrivals({0.85, 0.40, 1.10}, modulation, {1.0, 0.0, 0.0});
    std::printf("Edge fleet load model: day/night/burst levels (0.85, 0.40, 1.10),\n"
                "stationary mix = (%.2f, %.2f, %.2f), long-run offered load %.3f\n\n",
                arrivals.stationary()[0], arrivals.stationary()[1], arrivals.stationary()[2],
                arrivals.mean_rate());

    MfcConfig mfc;
    mfc.dt = 4.0;      // queue states broadcast every 4 time units
    mfc.horizon = 50;
    mfc.arrivals = arrivals;

    std::printf("Training one routing rule per load level on the mean-field MDP...\n");
    rl::CemConfig cem;
    cem.population = 32;
    cem.elites = 6;
    cem.generations = 25;
    const CemTrainingResult trained = train_tabular_cem(mfc, cem, 2, /*seed=*/11);

    // Deploy on a finite fleet: 150 edge servers, 22500 devices.
    FiniteSystemConfig fleet;
    fleet.dt = mfc.dt;
    fleet.arrivals = arrivals;
    fleet.num_queues = 150;
    fleet.num_clients = 22500;
    fleet.horizon = 60;
    const TupleSpace space(fleet.queue.num_states(), fleet.d);

    const std::size_t episodes = 15;
    const EvaluationResult mf =
        evaluate_backend(SimBackend::Finite, fleet, trained.policy, episodes, 8);
    const EvaluationResult jsq =
        evaluate_backend(SimBackend::Finite, fleet, make_jsq_policy(space), episodes, 8);
    const EvaluationResult rnd =
        evaluate_backend(SimBackend::Finite, fleet, make_rnd_policy(space), episodes, 8);

    Table table({"policy", "drops/server", "mean fill", "utilization"});
    table.row()
        .cell("MF (per-level rules)")
        .cell_ci(mf.total_drops.mean, mf.total_drops.half_width)
        .cell(mf.mean_queue_length.mean, 3)
        .cell(mf.utilization.mean, 3);
    table.row()
        .cell("JSQ(2)")
        .cell_ci(jsq.total_drops.mean, jsq.total_drops.half_width)
        .cell(jsq.mean_queue_length.mean, 3)
        .cell(jsq.utilization.mean, 3);
    table.row()
        .cell("RND")
        .cell_ci(rnd.total_drops.mean, rnd.total_drops.half_width)
        .cell(rnd.mean_queue_length.mean, 3)
        .cell(rnd.utilization.mean, 3);
    std::printf("\nFleet evaluation (M=150 servers, N=22500 devices, dt=4):\n%s\n",
                table.to_text().c_str());

    // How greedy is the learned rule at each load level? Measure the mass it
    // puts on the shorter sampled queue, averaged over unequal tuples.
    std::printf("Learned greediness per load level (mass on the shorter queue):\n");
    for (std::size_t level = 0; level < arrivals.num_states(); ++level) {
        const DecisionRule rule = trained.policy.rule_for(level);
        double greedy_mass = 0.0;
        int count = 0;
        std::vector<int> tuple(2);
        for (std::size_t idx = 0; idx < space.size(); ++idx) {
            space.decode(idx, tuple);
            if (tuple[0] == tuple[1]) {
                continue;
            }
            greedy_mass += rule.prob(idx, tuple[0] < tuple[1] ? 0 : 1);
            ++count;
        }
        static const char* kNames[] = {"day  ", "night", "burst"};
        std::printf("  %s (lambda=%.2f): %.3f  (1.0 = pure JSQ, 0.5 = pure RND)\n",
                    kNames[level], arrivals.level(level), greedy_mass / count);
    }
    return 0;
}
