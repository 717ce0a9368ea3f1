/// Heterogeneous servers — the extension the paper's discussion names first.
/// A cluster mixes one generation of slow machines with one of fast ones;
/// jobs sample d = 2 servers and see (stale) queue fills plus the servers'
/// advertised speeds. Shortest-Expected-Delay (`sed-d`) exploits the speeds;
/// `jsq-d` ignores them; `random` ignores everything. All three are
/// job-stream routers on `FiniteSystem` (see queueing/router.hpp).
#include "core/mflb.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

int main() {
    using namespace mflb;

    // Start from the registry's "heterogeneous" scenario, then reshape the
    // fleet for this walkthrough's narrative:
    // 200 servers: 60% legacy (0.5 jobs/unit), 40% current-gen (1.75).
    FiniteSystemConfig config = scenario_or_die("heterogeneous").experiment.finite_system();
    config.num_queues = 200;
    config.server_speeds.assign(200, 0.5);
    std::fill(config.server_speeds.begin() + 120, config.server_speeds.end(), 1.75);
    const double capacity = config.queue.service_rate *
                            std::accumulate(config.server_speeds.begin(),
                                            config.server_speeds.end(), 0.0);
    std::printf("Cluster: 200 servers (120 x 0.5 + 80 x 1.75 = %.0f total capacity),\n"
                "offered load %.1f jobs/unit, dt=%.1f, d=%d\n\n",
                capacity, 200 * config.arrivals.mean_rate(), config.dt, config.router.d);

    Table table({"router", "drops/server (95% CI)", "mean fill"});
    const int episodes = 12;
    for (const RouterKind kind : {RouterKind::SedD, RouterKind::JsqD, RouterKind::Random}) {
        config.router.kind = kind;
        RunningStat drops, fill;
        for (int rep = 0; rep < episodes; ++rep) {
            FiniteSystem system(config);
            Rng rng(100 + rep);
            system.reset(rng);
            const EpisodeStats stats = system.run_episode(rng);
            drops.add(stats.total_drops_per_queue);
            fill.add(stats.mean_queue_length);
        }
        const auto ci = confidence_interval_95(drops);
        const std::string name(router_name(kind));
        table.row().cell(name).cell_ci(ci.mean, ci.half_width).cell(fill.mean(), 3);
        std::fprintf(stderr, "[hetero] %s done\n", name.c_str());
    }
    std::printf("%s\n", table.to_text().c_str());
    std::printf("Reading: sed-d routes long-but-fast over short-but-slow queues and\n"
                "drops the fewest jobs; jsq-d wastes the fast tier; random is the floor.\n"
                "Extending the learned mean-field policy to (state, class) tuples is\n"
                "the natural next step the paper sketches in its discussion.\n");
    return 0;
}
