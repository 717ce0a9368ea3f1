/// Ablation of the simulation substrate itself: validates that the exact
/// multinomial client aggregation (cost independent of N) matches literal
/// per-client simulation, and quantifies the speedup that makes the
/// N = 10^6 paper configurations tractable. Also compares against the
/// N = ∞ intermediate system of Section 2.2.
#include "bench_common.hpp"

#include <chrono>

int main(int argc, char** argv) {
    using namespace mflb;
    CliParser cli("bench_ablation_client_model: per-client vs aggregated vs infinite clients");
    cli.flag_bool("full", false, "More replications");
    cli.flag_int("m", 100, "Number of queues");
    cli.flag_double("dt", 5, "Synchronization delay");
    cli.flag_int("seed", 7, "Evaluation seed");
    if (!cli.parse(argc, argv)) {
        return cli.exit_code();
    }
    const bool full = cli.get_bool("full");
    const std::size_t sims = full ? 50 : 10;
    const auto m = static_cast<std::size_t>(cli.get_int("m"));

    bench::print_header("Ablation: client model",
                        "Exact aggregation vs literal per-client simulation vs N = infinity",
                        full);

    Table table({"client model", "N", "drops", "wall time (s)"});
    const TupleSpace space(6, 2);
    const FixedRulePolicy policy = make_jsq_policy(space);

    struct Case {
        ClientModel model;
        std::uint64_t clients;
        const char* name;
    };
    const std::uint64_t n_small = static_cast<std::uint64_t>(m) * m;
    const Case cases[] = {
        {ClientModel::PerClient, n_small, "per-client"},
        {ClientModel::Aggregated, n_small, "aggregated"},
        {ClientModel::Aggregated, 1000000, "aggregated"},
        {ClientModel::InfiniteClients, 0, "infinite-N"},
    };
    for (const Case& c : cases) {
        ExperimentConfig experiment;
        experiment.dt = cli.get_double("dt");
        experiment.num_queues = m;
        experiment.num_clients = c.clients == 0 ? 1 : c.clients;
        experiment.eval_total_time = 200.0;
        experiment.client_model = c.model;
        const auto start = std::chrono::steady_clock::now();
        const EvaluationResult result =
            evaluate_backend(SimBackend::Finite, experiment.finite_system(), policy, sims,
                             cli.get_int("seed"));
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        table.row()
            .cell(c.name)
            .cell(c.model == ClientModel::InfiniteClients
                      ? std::string("inf")
                      : std::to_string(c.clients))
            .cell(bench::ci_cell(result.total_drops))
            .cell(elapsed, 3);
        std::fprintf(stderr, "[client-model] %s N=%llu done (%.2fs)\n", c.name,
                     static_cast<unsigned long long>(c.clients), elapsed);
    }
    std::printf("%s", table.to_text().c_str());
    std::printf("\n(expected: per-client and aggregated agree within CI at equal N; the\n"
                " aggregated cost does not grow with N; infinite-N sits near both)\n");
    return 0;
}
