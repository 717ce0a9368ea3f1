/// Extension bench: partial information about the queue-state distribution.
/// The paper (§2.1) notes that in practice clients may "estimate e.g. the
/// empirical queue state distribution by sampling a subset of random
/// queues" — this bench quantifies the cost of that estimate: a ν-dependent
/// policy (the DP greedy policy) is deployed with the histogram estimated
/// from K sampled queues, for K from 2 to exact, alongside ν-independent
/// references (whose performance cannot depend on K).
#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace mflb;
    CliParser cli("bench_ext_partial_info: sampled-histogram observations for the policy");
    cli.flag_bool("full", false, "More replications and a finer DP grid");
    cli.flag_double("dt", 5, "Synchronization delay");
    cli.flag_int("m", 100, "Number of queues");
    cli.flag_int_list("ks", "2,5,20,0", "Histogram sample sizes (0 = exact H^M)");
    cli.flag_int("seed", 11, "Seed");
    if (!cli.parse(argc, argv)) {
        return cli.exit_code();
    }
    const bool full = cli.get_bool("full");
    const std::size_t sims = full ? 50 : 12;

    // Registry's "partial-info" scenario; the K sweep overrides the sample
    // size per row below.
    ExperimentConfig experiment = scenario_or_die("partial-info").experiment;
    experiment.dt = cli.get_double("dt");
    experiment.num_queues = static_cast<std::size_t>(cli.get_int("m"));
    experiment.num_clients = experiment.num_queues * experiment.num_queues;

    bench::print_header("Extension: partial information",
                        "nu-dependent DP policy fed a K-sample estimate of H^M", full);

    // The DP policy is ν-dependent (it projects the observed histogram onto
    // its grid), so estimation noise actually matters for it.
    DpConfig dp;
    dp.resolution = full ? 8 : 6;
    const auto [dp_policy, dp_stats] = solve_mfc_dp(experiment.mfc(true), dp);
    std::fprintf(stderr, "[partial] DP solved (%zu states, %zu sweeps)\n", dp_stats.states,
                 dp_stats.sweeps);
    const TupleSpace space(experiment.queue.num_states(), experiment.d);
    const FixedRulePolicy jsq = make_jsq_policy(space);

    Table table({"K (sampled queues)", "MF-DP drops", "JSQ(2) drops (reference)"});
    for (const std::int64_t k : cli.get_int_list("ks")) {
        FiniteSystemConfig config = experiment.finite_system();
        config.histogram_sample_size = static_cast<std::size_t>(k);
        const EvaluationResult dp_eval =
            evaluate_backend(SimBackend::Finite, config, dp_policy, sims, cli.get_int("seed"));
        const EvaluationResult jsq_eval =
            evaluate_backend(SimBackend::Finite, config, jsq, sims, cli.get_int("seed"));
        table.row()
            .cell(k == 0 ? std::string("exact") : std::to_string(k))
            .cell(bench::ci_cell(dp_eval.total_drops))
            .cell(bench::ci_cell(jsq_eval.total_drops));
        std::fprintf(stderr, "[partial] K=%lld done\n", static_cast<long long>(k));
    }
    std::printf("%s", table.to_text().c_str());
    std::printf("\n(expected: the DP policy degrades gracefully as K shrinks — even a\n"
                " handful of sampled queues retains most of the benefit, because the\n"
                " policy mainly needs a coarse sense of how loaded the system is;\n"
                " the nu-independent JSQ reference is flat in K by construction)\n");
    return 0;
}
