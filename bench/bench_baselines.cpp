/// bench_baselines — the learned mean-field policy against the classical
/// routing fleet (random, round-robin, JSQ, JSQ(d), SQ over a stale
/// snapshot), on the event-driven backend where per-job sojourn percentiles
/// and blocking fractions are observable. Three parts:
///
///  1. Fleet comparison at M = 10^2 .. 10^3 (10^4 with --full): every
///     classical router vs the learned-MFC stand-in (the best Boltzmann-beta
///     greedy-softmax rule on the exact mean-field objective) at the same
///     (dt, load). The headline: classical JSQ herds badly on a dt-stale
///     snapshot, while the learned rule spreads arrivals.
///  2. Staleness sweep: SQ(stale) as its refresh period grows from 0 (exact
///     JSQ) to many epochs, vs the MFC stand-in at fixed dt.
///  3. Heavy-tail sweep: bounded-Pareto service with tail index alpha,
///     comparing routers as variability explodes (alpha -> 1).
///
/// Every cell appends JSON rows (drops/queue, blocking, mean queue length,
/// sojourn p50/p95/p99) to --json for the CI benchmark artifact.
#include "bench_common.hpp"

#include <array>
#include <cmath>

namespace {

using namespace mflb;

/// Per-cell outcome: CI aggregates over the replications.
struct CellStats {
    ConfidenceInterval drops;    ///< total drops per queue (Fig. 4-6 metric)
    ConfidenceInterval blocking; ///< dropped / offered fraction
    ConfidenceInterval fill;     ///< time-averaged queue length
    ConfidenceInterval p50, p95, p99;
};

/// Runs `episodes` independent DES replications of `experiment` under
/// `policy` (the router in `experiment.router` bypasses the policy when it
/// is a classical kind — the policy argument is then inert).
CellStats run_cell(const ExperimentConfig& experiment, const UpperLevelPolicy& policy,
                   std::size_t episodes, std::uint64_t seed, std::size_t threads) {
    FiniteSystemConfig config = experiment.finite_system();
    config.track_sojourn = true;
    const auto rows = run_replications(
        episodes, seed, threads, [&](std::size_t, Rng& rng) -> std::array<double, 6> {
            DesSystem system(config);
            system.reset(rng);
            const EpisodeStats ep = system.run_episode(policy, rng);
            const double offered =
                static_cast<double>(ep.dropped_packets + ep.accepted_packets);
            const double blocking =
                offered > 0.0 ? static_cast<double>(ep.dropped_packets) / offered : 0.0;
            return {ep.total_drops_per_queue, blocking,       ep.mean_queue_length,
                    ep.sojourn_p50,           ep.sojourn_p95, ep.sojourn_p99};
        });
    auto ci_of = [&](std::size_t k) {
        RunningStat stat;
        for (const auto& row : rows) {
            stat.add(row[k]);
        }
        return confidence_interval_95(stat);
    };
    return {ci_of(0), ci_of(1), ci_of(2), ci_of(3), ci_of(4), ci_of(5)};
}

/// One comparison row: prints the table cells and appends the JSON rows.
void emit(bench::TimingLog& timings, Table& table, const std::string& cell_label,
          const std::string& json_prefix, const CellStats& s) {
    char percentiles[64];
    std::snprintf(percentiles, sizeof(percentiles), "%.2f / %.2f / %.2f", s.p50.mean,
                  s.p95.mean, s.p99.mean);
    table.row()
        .cell(cell_label)
        .cell(bench::ci_cell(s.drops))
        .cell(s.blocking.mean, 4)
        .cell(s.fill.mean, 3)
        .cell(std::string(percentiles));
    timings.record(json_prefix + "_drops", s.drops.mean);
    timings.record(json_prefix + "_blocking", s.blocking.mean);
    timings.record(json_prefix + "_mean_len", s.fill.mean);
    timings.record(json_prefix + "_sojourn_p50", s.p50.mean);
    timings.record(json_prefix + "_sojourn_p95", s.p95.mean);
    timings.record(json_prefix + "_sojourn_p99", s.p99.mean);
}

/// The classical fleet evaluated in every part; sq-stale uses the given
/// refresh period (time units).
std::vector<RouterSpec> classical_fleet(double stale_period) {
    RouterSpec random{RouterKind::Random, 2, 0.0};
    RouterSpec rr{RouterKind::RoundRobin, 2, 0.0};
    RouterSpec jsq{RouterKind::Jsq, 2, 0.0};
    RouterSpec jsqd{RouterKind::JsqD, 2, 0.0};
    RouterSpec sq_stale{RouterKind::SqStale, 2, stale_period};
    return {random, rr, jsq, jsqd, sq_stale};
}

std::string router_label(const RouterSpec& spec) {
    std::string label(router_name(spec.kind));
    if (spec.kind == RouterKind::SqStale) {
        char suffix[32];
        std::snprintf(suffix, sizeof(suffix), "(%.0f)", spec.stale_period);
        label += suffix;
    }
    return label;
}

} // namespace

int main(int argc, char** argv) {
    CliParser cli("bench_baselines: learned MFC vs the classical routing fleet "
                  "(staleness and heavy-tail sweeps)");
    cli.flag_bool("full", false, "Adds M=10^4 to the fleet sweep and triples episodes");
    cli.flag_double("dt", 2.0, "Synchronization delay (snapshot staleness)");
    cli.flag_int_list("m-list", "100,1000", "Queue counts for the fleet comparison");
    cli.flag_double("stale-period", 10.0, "sq-stale refresh period in parts 1 and 3");
    cli.flag_double_list("stale-periods", "0,2,6,10,20",
                         "Refresh periods for the staleness sweep (part 2)");
    cli.flag_double_list("pareto-alphas", "1.2,1.5,2,3",
                         "Tail indices for the heavy-tail sweep (part 3)");
    cli.flag_int("episodes", 5, "Replications per cell");
    bench::register_threads_flag(cli);
    cli.flag_int("seed", 1, "Seed");
    cli.flag("json", "", "Optional JSON metrics output path");
    if (!cli.parse(argc, argv)) {
        return cli.exit_code();
    }
    const bool full = cli.get_bool("full");
    const double dt = cli.get_double("dt");
    const std::size_t episodes =
        static_cast<std::size_t>(cli.get_int("episodes")) * (full ? 3 : 1);
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const std::size_t threads = bench::threads_from(cli);

    bench::print_header("Classical-baseline comparison",
                        "Learned MFC vs random / round-robin / JSQ / JSQ(d) / SQ(stale) "
                        "on the event-driven backend",
                        full);
    bench::TimingLog timings("baselines");
    char prefix[96];

    // The learned-MFC stand-in: the best Boltzmann-beta greedy-softmax rule
    // on the exact mean-field objective at this dt — the same warm start the
    // CEM/PPO trainers refine, cheap enough to fit the CI budget.
    ExperimentConfig base;
    base.dt = dt;
    base.backend = SimBackend::Des;
    const MfcConfig mfc = base.mfc(/*eval_horizon_instead=*/true);
    const TupleSpace space(mfc.queue.num_states(), mfc.d);
    const std::vector<double> beta_grid{0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
    const double beta = best_boltzmann_beta(mfc, beta_grid, 4, seed);
    const FixedRulePolicy mfc_policy = make_greedy_softmax_policy(space, beta);
    std::printf("MFC stand-in: greedy-softmax, best beta=%.2f at dt=%.1f\n\n", beta, dt);

    // --- 1. Fleet comparison across M -------------------------------------
    std::vector<std::int64_t> m_list = cli.get_int_list("m-list");
    if (full) {
        m_list.push_back(10000);
    }
    const double stale_period = cli.get_double("stale-period");
    for (const std::int64_t m : m_list) {
        ExperimentConfig experiment = base;
        experiment.num_queues = static_cast<std::size_t>(m);
        experiment.num_clients =
            static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(m);
        std::printf("fleet at M=%lld, N=M^2, dt=%.1f (%zu episodes):\n",
                    static_cast<long long>(m), dt, episodes);
        Table table({"router", "drops/queue (95% CI)", "blocking", "mean fill",
                     "sojourn p50/p95/p99"});
        std::snprintf(prefix, sizeof(prefix), "fleet_M=%lld_mfc", static_cast<long long>(m));
        emit(timings, table, "mfc (learned)", prefix,
             run_cell(experiment, mfc_policy, episodes, seed, threads));
        for (const RouterSpec& spec : classical_fleet(stale_period)) {
            experiment.router = spec;
            std::snprintf(prefix, sizeof(prefix), "fleet_M=%lld_%s",
                          static_cast<long long>(m),
                          std::string(router_name(spec.kind)).c_str());
            emit(timings, table, router_label(spec), prefix,
                 run_cell(experiment, mfc_policy, episodes, seed, threads));
        }
        std::printf("%s\n", table.to_text().c_str());
    }

    // --- 2. Staleness sweep: SQ(stale) vs MFC ------------------------------
    {
        ExperimentConfig experiment = base;
        std::printf("staleness sweep at M=%zu, dt=%.1f (sq-stale refresh period in time "
                    "units; 0 = exact JSQ):\n",
                    experiment.num_queues, dt);
        Table table({"router", "drops/queue (95% CI)", "blocking", "mean fill",
                     "sojourn p50/p95/p99"});
        emit(timings, table, "mfc (learned)", "stale_mfc",
             run_cell(experiment, mfc_policy, episodes, seed, threads));
        for (const double period : cli.get_double_list("stale-periods")) {
            experiment.router = RouterSpec{RouterKind::SqStale, 2, period};
            std::snprintf(prefix, sizeof(prefix), "stale_period=%g", period);
            emit(timings, table, router_label(experiment.router), prefix,
                 run_cell(experiment, mfc_policy, episodes, seed, threads));
        }
        std::printf("%s\n", table.to_text().c_str());
    }

    // --- 3. Heavy-tail sweep: bounded-Pareto service ------------------------
    {
        std::printf("heavy-tail sweep at M=%zu, dt=%.1f (bounded-Pareto service, cap "
                    "H/L=1000, mean fixed at 1/alpha):\n",
                    base.num_queues, dt);
        Table table({"cell", "drops/queue (95% CI)", "blocking", "mean fill",
                     "sojourn p50/p95/p99"});
        for (const double alpha : cli.get_double_list("pareto-alphas")) {
            ExperimentConfig experiment = base;
            experiment.service.kind = ServiceDistKind::BoundedPareto;
            experiment.service.pareto_alpha = alpha;
            char cell[64];
            std::snprintf(cell, sizeof(cell), "alpha=%.1f mfc", alpha);
            std::snprintf(prefix, sizeof(prefix), "pareto_alpha=%g_mfc", alpha);
            emit(timings, table, cell, prefix,
                 run_cell(experiment, mfc_policy, episodes, seed, threads));
            for (const RouterKind kind : {RouterKind::Jsq, RouterKind::Random}) {
                experiment.router = RouterSpec{kind, 2, 0.0};
                std::snprintf(cell, sizeof(cell), "alpha=%.1f %s", alpha,
                              std::string(router_name(kind)).c_str());
                std::snprintf(prefix, sizeof(prefix), "pareto_alpha=%g_%s", alpha,
                              std::string(router_name(kind)).c_str());
                emit(timings, table, cell, prefix,
                     run_cell(experiment, mfc_policy, episodes, seed, threads));
            }
        }
        std::printf("%s\n", table.to_text().c_str());
    }

    timings.write(cli.get("json"));
    if (!cli.get("json").empty()) {
        std::printf("metrics written to %s\n", cli.get("json").c_str());
    }
    return 0;
}
