/// bench_des_scale — how far each finite-system backend scales.
///
/// The experiment is fleet scale-out at fixed traffic: a client population
/// generating a fixed total job rate (--lambda-total, default 750 jobs/unit
/// — the Table-1 load of a 1000-queue cluster) is spread over ever more
/// queues M. Per-queue load shrinks as 1/M, which is exactly the regime the
/// event-driven backend exists for: the epoch engine still walks all M
/// queues every Δt (an idle queue costs a load and a compare once the
/// InfiniteClients idle thinning skips it), while DES cost tracks the
/// (fixed) event count. Five parts:
///
///  1. M-sweep, both backends, one episode each (InfiniteClients — the
///     mean-field client model whose cost is N-independent; DES realizes it
///     by per-job d-sampling). Reports per-episode wall clocks, the speedup
///     at every M including M = 10^5, and the largest M each backend
///     finishes inside --budget seconds.
///  2. N-sweep at M = 10^4 with the exact finite-N Aggregated client model
///     (multinomial client counts) up to N = 10^6 on the DES backend.
///  3. A sojourn showcase: DES per-job p50/p95/p99 at M = 10^4.
///  4. Thread/shard scaling of the sharded backend on the `large-n`
///     configuration (M = 10^4, N = 10^6): one episode per thread count in
///     {1, 2, 4, 8} against the single-threaded unsharded DES baseline,
///     with per-point `sharded_speedup_*` rows — and the fused barrier's
///     serial/parallel wall-clock split (`sharded_barrier_*` rows, the
///     Amdahl accounting of the epoch barrier) — in the --json artifact.
///  5. Sharded episodes at M = 10^7 queues (InfiniteClients, short horizon)
///     at K = 8 and K = 32 shards: guards that the epoch barrier keeps
///     ten-million-queue epochs tractable (`sharded_episode_*` rows) and
///     that its irreducibly serial share stays low
///     (`sharded_barrier_serial_fraction_*`).
///
/// All timings are appended to --json for the CI benchmark artifact.
#include "bench_common.hpp"
#include "des/des_system.hpp"
#include "support/trace.hpp"

#include <array>
#include <cmath>
#include <stdexcept>
#include <thread>

namespace {

using namespace mflb;

/// The scale-out configuration at M queues: two-level modulated arrivals
/// whose levels are scaled so the *total* offered load stays fixed.
FiniteSystemConfig scale_config(std::size_t m, double lambda_total, double dt, int horizon,
                                ClientModel model, std::uint64_t n) {
    FiniteSystemConfig config;
    // Table-1 levels are (0.9, 0.6) per queue, mean 0.75; keep their ratio
    // and modulation, scale the magnitude to lambda_total / M.
    const double scale = lambda_total / (0.75 * static_cast<double>(m));
    config.arrivals = ArrivalProcess::paper_two_state(0.9 * scale, 0.6 * scale);
    config.dt = dt;
    config.horizon = horizon;
    config.num_queues = m;
    config.num_clients = n;
    config.client_model = model;
    return config;
}

struct EpisodeRun {
    double seconds = 0.0;
    double drops_per_queue = 0.0;
    std::uint64_t events = 0; ///< arrivals (accepted + dropped) + departures.

    double events_per_second() const {
        return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
    }
};

template <class System>
EpisodeRun run_one_episode(const FiniteSystemConfig& config, const DecisionRule& rule,
                           std::uint64_t seed) {
    System system(config);
    Rng rng(seed);
    system.reset(rng);
    const trace::Stopwatch watch;
    EpisodeRun out;
    while (!system.done()) {
        const EpochStats stats = system.step_with_rule(rule, rng);
        out.drops_per_queue += stats.drops_per_queue;
        out.events += stats.accepted_packets + stats.dropped_packets + stats.served_packets;
    }
    out.seconds = watch.seconds();
    return out;
}

/// Sharded episode with the backend's own barrier accounting attached: how
/// much wall clock the epochs spent in the RNG prologue + reduction tail, in
/// the deterministic epoch compute (policy query, routing or rate table —
/// also serial on the calling thread, but reported apart) and in the
/// parallel shard loops — the Amdahl split that bounds thread scaling.
struct ShardedRun {
    EpisodeRun episode;
    double serial_s = 0.0;  ///< prologue + reduction (serial_seconds()).
    double overlap_s = 0.0; ///< deterministic epoch compute.
    double parallel_s = 0.0;

    double serial_fraction() const {
        const double total = serial_s + overlap_s + parallel_s;
        return total > 0.0 ? serial_s / total : 0.0;
    }
};

ShardedRun run_sharded_episode(const FiniteSystemConfig& config, const DecisionRule& rule,
                               std::uint64_t seed) {
    FiniteSystem system(config);
    Rng rng(seed);
    system.reset(rng);
    const trace::Stopwatch watch;
    ShardedRun out;
    while (!system.done()) {
        const EpochStats stats = system.step_with_rule(rule, rng);
        out.episode.drops_per_queue += stats.drops_per_queue;
        out.episode.events +=
            stats.accepted_packets + stats.dropped_packets + stats.served_packets;
    }
    out.episode.seconds = watch.seconds();
    out.serial_s = system.barrier_profile().serial_seconds();
    out.overlap_s = system.barrier_profile().overlapped_compute_seconds;
    out.parallel_s = system.barrier_profile().parallel_seconds;
    return out;
}

} // namespace

int main(int argc, char** argv) {
    CliParser cli("bench_des_scale: event-driven vs epoch-synchronous backend scaling in M and N");
    cli.flag_bool("full", false, "Longer episodes (500 time units instead of 50)");
    cli.flag_double("lambda-total", 750.0, "Total offered load (jobs/unit) spread over M queues");
    cli.flag_double("dt", 1.0, "Synchronization delay");
    cli.flag_double("budget", 0.25, "Per-episode wall-clock budget (s) for the max-M search");
    cli.flag_int("shards", 8, "Queue shards K for the sharded scaling sweep");
    cli.flag_int_list("threads", "1,2,4,8", "Thread counts for the sharded scaling sweep");
    cli.flag_int("seed", 1, "Seed");
    cli.flag("json", "", "Optional JSON timings output path");
    if (!cli.parse(argc, argv)) {
        return cli.exit_code();
    }
    const bool full = cli.get_bool("full");
    const double lambda_total = cli.get_double("lambda-total");
    const double dt = cli.get_double("dt");
    const double budget = cli.get_double("budget");
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const double total_time = full ? 500.0 : 50.0;
    const int horizon = MfcConfig::horizon_for_total_time(total_time, dt);
    try {
        // Every configuration below scales the same arrival levels, so one
        // check rejects a bad --lambda-total before any timing starts.
        (void)scale_config(1000, lambda_total, dt, horizon, ClientModel::InfiniteClients, 0);
    } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    }

    bench::print_header("DES scale sweep",
                        "Fixed total load spread over M queues: event count stays constant, "
                        "per-epoch O(M) work does not",
                        full);
    bench::TimingLog timings("des_scale");

    const TupleSpace space(QueueParams{}.num_states(), 2);
    const DecisionRule jsq = DecisionRule::mf_jsq(space);
    char label[96];

    // --- 1. M-sweep at fixed total load, both backends --------------------
    std::printf("M-sweep: lambda_total=%.0f, dt=%.1f, %d epochs, JSQ(2), InfiniteClients\n",
                lambda_total, dt, horizon);
    Table table({"M", "finite (s/episode)", "des (s/episode)", "speedup", "drops/queue des"});
    // Half-decade grid: the DES episode time is nearly flat in M (the event
    // count is fixed by the total load), so it keeps going where the
    // epoch-synchronous backend has long blown the budget. The top point is
    // exactly 10 x 316228 so a one-decade separation reports as 10.0x.
    const std::vector<std::size_t> ms{1000, 10000, 100000, 316228, 1000000, 3162280};
    std::size_t max_m_finite = 0;
    std::size_t max_m_des = 0;
    double speedup_at_1e5 = 0.0;
    bool speedup_at_1e5_is_bound = false;
    bool finite_over_budget = false;
    for (const std::size_t m : ms) {
        const FiniteSystemConfig config =
            scale_config(m, lambda_total, dt, horizon, ClientModel::InfiniteClients, 10 * m);

        // Once the epoch-synchronous backend blows the budget, larger M only
        // gets slower — stop timing it and treat its time as > budget.
        double finite_seconds = std::nan("");
        if (!finite_over_budget) {
            const EpisodeRun finite = run_one_episode<FiniteSystem>(config, jsq, seed);
            finite_seconds = finite.seconds;
            std::snprintf(label, sizeof(label), "finite_episode_M=%zu", m);
            timings.record(label, finite.seconds);
            if (finite.seconds <= budget) {
                max_m_finite = m;
            } else {
                finite_over_budget = true;
            }
        }

        const EpisodeRun des = run_one_episode<DesSystem>(config, jsq, seed);
        std::snprintf(label, sizeof(label), "des_episode_M=%zu", m);
        timings.record(label, des.seconds);
        // Throughput rows (events/sec; "event_rate" rows are bigger-is-better
        // in check-bench-regression.sh): the quantity the calendar FEL buys.
        std::snprintf(label, sizeof(label), "event_rate_des_M=%zu", m);
        timings.record(label, des.events_per_second());
        if (des.seconds <= budget) {
            max_m_des = m;
        }
        // When the finite run was skipped, `budget / des` is a lower bound.
        const double speedup =
            std::isnan(finite_seconds) ? budget / des.seconds : finite_seconds / des.seconds;
        if (m == 100000) {
            speedup_at_1e5 = speedup;
            speedup_at_1e5_is_bound = std::isnan(finite_seconds);
        }
        char cell[32];
        table.row().cell(static_cast<std::int64_t>(m));
        if (std::isnan(finite_seconds)) {
            table.cell(std::string("> budget"));
        } else {
            table.cell(finite_seconds, 4);
        }
        std::snprintf(cell, sizeof(cell), "%s%.1fx", std::isnan(finite_seconds) ? ">= " : "",
                      speedup);
        table.cell(des.seconds, 4).cell(std::string(cell)).cell(des.drops_per_queue, 4);
    }
    std::printf("%s\n", table.to_text().c_str());
    const double m_ratio = max_m_finite > 0 ? static_cast<double>(max_m_des) /
                                                  static_cast<double>(max_m_finite)
                                            : 0.0;
    std::printf("largest M within %.2fs budget: finite %zu, des %zu -> %.1fx more queues %s\n",
                budget, max_m_finite, max_m_des, m_ratio,
                m_ratio >= 10.0 ? "(>= 10x: DES scale goal met)" : "");
    std::printf("speedup at M=10^5: %s%.1fx\n\n", speedup_at_1e5_is_bound ? ">= " : "",
                speedup_at_1e5);

    // --- 1b. FEL A/B: binary-heap vs calendar future event list -----------
    {
        // Same workload, same seed, results bit-identical by the FEL
        // determinism contract — only the event-engine data structure
        // changes. M = 10^5 pending events is deep enough that the heap's
        // O(log n) sift shows; the "speedup" row is bigger-is-better in CI.
        const std::size_t m = 100000;
        FiniteSystemConfig config =
            scale_config(m, lambda_total, dt, horizon, ClientModel::InfiniteClients, 10 * m);
        config.fel = FelKind::Heap;
        const EpisodeRun heap = run_one_episode<DesSystem>(config, jsq, seed);
        timings.record("des_episode_fel=heap_M=100000", heap.seconds);
        config.fel = FelKind::Calendar;
        const EpisodeRun calendar = run_one_episode<DesSystem>(config, jsq, seed);
        timings.record("des_episode_fel=calendar_M=100000", calendar.seconds);
        const double fel_speedup =
            calendar.seconds > 0.0 ? heap.seconds / calendar.seconds : 0.0;
        timings.record("fel_speedup_M=100000", fel_speedup);
        std::printf("FEL A/B at M=10^5: heap %.3f s, calendar %.3f s (%.2fx), "
                    "drops/queue %s\n\n",
                    heap.seconds, calendar.seconds, fel_speedup,
                    heap.drops_per_queue == calendar.drops_per_queue ? "bit-identical"
                                                                     : "MISMATCH");
    }

    // --- 2. N-sweep: exact finite-N client aggregation on DES -------------
    {
        const std::size_t m = 10000;
        std::printf("N-sweep at M=%zu (Aggregated client model, DES backend):\n", m);
        for (const std::uint64_t n : {std::uint64_t{10000}, std::uint64_t{100000},
                                      std::uint64_t{1000000}}) {
            const FiniteSystemConfig config =
                scale_config(m, lambda_total, dt, horizon, ClientModel::Aggregated, n);
            const EpisodeRun des = run_one_episode<DesSystem>(config, jsq, seed);
            std::snprintf(label, sizeof(label), "des_episode_M=%zu_N=%llu", m,
                          static_cast<unsigned long long>(n));
            timings.record(label, des.seconds);
            std::printf("  N=%-8llu %.3f s/episode, drops/queue %.4f\n",
                        static_cast<unsigned long long>(n), des.seconds, des.drops_per_queue);
        }
        std::printf("\n");
    }

    // --- 3. Per-job sojourn percentiles on the event-driven backend -------
    {
        FiniteSystemConfig config = scale_config(10000, lambda_total, dt, horizon,
                                                 ClientModel::InfiniteClients, 1000000);
        config.track_sojourn = true;
        DesSystem system(config);
        Rng rng(seed);
        system.reset(rng);
        const trace::Stopwatch watch;
        std::uint64_t completed = 0;
        double sojourn_weighted = 0.0;
        while (!system.done()) {
            const EpochStats stats = system.step_with_rule(jsq, rng);
            completed += stats.completed_jobs;
            sojourn_weighted += stats.mean_sojourn * static_cast<double>(stats.completed_jobs);
        }
        timings.record("des_sojourn_episode_M=10000", watch.seconds());
        const std::array<double, 3> q = system.sojourn_percentiles();
        std::printf("sojourn times at M=10^4 (%llu completed jobs):\n"
                    "  p50 %.3f   p95 %.3f   p99 %.3f   mean %.3f\n",
                    static_cast<unsigned long long>(completed), q[0], q[1], q[2],
                    completed > 0 ? sojourn_weighted / static_cast<double>(completed) : 0.0);
    }

    // --- 4. Sharded backend: thread scaling on the large-n configuration --
    {
        // The acceptance configuration: the registry's `large-n` workload
        // (M = 10^4 queues, N = 10^6 Aggregated clients, dt = 5) — the
        // single-threaded unsharded DES is the baseline every sharded point
        // is measured against.
        FiniteSystemConfig config = scenario_or_die("large-n").experiment.finite_system();
        const auto shards = static_cast<std::size_t>(cli.get_int("shards"));
        std::printf("sharded scaling at M=%zu, N=%llu (large-n config), K=%zu shards:\n",
                    config.num_queues, static_cast<unsigned long long>(config.num_clients),
                    shards);
        const EpisodeRun baseline = run_one_episode<DesSystem>(config, jsq, seed);
        timings.record("sharded_baseline_des_episode", baseline.seconds);
        std::printf("  unsharded DES baseline (1 thread): %.3f s/episode, drops/queue %.4f\n",
                    baseline.seconds, baseline.drops_per_queue);

        config.shards = shards;
        Table scaling({"threads", "sharded (s/episode)", "speedup vs DES", "serial frac",
                       "drops/queue"});
        for (const std::int64_t t : cli.get_int_list("threads")) {
            config.threads = static_cast<std::size_t>(t);
            const ShardedRun run = run_sharded_episode(config, jsq, seed);
            const double speedup = baseline.seconds / run.episode.seconds;
            std::snprintf(label, sizeof(label), "sharded_episode_K=%zu_T=%lld", shards,
                          static_cast<long long>(t));
            timings.record(label, run.episode.seconds);
            // Speedup rows: the value column carries the ratio, not seconds,
            // so the CI artifact tracks scaling directly.
            std::snprintf(label, sizeof(label), "sharded_speedup_K=%zu_T=%lld", shards,
                          static_cast<long long>(t));
            timings.record(label, speedup);
            // Barrier-cost rows: the serial/parallel wall-clock split of the
            // epoch barrier (Amdahl accounting; "fraction" rows are ratios,
            // not seconds, and are skipped by check-bench-regression.sh).
            std::snprintf(label, sizeof(label), "sharded_barrier_serial_s_K=%zu_T=%lld",
                          shards, static_cast<long long>(t));
            timings.record(label, run.serial_s);
            std::snprintf(label, sizeof(label), "sharded_barrier_parallel_s_K=%zu_T=%lld",
                          shards, static_cast<long long>(t));
            timings.record(label, run.parallel_s);
            std::snprintf(label, sizeof(label), "sharded_barrier_overlap_s_K=%zu_T=%lld",
                          shards, static_cast<long long>(t));
            timings.record(label, run.overlap_s);
            std::snprintf(label, sizeof(label),
                          "sharded_barrier_serial_fraction_K=%zu_T=%lld", shards,
                          static_cast<long long>(t));
            timings.record(label, run.serial_fraction());
            char cell[32];
            std::snprintf(cell, sizeof(cell), "%.2fx", speedup);
            char frac[32];
            std::snprintf(frac, sizeof(frac), "%.3f", run.serial_fraction());
            scaling.row()
                .cell(t)
                .cell(run.episode.seconds, 4)
                .cell(std::string(cell))
                .cell(std::string(frac))
                .cell(run.episode.drops_per_queue, 4);
        }
        std::printf("%s", scaling.to_text().c_str());
        std::printf("(hardware: %u threads available; results are identical across thread "
                    "counts by the (seed, K) determinism contract)\n\n",
                    std::thread::hardware_concurrency());
    }

    // --- 5. Barrier headroom: M = 10^7 queues ----------------------------
    {
        // Ten million queues under the fixed total load, InfiniteClients (no
        // per-client state), short horizon: the point is that the epoch
        // barrier — a |Z|-sized rate table instead of an 80 MB per-queue
        // law, the shard tasks' idle thinning, which skips idle queues
        // geometrically, and an O(K·|Z|) fold over the shards — keeps the
        // O(M) epoch cost tractable at a fleet size three decades past the
        // epoch-synchronous backend's budget. The serial-fraction row tracks
        // how much of the barrier remains serial. K = 8 is the default shard
        // count; K = 32 repeats the episode with more, shorter shards.
        const std::size_t m = 10000000;
        const int short_horizon = MfcConfig::horizon_for_total_time(5.0, dt);
        FiniteSystemConfig config = scale_config(m, lambda_total, dt, short_horizon,
                                                 ClientModel::InfiniteClients, 0);
        for (const std::size_t k : {std::size_t{8}, std::size_t{32}}) {
            config.shards = k;
            const ShardedRun run = run_sharded_episode(config, jsq, seed);
            const char* suffix = k == 8 ? "M=10000000" : "K=32_M=10000000";
            std::snprintf(label, sizeof(label), "sharded_episode_%s", suffix);
            timings.record(label, run.episode.seconds);
            if (k == 8) {
                timings.record("event_rate_sharded_M=10000000",
                               run.episode.events_per_second());
            }
            std::snprintf(label, sizeof(label), "sharded_barrier_serial_fraction_%s",
                          suffix);
            timings.record(label, run.serial_fraction());
            std::printf("sharded episode at M=10^7 (K=%zu, %d epochs): %.3f s (serial "
                        "fraction %.3f), drops/queue %.4f\n",
                        k, short_horizon, run.episode.seconds, run.serial_fraction(),
                        run.episode.drops_per_queue);
        }
    }

    timings.write(cli.get("json"));
    if (!cli.get("json").empty()) {
        std::printf("\ntimings written to %s\n", cli.get("json").c_str());
    }
    return 0;
}
