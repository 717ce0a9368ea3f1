/// \file perfbench.cpp
/// The repository benchmark: four workloads at the paper's operating point,
/// driven through the library's public API only.
///
///  - des-table1     `DesSystem`, M = 2·10⁴, InfiniteClients, Δt = 5, sojourn
///                   tracking on, one thread (event loop on a cache-resident
///                   fleet: d-sampling, calendar FEL, sojourn bookkeeping).
///  - sharded-table1 `ShardedDesSystem`, M = 10⁶, Aggregated N = 10⁸, Δt = 1,
///                   K = 8 shards on 4 threads (parallel shard loops over a
///                   fleet far larger than cache, O(M) barrier per epoch).
///  - finite-table1  `FiniteSystem`, M = 10⁴, Aggregated N = 10⁶, Δt = 5,
///                   episodes fanned out over 4 threads by `run_replications`
///                   (no FEL: the control for event-engine changes).
///  - ppo-table2     `PpoTrainer` on `MfcRlEnv` with the Table-2
///                   hyperparameters, Δt = 5, 4 envs on 4 threads.
///
/// The simulation workloads share the Table-1 queue (B = 5, α = 1, d = 2),
/// the two-state 0.9 / 0.6 arrival chain (ρ ≈ 0.75), initial queue states
/// drawn from the M/M/1/B stationary law at ρ = 0.75, a pool of λ paths drawn
/// from the seed and replayed with `reset_conditioned`, and a seed-initialised
/// 256×256 tanh `NeuralUpperPolicy` (the Fig. 2 deployment path).
///
/// Untraced runs (`--trace 0`) report the end-to-end metrics; traced runs
/// (`--trace 1`) record `trace::Tracer` spans around the public calls from
/// this file, derive the per-layer metrics from them and write the
/// chrome-trace JSON. Every run checks its outputs (per-epoch conservation,
/// the mean-field oracle per episode, finite PPO statistics) and prints a
/// run manifest first and one JSON result object last.
///
/// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                  [--trace-out <path>] [--git-describe <s>] [--source-hash <s>]
#include "core/mflb.hpp"
#include "support/trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace {

using namespace mflb;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
    std::string git_describe = "unknown";
    std::string source_hash = "unknown";
};

[[noreturn]] void usage_error(const std::string& message) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{des-table1|sharded-table1|finite-table1|ppo-table2} --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>] [--git-describe <s>] "
                 "[--source-hash <s>]\n",
                 message.c_str());
    std::exit(2);
}

Options parse_options(int argc, char** argv) {
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) {
            usage_error("missing value for " + std::string(flag));
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                opt.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                opt.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (flag == "--trace") {
                opt.trace = std::stoi(value) != 0;
            } else if (flag == "--trace-out") {
                opt.trace_out = value;
            } else if (flag == "--git-describe") {
                opt.git_describe = value;
            } else if (flag == "--source-hash") {
                opt.source_hash = value;
            } else {
                usage_error("unknown flag " + std::string(flag));
            }
        } catch (const std::logic_error&) {
            usage_error("bad value for " + std::string(flag) + ": " + value);
        }
    }
    if (!have_workload) {
        usage_error("--workload is required");
    }
    if (!(opt.seconds > 0.0)) {
        usage_error("--seconds must be positive");
    }
    return opt;
}

// ---------------------------------------------------------------------------
// Tracing: the wrappers below read one ambient pointer, set per measured unit
// (null = untraced unit, so the disabled path is one branch per call).
// ---------------------------------------------------------------------------

std::atomic<trace::Tracer*> g_tracer{nullptr};

trace::Tracer* active() noexcept { return g_tracer.load(std::memory_order_relaxed); }

// Span names; the prefix before the first '.' is the layer the span's self
// time is attributed to ("bench" is this file's own checking work).
constexpr const char* kUnit = "bench.unit";
constexpr const char* kCheck = "bench.check";
constexpr const char* kDecide = "core.decide_into";
constexpr const char* kReplications = "core.run_replications";
constexpr const char* kReplicationBody = "core.replication_body";
constexpr const char* kDesReset = "des.reset";
constexpr const char* kDesStep = "des.step";
constexpr const char* kShardedReset = "des.sharded_reset";
constexpr const char* kShardedStep = "des.sharded_step";
constexpr const char* kFiniteReset = "queueing.reset";
constexpr const char* kFiniteStep = "queueing.step";
constexpr const char* kMfcStep = "field.mfc_step";
constexpr const char* kCollect = "rl.collect_phase";
constexpr const char* kOptimize = "rl.optimize_phase";

/// Forwards every call to the deployed policy, recording a span around the
/// epoch query (`decide` on the finite/DES paths, `decide_into` on the
/// sharded path, where it runs on the overlapped pool task).
class TracedPolicy final : public UpperLevelPolicy {
public:
    explicit TracedPolicy(const UpperLevelPolicy& inner) : inner_(inner) {}

    DecisionRule decide(std::span<const double> nu, std::size_t lambda_state,
                        Rng& rng) const override {
        trace::ScopedSpan span(active(), kDecide);
        return inner_.decide(nu, lambda_state, rng);
    }
    std::unique_ptr<Scratch> make_scratch() const override { return inner_.make_scratch(); }
    void decide_into(std::span<const double> nu, std::size_t lambda_state, Rng& rng,
                     Scratch* scratch, DecisionRule& out) const override {
        trace::ScopedSpan span(active(), kDecide);
        inner_.decide_into(nu, lambda_state, rng, scratch, out);
    }
    bool decide_consumes_rng() const noexcept override { return inner_.decide_consumes_rng(); }
    std::string name() const override { return inner_.name(); }

private:
    const UpperLevelPolicy& inner_;
};

/// `MfcRlEnv` with a span around each environment step (decode + MfcEnv::step).
class TracedEnv final : public rl::Env {
public:
    explicit TracedEnv(const MfcConfig& config) : env_(config, RuleParameterization::Logits) {}

    std::size_t observation_dim() const override { return env_.observation_dim(); }
    std::size_t action_dim() const override { return env_.action_dim(); }
    std::vector<double> reset(Rng& rng) override { return env_.reset(rng); }
    StepResult step(std::span<const double> action, Rng& rng) override {
        trace::ScopedSpan span(active(), kMfcStep);
        return env_.step(action, rng);
    }

private:
    MfcRlEnv env_;
};

/// Per-span-name totals over every thread buffer of one traced run, plus the
/// main thread's self time per layer inside measured units.
struct TraceSummary {
    struct Span {
        double self_s = 0.0;
        double total_s = 0.0;
        std::vector<double> durations_s;
    };
    std::map<std::string, Span, std::less<>> spans;
    std::map<std::string, double, std::less<>> layer_self_s; ///< main thread, in units.
    double unit_s = 0.0;      ///< Σ bench.unit durations (traced wall).
    double unit_self_s = 0.0; ///< unit time no layer span covers.

    const Span& span(std::string_view name) const {
        static const Span empty;
        const auto it = spans.find(name);
        return it == spans.end() ? empty : it->second;
    }
};

/// Self time = span duration minus the part its direct children cover; spans
/// nest only within one thread buffer.
TraceSummary summarize(const trace::Tracer& tracer) {
    TraceSummary out;
    for (std::size_t tid = 0; tid < tracer.threads_used(); ++tid) {
        std::vector<trace::Tracer::Event> events = tracer.thread_events(tid);
        std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
            return a.begin_ns != b.begin_ns ? a.begin_ns < b.begin_ns : a.end_ns > b.end_ns;
        });
        const bool main_thread = std::any_of(events.begin(), events.end(),
                                             [](const auto& e) { return e.name == kUnit; });
        struct Open {
            const trace::Tracer::Event* event;
            double child_s;
            bool in_unit;
        };
        std::vector<Open> stack;
        const auto close = [&](const Open& open) {
            const double dur =
                static_cast<double>(open.event->end_ns - open.event->begin_ns) * 1e-9;
            const double self = dur - open.child_s;
            TraceSummary::Span& s = out.spans[open.event->name];
            s.self_s += self;
            s.total_s += dur;
            s.durations_s.push_back(dur);
            if (!main_thread || !open.in_unit) {
                return;
            }
            if (open.event->name == kUnit) {
                out.unit_s += dur;
                out.unit_self_s += self;
            } else {
                const std::string_view name = open.event->name;
                out.layer_self_s[std::string(name.substr(0, name.find('.')))] += self;
            }
        };
        for (const auto& e : events) {
            while (!stack.empty() && stack.back().event->end_ns <= e.begin_ns) {
                close(stack.back());
                stack.pop_back();
            }
            const bool in_unit = e.name == kUnit || (!stack.empty() && stack.front().in_unit);
            if (!stack.empty()) {
                stack.back().child_s += static_cast<double>(e.end_ns - e.begin_ns) * 1e-9;
            }
            stack.push_back({&e, 0.0, in_unit});
        }
        while (!stack.empty()) {
            close(stack.back());
            stack.pop_back();
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Metrics, checks and statistics
// ---------------------------------------------------------------------------

struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

/// Every per-layer metric, in report order. Workloads fill the ones their
/// layers exercise; the rest stay 0 ("this layer did no work here").
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"layer.core_share", "fraction"},
    {"layer.des_share", "fraction"},
    {"layer.queueing_share", "fraction"},
    {"layer.field_share", "fraction"},
    {"layer.rl_share", "fraction"},
    {"layer.bench_share", "fraction"},
    {"bench.unattributed_fraction", "fraction"},
    {"trace.overhead_fraction", "fraction"},
    {"des.ns_per_event", "ns"},
    {"des.fel_pops_per_event", "1/event"},
    {"des.fel_schedules_per_event", "1/event"},
    {"des.fel_scans_per_pop", "1/pop"},
    {"des.sojourn_share", "fraction"},
    {"sharded.parallel_share", "fraction"},
    {"sharded.serial_share", "fraction"},
    {"sharded.overlap_share", "fraction"},
    {"sharded.ns_per_event_thread", "ns"},
    {"finite.ns_per_event", "ns"},
    {"finite.routing_share", "fraction"},
    {"core.replication_idle_fraction", "fraction"},
    {"core.policy_query_us_p50", "us"},
    {"rl.optimize_share", "fraction"},
    {"rl.collect_share", "fraction"},
    {"rl.optimize_gflops_computed", "GFLOP/s"},
    {"field.mfc_step_us_p50", "us"},
};

/// Above this share of traced wall time outside every layer span, the layer
/// sum no longer accounts for the wall clock and the run says so.
constexpr double kUnattributedLimit = 0.03;

struct Checks {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double oracle_deviation = 0.0; ///< largest relative episode deviation seen.

    void expect(bool ok, const char* what) {
        ++attempted;
        if (!ok) {
            if (failed < 5) {
                std::fprintf(stderr, "perfbench: check failed: %s\n", what);
            }
            ++failed;
        }
    }
    void merge(const Checks& other) {
        attempted += other.attempted;
        failed += other.failed;
        oracle_deviation = std::max(oracle_deviation, other.oracle_deviation);
    }
};

/// Linear-interpolation quantile (numpy's default) of an unsorted sample.
double quantile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux.
}

/// Work done and wall time spent in traced or untraced units.
struct Totals {
    std::uint64_t work = 0;
    double seconds = 0.0;
    std::vector<double> unit_rates;               ///< work / second of each unit.
    std::vector<std::vector<double>> unit_steps_ms; ///< step wall times of each unit.

    void add_unit(std::uint64_t unit_work, double unit_seconds, std::vector<double> steps_ms) {
        work += unit_work;
        seconds += unit_seconds;
        unit_rates.push_back(static_cast<double>(unit_work) / unit_seconds);
        unit_steps_ms.push_back(std::move(steps_ms));
    }
    std::size_t units() const noexcept { return unit_rates.size(); }
    std::size_t steps() const noexcept {
        std::size_t n = 0;
        for (const auto& steps : unit_steps_ms) {
            n += steps.size();
        }
        return n;
    }
    // Both statistics are medians over units, so a burst of contention on
    // the host moves one unit's value rather than the reported one.
    double rate() const { return quantile(unit_rates, 0.5); }
    /// Quantile `q` of the step times within each unit, median over units.
    double step_ms(double q) const {
        std::vector<double> per_unit;
        for (const auto& steps : unit_steps_ms) {
            per_unit.push_back(quantile(steps, q));
        }
        return quantile(per_unit, 0.5);
    }
};

/// What one workload measured; turned into the reported metric set.
struct Measurement {
    Checks checks;
    Totals traced;
    Totals untraced;
    const char* step_label = "epochs";
    std::vector<double> setup_s;
    std::map<std::string, double, std::less<>> layer; ///< workload-specific per-layer values.
};

// ---------------------------------------------------------------------------
// Shared inputs
// ---------------------------------------------------------------------------

constexpr std::size_t kThreads = 4;
constexpr double kRho = 0.75;
constexpr int kBuffer = 5;
// Set-up is repeated at least kSetupMinReps times and until kSetupMinSeconds
// have been spent (at most kSetupMaxReps); the median is reported.
constexpr std::size_t kSetupMinReps = 5;
constexpr std::size_t kSetupMaxReps = 50;
constexpr double kSetupMinSeconds = 2.0;

// Independent seed-derived streams (Rng::fork ids).
constexpr std::uint64_t kNetworkStream = 1;
constexpr std::uint64_t kPathStream = 100;
constexpr std::uint64_t kEpisodeStream = 1'000;
constexpr std::uint64_t kBatchStream = 500'000;
constexpr std::uint64_t kProbeStream = 900'000;

Rng stream(std::uint64_t seed, std::uint64_t id) { return Rng(seed).fork(id); }

QueueParams table1_queue() { return QueueParams{kBuffer, 1.0}; }

ArrivalProcess table1_arrivals() { return ArrivalProcess::paper_two_state(0.9, 0.6); }

/// M/M/1/B stationary law at load ρ: π_k ∝ ρ^k, k = 0..B.
std::vector<double> stationary_nu0() {
    std::vector<double> nu(kBuffer + 1);
    double p = 1.0;
    for (double& v : nu) {
        v = p;
        p *= kRho;
    }
    const double total = std::accumulate(nu.begin(), nu.end(), 0.0);
    for (double& v : nu) {
        v /= total;
    }
    return nu;
}

/// λ path of `horizon` epochs: a sample of the modulating chain from the
/// seed, redrawn until it spends the stationary share of its epochs (rounded)
/// in the high state. Every seed then offers the same total load; only the
/// order of high and low epochs differs.
std::vector<std::size_t> lambda_path(Rng rng, int horizon) {
    const ArrivalProcess arrivals = table1_arrivals();
    const auto high_epochs = static_cast<std::ptrdiff_t>(
        std::lround(arrivals.stationary()[0] * static_cast<double>(horizon)));
    for (;;) {
        std::vector<std::size_t> path{arrivals.sample_initial(rng)};
        while (path.size() < static_cast<std::size_t>(horizon)) {
            path.push_back(arrivals.step(path.back(), rng));
        }
        if (std::count(path.begin(), path.end(), std::size_t{0}) == high_epochs) {
            return path;
        }
    }
}

/// Episodes a run draws λ paths for; episode e replays path e mod kPaths.
/// Varying the path across a run's episodes averages out the path-dependent
/// mix of cheap (drop) and dear (accept, serve) events, so one seed's
/// figures stand for the workload rather than for one path.
constexpr std::size_t kPaths = 16;

using Paths = std::vector<std::vector<std::size_t>>;

Paths lambda_paths(std::uint64_t seed, int horizon) {
    Paths paths;
    for (std::size_t p = 0; p < kPaths; ++p) {
        paths.push_back(lambda_path(stream(seed, kPathStream + p), horizon));
    }
    return paths;
}

/// FNV-1a over every path, in order: equal hashes mean equal inputs.
std::uint64_t paths_hash(const Paths& paths) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& path : paths) {
        for (std::size_t v : path) {
            for (int byte = 0; byte < 8; ++byte) {
                h ^= (static_cast<std::uint64_t>(v) >> (8 * byte)) & 0xffU;
                h *= 0x100000001b3ULL;
            }
        }
    }
    return h;
}

/// The deployed upper-level policy: a seed-initialised Table-2 network
/// (256×256 tanh) behind `NeuralUpperPolicy`, plus its traced wrapper.
struct Deployment {
    explicit Deployment(std::uint64_t seed)
        : space(kBuffer + 1, 2),
          network([&] {
              Rng rng = stream(seed, kNetworkStream);
              const std::size_t obs = space.num_states() + table1_arrivals().num_states();
              const std::size_t act = space.size() * static_cast<std::size_t>(space.d());
              return std::make_shared<const rl::GaussianPolicy>(
                  obs, act, std::vector<std::size_t>{256, 256}, rng);
          }()),
          neural(space, table1_arrivals().num_states(), network),
          traced(neural) {}
    Deployment(const Deployment&) = delete;
    Deployment& operator=(const Deployment&) = delete;

    TupleSpace space;
    std::shared_ptr<const rl::GaussianPolicy> network;
    NeuralUpperPolicy neural;
    TracedPolicy traced;
};

struct SimSpec {
    const char* backend = "";
    std::size_t queues = 0;
    std::uint64_t clients = 0;
    ClientModel model = ClientModel::Aggregated;
    double dt = 1.0;
    int horizon = 1;
    bool track_sojourn = false;
    std::size_t shards = 0;
    std::size_t threads = 1;
    /// Relative tolerance of an episode's drops/queue against the mean-field
    /// value on the same conditioned λ path (Theorem 1 oracle). Finite N/M
    /// and M bias the episode away from the limit, so it is per workload.
    double oracle_tolerance = 0.02;
};

FiniteSystemConfig system_config(const SimSpec& spec) {
    FiniteSystemConfig config;
    config.queue = table1_queue();
    config.d = 2;
    config.dt = spec.dt;
    config.arrivals = table1_arrivals();
    config.num_clients = spec.clients;
    config.num_queues = spec.queues;
    config.horizon = spec.horizon;
    config.client_model = spec.model;
    config.nu0 = stationary_nu0();
    config.track_sojourn = spec.track_sojourn;
    config.shards = spec.shards;
    config.threads = spec.threads;
    config.fel = FelKind::Calendar;
    return config;
}

/// Mean-field drops/queue of one episode on the conditioned λ path under the
/// same policy — the Theorem 1 reference every finite episode is held to.
/// `tracer` (null in untraced runs) records the MfcEnv::step spans.
double mean_field_drops(const SimSpec& spec, const UpperLevelPolicy& policy,
                        const std::vector<std::size_t>& path, trace::Tracer* tracer) {
    MfcConfig config;
    config.queue = table1_queue();
    config.d = 2;
    config.dt = spec.dt;
    config.arrivals = table1_arrivals();
    config.nu0 = stationary_nu0();
    config.horizon = spec.horizon;
    MfcEnv env(config);
    env.reset_conditioned(path);
    Rng rng(0); // the conditioned chain and the deterministic policy draw nothing
    double drops = 0.0;
    while (!env.done()) {
        const DecisionRule h = policy.decide(env.nu(), env.lambda_state(), rng);
        trace::ScopedSpan span(tracer, kMfcStep);
        drops += env.step(h, rng).drops;
    }
    return drops;
}

std::vector<double> mean_field_drops(const SimSpec& spec, const UpperLevelPolicy& policy,
                                     const Paths& paths, trace::Tracer* tracer) {
    std::vector<double> drops;
    for (const auto& path : paths) {
        drops.push_back(mean_field_drops(spec, policy, path, tracer));
    }
    return drops;
}

std::uint64_t epoch_events(const EpochStats& stats) {
    return stats.accepted_packets + stats.dropped_packets + stats.served_packets;
}

std::int64_t total_jobs(const SystemBase& system) {
    const auto& states = system.queue_states();
    return std::accumulate(states.begin(), states.end(), std::int64_t{0});
}

/// Per-epoch invariants: Σ accepted − Σ served equals the change in total
/// jobs, and the empirical distribution is a probability vector.
template <class System>
void check_epoch(const System& system, const EpochStats& stats, std::int64_t& jobs,
                 Checks& checks) {
    trace::ScopedSpan span(active(), kCheck);
    const std::int64_t now = total_jobs(system);
    const bool conserved = now - jobs == static_cast<std::int64_t>(stats.accepted_packets) -
                                             static_cast<std::int64_t>(stats.served_packets);
    const std::vector<double> hist = system.empirical_distribution();
    const double mass = std::accumulate(hist.begin(), hist.end(), 0.0);
    checks.expect(conserved, "accepted - served != change in queued jobs");
    checks.expect(std::abs(mass - 1.0) < 1e-9, "empirical distribution does not sum to 1");
    jobs = now;
}

void check_oracle(double drops, double oracle, double tolerance, Checks& checks) {
    const double deviation = std::abs(drops - oracle) / oracle;
    checks.oracle_deviation = std::max(checks.oracle_deviation, deviation);
    checks.expect(deviation <= tolerance,
                  "episode drops/queue outside the mean-field tolerance");
}

/// Runs measured units until `seconds` have elapsed and at least `min_units`
/// ran. In a traced run every other unit, starting with the first, is traced
/// (the untraced ones are the overhead reference).
template <class Unit>
void run_units(const Options& opt, trace::Tracer* tracer, std::size_t min_units, Unit&& unit) {
    const auto start = Clock::now();
    for (std::size_t u = 0; u < min_units || seconds_since(start) < opt.seconds; ++u) {
        const bool traced = tracer != nullptr && u % 2 == 0;
        g_tracer.store(traced ? tracer : nullptr, std::memory_order_relaxed);
        {
            trace::ScopedSpan span(active(), kUnit);
            unit(u, traced);
        }
        g_tracer.store(nullptr, std::memory_order_relaxed);
    }
}

/// Wall times of repeated set-ups; `teardown` runs untimed before each.
template <class Teardown, class Setup>
std::vector<double> time_setup(Teardown&& teardown, Setup&& setup) {
    std::vector<double> times;
    double spent = 0.0;
    while (times.size() < kSetupMaxReps &&
           (times.size() < kSetupMinReps || spent < kSetupMinSeconds)) {
        teardown();
        const auto t0 = Clock::now();
        setup();
        times.push_back(seconds_since(t0));
        spent += times.back();
    }
    return times;
}

/// Trace overhead from the alternating units: 1 − traced rate / untraced rate.
double overhead_fraction(const Measurement& m) {
    const double untraced = m.untraced.rate();
    return untraced > 0.0 ? 1.0 - m.traced.rate() / untraced : 0.0;
}

// ---------------------------------------------------------------------------
// Event-driven workloads (DesSystem, ShardedDesSystem)
// ---------------------------------------------------------------------------

/// Set-up of an event-driven workload, repeated by `time_setup`: the
/// deployed network, the system, and its reset for unit 0.
template <class System>
std::vector<double> setup_event_driven(const Options& opt, const FiniteSystemConfig& config,
                                       const std::vector<std::size_t>& path,
                                       std::unique_ptr<Deployment>& dep,
                                       std::unique_ptr<System>& system, Rng& rng) {
    return time_setup([&] { system.reset(); dep.reset(); },
                      [&] {
                          dep = std::make_unique<Deployment>(opt.seed);
                          system = std::make_unique<System>(config);
                          rng = stream(opt.seed, kEpisodeStream);
                          system->reset_conditioned(path, rng);
                      });
}

/// One episode of an event-driven system as a measured unit: reset on the
/// shared λ path (except unit 0, reset during set-up), step the deployed
/// policy through the horizon, check every epoch and the episode.
template <class System, class AfterEpisode>
void event_driven_episode(System& system, Rng& rng, const Options& opt, const Paths& paths,
                          const Deployment& dep, const std::vector<double>& oracle,
                          double tolerance, const char* reset_span, const char* step_span,
                          std::size_t unit, bool traced, Measurement& m,
                          AfterEpisode&& after_episode) {
    Totals& totals = traced ? m.traced : m.untraced;
    const std::size_t path = unit % kPaths;
    if (unit > 0) {
        rng = stream(opt.seed, kEpisodeStream + unit);
        trace::ScopedSpan span(active(), reset_span);
        system.reset_conditioned(paths[path], rng);
    }
    std::int64_t jobs = total_jobs(system);
    std::uint64_t events = 0;
    double seconds = 0.0;
    double drops = 0.0;
    std::vector<double> steps_ms;
    steps_ms.reserve(paths[path].size());
    while (!system.done()) {
        const auto t0 = Clock::now();
        EpochStats stats;
        {
            trace::ScopedSpan span(active(), step_span);
            stats = system.step(dep.traced, rng);
        }
        const double s = seconds_since(t0);
        seconds += s;
        steps_ms.push_back(s * 1e3);
        events += epoch_events(stats);
        drops += stats.drops_per_queue;
        check_epoch(system, stats, jobs, m.checks);
    }
    totals.add_unit(events, seconds, std::move(steps_ms));
    check_oracle(drops, oracle[path], tolerance, m.checks);
    after_episode(events, traced);
}

/// Re-runs episodes with sojourn tracking on and off on identical seeds:
/// the epoch statistics must agree exactly, and the time difference is the
/// sojourn bookkeeping's share of the event loop (median over pairs).
double sojourn_share(const FiniteSystemConfig& config, const Deployment& dep, const Paths& paths,
                     std::uint64_t seed, Checks& checks) {
    constexpr int kPairs = 3;
    FiniteSystemConfig off_config = config;
    off_config.track_sojourn = false;
    DesSystem on(config);
    DesSystem off(off_config);
    std::vector<double> shares;
    const auto episode = [&](DesSystem& system, const std::vector<std::size_t>& path,
                             const Rng& start, double& seconds) {
        Rng rng = start;
        system.reset_conditioned(path, rng);
        std::vector<EpochStats> out;
        out.reserve(path.size());
        while (!system.done()) {
            const auto t0 = Clock::now();
            const EpochStats stats = system.step(dep.neural, rng);
            seconds += seconds_since(t0);
            out.push_back(stats);
        }
        return out;
    };
    for (int p = 0; p < kPairs; ++p) {
        const Rng start = stream(seed, kProbeStream + static_cast<std::uint64_t>(p));
        const std::vector<std::size_t>& path = paths[static_cast<std::size_t>(p)];
        double on_s = 0.0;
        double off_s = 0.0;
        std::vector<EpochStats> with;
        std::vector<EpochStats> without;
        if (p % 2 == 0) { // alternate the order so drift cancels
            with = episode(on, path, start, on_s);
            without = episode(off, path, start, off_s);
        } else {
            without = episode(off, path, start, off_s);
            with = episode(on, path, start, on_s);
        }
        const bool same = std::equal(
            with.begin(), with.end(), without.begin(), without.end(),
            [](const EpochStats& a, const EpochStats& b) {
                return a.dropped_packets == b.dropped_packets &&
                       a.accepted_packets == b.accepted_packets &&
                       a.served_packets == b.served_packets &&
                       a.drops_per_queue == b.drops_per_queue &&
                       a.mean_queue_length == b.mean_queue_length &&
                       a.server_utilization == b.server_utilization;
            });
        checks.expect(same, "sojourn tracking changed the epoch statistics");
        shares.push_back((on_s - off_s) / on_s);
    }
    return quantile(shares, 0.5);
}

Measurement run_des(const Options& opt, const SimSpec& spec, trace::Tracer* tracer) {
    Measurement m;
    const FiniteSystemConfig config = system_config(spec);
    const Paths paths = lambda_paths(opt.seed, spec.horizon);
    std::unique_ptr<Deployment> dep;
    std::unique_ptr<DesSystem> system;
    Rng rng(0);
    m.setup_s = setup_event_driven(opt, config, paths[0], dep, system, rng);

    const std::vector<double> oracle = mean_field_drops(spec, dep->neural, paths, tracer);

    FutureEventList::Stats fel{};
    std::uint64_t fel_events = 0;
    run_units(opt, tracer, tracer != nullptr ? 2 : 1, [&](std::size_t unit, bool traced) {
        const FutureEventList::Stats before = system->event_queue().stats();
        event_driven_episode(*system, rng, opt, paths, *dep, oracle, spec.oracle_tolerance,
                             kDesReset, kDesStep, unit, traced, m,
                             [&](std::uint64_t events, bool) {
                                 const FutureEventList::Stats after =
                                     system->event_queue().stats();
                                 fel.pops += after.pops - before.pops;
                                 fel.schedules += after.schedules - before.schedules;
                                 fel.bucket_scans += after.bucket_scans - before.bucket_scans;
                                 fel_events += events;
                             });
    });

    if (tracer != nullptr) {
        const TraceSummary summary = summarize(*tracer);
        const double events = static_cast<double>(std::max<std::uint64_t>(fel_events, 1));
        m.layer["des.ns_per_event"] =
            summary.span(kDesStep).self_s * 1e9 / static_cast<double>(m.traced.work);
        m.layer["des.fel_pops_per_event"] = static_cast<double>(fel.pops) / events;
        m.layer["des.fel_schedules_per_event"] = static_cast<double>(fel.schedules) / events;
        const double pops = static_cast<double>(std::max<std::uint64_t>(fel.pops, 1));
        m.layer["des.fel_scans_per_pop"] = static_cast<double>(fel.bucket_scans) / pops;
        m.layer["des.sojourn_share"] = sojourn_share(config, *dep, paths, opt.seed, m.checks);
    }
    return m;
}

Measurement run_sharded(const Options& opt, const SimSpec& spec, trace::Tracer* tracer) {
    Measurement m;
    const FiniteSystemConfig config = system_config(spec);
    const Paths paths = lambda_paths(opt.seed, spec.horizon);
    std::unique_ptr<Deployment> dep;
    std::unique_ptr<ShardedDesSystem> system;
    Rng rng(0);
    m.setup_s = setup_event_driven(opt, config, paths[0], dep, system, rng);

    const std::vector<double> oracle = mean_field_drops(spec, dep->neural, paths, tracer);

    ShardedDesSystem::BarrierProfile profile;
    run_units(opt, tracer, tracer != nullptr ? 2 : 1, [&](std::size_t unit, bool traced) {
        event_driven_episode(*system, rng, opt, paths, *dep, oracle, spec.oracle_tolerance,
                             kShardedReset, kShardedStep, unit, traced, m,
                             [&](std::uint64_t, bool was_traced) {
                                 if (!was_traced) {
                                     return;
                                 }
                                 // Cumulative since the episode's reset.
                                 const auto& p = system->barrier_profile();
                                 profile.serial_prologue_seconds += p.serial_prologue_seconds;
                                 profile.overlapped_compute_seconds +=
                                     p.overlapped_compute_seconds;
                                 profile.reduction_seconds += p.reduction_seconds;
                                 profile.parallel_seconds += p.parallel_seconds;
                             });
    });

    if (tracer != nullptr) {
        const double total = profile.total_seconds();
        m.layer["sharded.parallel_share"] = profile.parallel_seconds / total;
        m.layer["sharded.serial_share"] = profile.serial_seconds() / total;
        m.layer["sharded.overlap_share"] = profile.overlapped_compute_seconds / total;
        m.layer["sharded.ns_per_event_thread"] = profile.parallel_seconds *
                                                 static_cast<double>(spec.threads) * 1e9 /
                                                 static_cast<double>(m.traced.work);
    }
    return m;
}

// ---------------------------------------------------------------------------
// Epoch-synchronous workload (FiniteSystem under run_replications)
// ---------------------------------------------------------------------------

/// Times `compute_queue_rates` (on a cloned RNG, so the trajectory is
/// untouched) against the whole epoch over one episode on this thread.
double routing_share(FiniteSystem& system, const Deployment& dep,
                     const std::vector<std::size_t>& path, std::uint64_t seed) {
    Rng rng = stream(seed, kProbeStream);
    system.reset_conditioned(path, rng);
    double routing_s = 0.0;
    double step_s = 0.0;
    while (!system.done()) {
        Rng unused(0); // the deployed policy is a deterministic query
        const DecisionRule h =
            dep.neural.decide(system.empirical_distribution(), system.lambda_state(), unused);
        Rng clone = rng;
        auto t0 = Clock::now();
        const std::vector<double> rates = system.compute_queue_rates(h, clone);
        routing_s += seconds_since(t0);
        t0 = Clock::now();
        system.step(dep.neural, rng);
        step_s += seconds_since(t0);
    }
    return routing_s / step_s;
}

Measurement run_finite(const Options& opt, const SimSpec& spec, trace::Tracer* tracer) {
    // Episodes per run_replications call: four per thread, so work stealing
    // can route around one slow worker instead of the batch waiting for it.
    constexpr std::size_t kBatch = 4 * kThreads;
    Measurement m;
    const FiniteSystemConfig config = system_config(spec);
    const Paths paths = lambda_paths(opt.seed, spec.horizon);
    std::unique_ptr<Deployment> dep;
    std::vector<std::unique_ptr<FiniteSystem>> systems;
    m.setup_s = time_setup(
        [&] { systems.clear(); dep.reset(); },
        [&] {
            dep = std::make_unique<Deployment>(opt.seed);
            for (std::size_t i = 0; i < kBatch; ++i) {
                systems.push_back(std::make_unique<FiniteSystem>(config));
                Rng rng = stream(opt.seed, kEpisodeStream + i);
                systems.back()->reset_conditioned(paths[i % kPaths], rng);
            }
        });

    const std::vector<double> oracle = mean_field_drops(spec, dep->neural, paths, tracer);

    struct EpisodeOut {
        Checks checks;
        std::uint64_t events = 0;
        std::vector<double> epoch_ms;
    };
    run_units(opt, tracer, tracer != nullptr ? 2 : 1, [&](std::size_t unit, bool traced) {
        const auto t0 = Clock::now();
        std::vector<EpisodeOut> outs;
        {
            trace::ScopedSpan span(active(), kReplications);
            const std::uint64_t batch_seed = stream(opt.seed, kBatchStream + unit)();
            outs = run_replications(kBatch, batch_seed, kThreads, [&](std::size_t i, Rng& rng) {
                trace::ScopedSpan body(active(), kReplicationBody);
                EpisodeOut out;
                out.epoch_ms.reserve(static_cast<std::size_t>(spec.horizon));
                FiniteSystem& system = *systems[i];
                const std::size_t path = (unit * kBatch + i) % kPaths;
                {
                    trace::ScopedSpan reset(active(), kFiniteReset);
                    system.reset_conditioned(paths[path], rng);
                }
                std::int64_t jobs = total_jobs(system);
                double drops = 0.0;
                while (!system.done()) {
                    const auto e0 = Clock::now();
                    EpochStats stats;
                    {
                        trace::ScopedSpan step(active(), kFiniteStep);
                        stats = system.step(dep->traced, rng);
                    }
                    out.epoch_ms.push_back(seconds_since(e0) * 1e3);
                    out.events += epoch_events(stats);
                    drops += stats.drops_per_queue;
                    check_epoch(system, stats, jobs, out.checks);
                }
                check_oracle(drops, oracle[path], spec.oracle_tolerance, out.checks);
                return out;
            });
        }
        const double seconds = seconds_since(t0);
        std::uint64_t events = 0;
        std::vector<double> steps_ms;
        for (const EpisodeOut& out : outs) {
            events += out.events;
            m.checks.merge(out.checks);
            steps_ms.insert(steps_ms.end(), out.epoch_ms.begin(), out.epoch_ms.end());
        }
        (traced ? m.traced : m.untraced).add_unit(events, seconds, std::move(steps_ms));
    });

    if (tracer != nullptr) {
        const TraceSummary summary = summarize(*tracer);
        const double wall = summary.span(kReplications).total_s;
        const double busy = summary.span(kReplicationBody).total_s;
        const double threads = static_cast<double>(kThreads);
        m.layer["core.replication_idle_fraction"] = (threads * wall - busy) / (threads * wall);
        m.layer["finite.ns_per_event"] =
            summary.span(kFiniteStep).self_s * 1e9 / static_cast<double>(m.traced.work);
        m.layer["finite.routing_share"] = routing_share(*systems[0], *dep, paths[0], opt.seed);
    }
    return m;
}

// ---------------------------------------------------------------------------
// Training workload (PpoTrainer on MfcRlEnv)
// ---------------------------------------------------------------------------

/// FLOPs of one forward + backward pass of an MLP per sample, computed from
/// its layer sizes: 2·in·out forward, 4·in·out backward (weight and input
/// gradients) per dense layer.
double mlp_flops_per_sample(const rl::Mlp& net) {
    const auto& sizes = net.layer_sizes();
    double flops = 0.0;
    for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
        flops += 6.0 * static_cast<double>(sizes[l]) * static_cast<double>(sizes[l + 1]);
    }
    return flops;
}

MfcConfig ppo_env_config() {
    ExperimentConfig experiment; // Table 1 defaults
    experiment.dt = 5.0;
    return experiment.mfc();
}

rl::PpoConfig ppo_config() {
    rl::PpoConfig config; // Table 2 defaults
    config.num_envs = kThreads;
    config.train_threads = kThreads;
    return config;
}

Measurement run_ppo(const Options& opt, trace::Tracer* tracer) {
    Measurement m;
    m.step_label = "iterations";
    const MfcConfig env_config = ppo_env_config();
    const rl::PpoConfig config = ppo_config();
    const rl::PpoTrainer::EnvFactory make_env = [&env_config]() -> std::unique_ptr<rl::Env> {
        return std::make_unique<TracedEnv>(env_config);
    };
    std::unique_ptr<rl::PpoTrainer> trainer;
    m.setup_s = time_setup(
        [&] { trainer.reset(); },
        [&] { trainer = std::make_unique<rl::PpoTrainer>(make_env, config, Rng(opt.seed)); });

    std::size_t timesteps = 0;
    run_units(opt, tracer, 2, [&](std::size_t, bool traced) {
        const auto t0 = Clock::now();
        rl::PpoIterationStats stats;
        {
            trace::ScopedSpan span(active(), kCollect);
            trainer->collect_phase(stats);
        }
        {
            trace::ScopedSpan span(active(), kOptimize);
            trainer->optimize_phase(stats);
        }
        const double s = seconds_since(t0);
        (traced ? m.traced : m.untraced)
            .add_unit(stats.timesteps_total - timesteps, s, {s * 1e3});
        timesteps = stats.timesteps_total;
        const bool finite = std::isfinite(stats.policy_loss) && std::isfinite(stats.value_loss) &&
                            std::isfinite(stats.mean_kl) && std::isfinite(stats.entropy) &&
                            std::isfinite(stats.kl_coeff) &&
                            std::isfinite(stats.mean_episode_return);
        m.checks.expect(finite, "non-finite PPO loss, KL or return");
        m.checks.expect(stats.episodes_completed > 0, "PPO iteration completed no episode");
    });

    if (tracer != nullptr) {
        const TraceSummary summary = summarize(*tracer);
        const double optimize_s = summary.span(kOptimize).total_s;
        const double per_sample = mlp_flops_per_sample(trainer->policy().network()) +
                                  mlp_flops_per_sample(trainer->value_network());
        const double flops = per_sample * static_cast<double>(config.num_epochs) *
                             static_cast<double>(config.train_batch_size) *
                             static_cast<double>(m.traced.units());
        m.layer["rl.optimize_share"] = optimize_s / summary.unit_s;
        m.layer["rl.collect_share"] = summary.span(kCollect).total_s / summary.unit_s;
        m.layer["rl.optimize_gflops_computed"] = flops / optimize_s * 1e-9;
    }
    return m;
}

// ---------------------------------------------------------------------------
// Manifest and report
// ---------------------------------------------------------------------------

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        if (static_cast<unsigned char>(c) >= 0x20) {
            out += c;
        }
    }
    return out;
}

struct Manifest {
    std::vector<std::pair<std::string, std::string>> fields; ///< value already JSON.

    void text(const std::string& key, const std::string& value) {
        fields.emplace_back(key, "\"" + json_escape(value) + "\"");
    }
    void number(const std::string& key, double value) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.10g", value);
        fields.emplace_back(key, buf);
    }
    void integer(const std::string& key, std::uint64_t value) {
        fields.emplace_back(key, std::to_string(value));
    }
    void print() const {
        std::string line = "# manifest {";
        for (std::size_t i = 0; i < fields.size(); ++i) {
            line += (i ? ", \"" : "\"") + fields[i].first + "\": " + fields[i].second;
        }
        std::printf("%s}\n", line.c_str());
    }
};

Manifest base_manifest(const Options& opt) {
    Manifest m;
    m.text("workload", opt.workload);
    m.integer("seed", opt.seed);
    m.number("seconds", opt.seconds);
    m.integer("trace", opt.trace ? 1 : 0);
    m.text("git_describe", opt.git_describe);
    m.text("source_hash", opt.source_hash);
    m.text("build_type", PERFBENCH_BUILD_TYPE);
    m.text("compiler", std::string("g++ ") + __VERSION__);
    m.text("cpu", cpu_model());
    m.integer("nproc", std::thread::hardware_concurrency());
    return m;
}

void add_sim_manifest(Manifest& m, const SimSpec& spec, std::uint64_t seed) {
    static const char* const kModels[] = {"per-client", "aggregated", "infinite-clients"};
    m.integer("threads", spec.threads);
    m.integer("queues", spec.queues);
    m.integer("clients", spec.clients);
    m.text("client_model", kModels[static_cast<int>(spec.model)]);
    m.number("dt", spec.dt);
    m.integer("horizon", static_cast<std::uint64_t>(spec.horizon));
    m.integer("shards", spec.shards);
    m.text("backend", spec.backend);
    m.text("fel", std::string_view(spec.backend) == "finite"
                      ? "none"
                      : std::string(fel_kind_name(FelKind::Calendar)));
    m.number("rho_nu0", kRho);
    m.integer("track_sojourn", spec.track_sojourn ? 1 : 0);
    m.number("oracle_tolerance", spec.oracle_tolerance);
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(paths_hash(lambda_paths(seed, spec.horizon))));
    m.integer("lambda_paths", kPaths);
    m.text("lambda_paths_hash", hash);
}

void report(const Options& opt, Measurement& m, trace::Tracer* tracer) {
    std::vector<std::pair<std::string, Metric>> metrics;
    std::printf("checks: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(m.checks.attempted),
                static_cast<unsigned long long>(m.checks.failed));
    if (m.checks.oracle_deviation > 0.0) {
        std::printf("largest episode deviation from the mean-field oracle: %.4f\n",
                    m.checks.oracle_deviation);
    }
    if (tracer == nullptr) {
        const std::size_t n = m.untraced.steps();
        metrics.push_back({"work_per_s", {m.untraced.rate(), "1/s", m.untraced.units()}});
        metrics.push_back({"step_ms_p50", {m.untraced.step_ms(0.5), "ms", n}});
        metrics.push_back({"step_ms_p90", {m.untraced.step_ms(0.9), "ms", n}});
        metrics.push_back({"setup_s", {quantile(m.setup_s, 0.5), "s", m.setup_s.size()}});
        metrics.push_back({"peak_rss_mb", {peak_rss_mb(), "MB", 1}});
        std::printf("work: %llu items in %zu untraced units, %.3f s measured; step samples: "
                    "%zu %s\n",
                    static_cast<unsigned long long>(m.untraced.work), m.untraced.units(),
                    m.untraced.seconds, n, m.step_label);
        std::printf("unit rates (1/s): min %.6g, p25 %.6g, median %.6g, p75 %.6g, max %.6g\n",
                    quantile(m.untraced.unit_rates, 0.0), quantile(m.untraced.unit_rates, 0.25),
                    quantile(m.untraced.unit_rates, 0.5), quantile(m.untraced.unit_rates, 0.75),
                    quantile(m.untraced.unit_rates, 1.0));
    } else {
        const TraceSummary summary = summarize(*tracer);
        for (const auto& [name, unit] : kPerLayer) {
            metrics.push_back({name, {0.0, unit, summary.span(kUnit).durations_s.size()}});
        }
        const auto set = [&](std::string_view name, double value, std::size_t samples) {
            for (auto& [metric_name, metric] : metrics) {
                if (metric_name == name) {
                    metric.value = value;
                    metric.samples = samples;
                }
            }
        };
        const std::size_t units = summary.span(kUnit).durations_s.size();
        for (const auto& [layer, self_s] : summary.layer_self_s) {
            set("layer." + layer + "_share", self_s / summary.unit_s, units);
        }
        const double unattributed = summary.unit_self_s / summary.unit_s;
        set("bench.unattributed_fraction", unattributed, units);
        set("trace.overhead_fraction", overhead_fraction(m),
            m.traced.units() + m.untraced.units());
        const auto& decide = summary.span(kDecide).durations_s;
        if (!decide.empty()) {
            set("core.policy_query_us_p50", quantile(decide, 0.5) * 1e6, decide.size());
        }
        const auto& mfc = summary.span(kMfcStep).durations_s;
        if (!mfc.empty()) {
            set("field.mfc_step_us_p50", quantile(mfc, 0.5) * 1e6, mfc.size());
        }
        for (const auto& [name, value] : m.layer) {
            set(name, value, units);
        }
        std::printf("traced: %zu units, %.3f s traced wall, %zu spans (%zu dropped)\n", units,
                    summary.unit_s, tracer->event_count(), tracer->dropped());
        if (unattributed > kUnattributedLimit) {
            std::printf("warning: %.1f%% of traced wall time is outside every layer span "
                        "(limit %.0f%%)\n",
                        unattributed * 100.0, kUnattributedLimit * 100.0);
        }
        if (!opt.trace_out.empty() && !tracer->write(opt.trace_out)) {
            std::fprintf(stderr, "perfbench: could not write %s\n", opt.trace_out.c_str());
        }
    }
    for (const auto& [name, metric] : metrics) {
        std::printf("metric %-32s %.6g %s (n=%zu)\n", name.c_str(), metric.value,
                    metric.unit.c_str(), metric.samples);
    }
    std::string json = "{\"correct\": ";
    json += m.checks.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(m.checks.attempted, 1));
    json += ", \"failed\": " + std::to_string(m.checks.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].second.value);
        json += (i ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " + value +
                ", \"unit\": \"" + metrics[i].second.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int main(int argc, char** argv) {
    const Options opt = parse_options(argc, argv);
    try {
        std::unique_ptr<trace::Tracer> tracer;
        if (opt.trace) {
            tracer = std::make_unique<trace::Tracer>(16, std::size_t{1} << 17);
        }
        Manifest manifest = base_manifest(opt);
        Measurement m;
        SimSpec spec;
        if (opt.workload == "des-table1") {
            spec = {.backend = "des",
                    .queues = 20'000,
                    .model = ClientModel::InfiniteClients,
                    .dt = 5.0,
                    .horizon = 100,
                    .track_sojourn = true};
        } else if (opt.workload == "sharded-table1") {
            spec = {.backend = "sharded-des",
                    .queues = 1'000'000,
                    .clients = 100'000'000,
                    .dt = 1.0,
                    .horizon = 20,
                    .shards = 8,
                    .threads = kThreads};
        } else if (opt.workload == "finite-table1") {
            spec = {.backend = "finite",
                    .queues = 10'000,
                    .clients = 1'000'000,
                    .dt = 5.0,
                    .horizon = 100,
                    .threads = kThreads,
                    .oracle_tolerance = 0.05};
        } else if (opt.workload != "ppo-table2") {
            usage_error("unknown workload " + opt.workload);
        }
        if (opt.workload == "ppo-table2") {
            const rl::PpoConfig config = ppo_config();
            const MfcConfig env = ppo_env_config();
            manifest.integer("threads", config.train_threads);
            manifest.integer("num_envs", config.num_envs);
            manifest.integer("train_batch_size", config.train_batch_size);
            manifest.integer("minibatch_size", config.minibatch_size);
            manifest.integer("num_epochs", config.num_epochs);
            manifest.number("dt", env.dt);
            manifest.integer("horizon", static_cast<std::uint64_t>(env.horizon));
            manifest.print();
            std::fflush(stdout);
            m = run_ppo(opt, tracer.get());
        } else {
            add_sim_manifest(manifest, spec, opt.seed);
            manifest.print();
            std::fflush(stdout);
            if (opt.workload == "des-table1") {
                m = run_des(opt, spec, tracer.get());
            } else if (opt.workload == "sharded-table1") {
                m = run_sharded(opt, spec, tracer.get());
            } else {
                m = run_finite(opt, spec, tracer.get());
            }
        }
        report(opt, m, tracer.get());
        return m.checks.failed == 0 ? 0 : 1;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: error: %s\n", error.what());
        return 1;
    }
}
