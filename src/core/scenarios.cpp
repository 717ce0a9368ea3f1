#include "core/scenarios.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace mflb {

namespace {

Scenario make_table1() {
    Scenario s;
    s.name = "table1";
    s.summary = "Paper Table 1 baseline: M=100, N=10^4, B=5, d=2, two-level arrivals";
    return s; // ExperimentConfig defaults *are* Table 1.
}

Scenario make_delay_sweep() {
    Scenario s;
    s.name = "delay-sweep";
    s.summary = "Figure 5 delay sweep cell: M=400, N=M^2; caller sets dt in [1,10]";
    s.experiment.num_queues = 400;
    s.experiment.num_clients = 400ULL * 400ULL;
    return s;
}

Scenario make_small_n() {
    Scenario s;
    s.name = "small-n";
    s.summary = "Figure 6 ablation: N=1000 clients with M=1000 (violates N >> M)";
    s.experiment.num_queues = 1000;
    s.experiment.num_clients = 1000;
    return s;
}

/// Half the fleet at speed 0.5, half at 1.5 (mean speed 1).
std::vector<double> two_class_speeds(std::size_t num_queues) {
    std::vector<double> speeds(num_queues, 0.5);
    std::fill(speeds.begin() + static_cast<std::ptrdiff_t>(num_queues / 2), speeds.end(), 1.5);
    return speeds;
}

Scenario make_heterogeneous() {
    Scenario s;
    s.name = "heterogeneous";
    s.summary = "Section 5 extension: half slow (0.5) / half fast (1.5) servers, sed-d router";
    s.experiment.dt = 2.0;
    s.experiment.num_queues = 120;
    s.experiment.num_clients = 120ULL * 40ULL;
    s.experiment.eval_total_time = 200.0; // 100 decision epochs.
    s.experiment.server_speeds = two_class_speeds(s.experiment.num_queues);
    s.experiment.router.kind = RouterKind::SedD; // d = 2
    return s;
}

Scenario make_memory() {
    Scenario s;
    s.name = "memory";
    s.summary = "Power-of-d-with-memory extension ([3]): JSQ(2)+memory under stale snapshots";
    s.experiment.num_queues = 100;
    s.experiment.num_clients = 100ULL * 100ULL;
    return s; // experiment.memory_system() builds the simulator's config.
}

Scenario make_partial_info() {
    Scenario s;
    s.name = "partial-info";
    s.summary = "Paper §2.1 remark: policy observes a K-sample estimate of H^M (K=20)";
    s.experiment.dt = 5.0;
    s.experiment.eval_total_time = 300.0;
    s.experiment.histogram_sample_size = 20;
    return s;
}

Scenario make_large_n() {
    Scenario s;
    s.name = "large-n";
    s.summary = "Event-driven scale: M=10^4 queues, N=10^6 clients on the DES backend";
    s.experiment.num_queues = 10000;
    s.experiment.num_clients = 1000000;
    s.experiment.dt = 5.0;
    // Keep full episodes tractable at this size: 20 decision epochs.
    s.experiment.eval_total_time = 100.0;
    s.experiment.backend = SimBackend::Des;
    // Calendar FEL (the default, pinned here for clarity): at M=10^4 the
    // event loop is exactly the regime where O(1) buckets beat the heap.
    s.experiment.fel = FelKind::Calendar;
    return s;
}

Scenario make_large_n_sharded() {
    Scenario s;
    s.name = "large-n-sharded";
    s.summary = "large-n on the sharded DES: K=8 queue shards, epoch-barrier parallel";
    s.experiment = make_large_n().experiment;
    s.experiment.backend = SimBackend::ShardedDes;
    s.experiment.shards = 8;
    return s;
}

Scenario make_staleness_sweep() {
    Scenario s;
    s.name = "staleness-sweep";
    s.summary = "Classical-baseline staleness cell: SQ(stale) vs JSQ at dt=2; sweep "
                "--stale-period (router defaults to sq-stale, 10 time units)";
    s.experiment.dt = 2.0;
    s.experiment.backend = SimBackend::Des;
    s.experiment.router.kind = RouterKind::SqStale;
    s.experiment.router.stale_period = 10.0;
    return s;
}

Scenario make_heavy_tail() {
    Scenario s;
    s.name = "heavy-tail";
    s.summary = "Bounded-Pareto service (alpha=1.5, cap=10^3, mean 1/alpha): stresses the "
                "exponential-service assumption; sweep --pareto-alpha";
    s.experiment.dt = 2.0;
    s.experiment.backend = SimBackend::Des;
    s.experiment.service.kind = ServiceDistKind::BoundedPareto;
    s.experiment.service.pareto_alpha = 1.5;
    s.experiment.service.pareto_cap = 1000.0;
    return s;
}

Scenario make_hetero_speeds() {
    Scenario s;
    s.name = "hetero-speeds";
    s.summary = "Two-class server speeds (half 0.5x, half 1.5x) on the event-driven "
                "backends: speed-blind classical routing vs learned MFC";
    s.experiment.dt = 2.0;
    s.experiment.backend = SimBackend::Des;
    s.experiment.server_speeds = two_class_speeds(s.experiment.num_queues);
    return s;
}

std::vector<Scenario> build_registry() {
    std::vector<Scenario> registry;
    registry.push_back(make_table1());
    registry.push_back(make_delay_sweep());
    registry.push_back(make_small_n());
    registry.push_back(make_heterogeneous());
    registry.push_back(make_memory());
    registry.push_back(make_partial_info());
    registry.push_back(make_large_n());
    registry.push_back(make_large_n_sharded());
    registry.push_back(make_staleness_sweep());
    registry.push_back(make_heavy_tail());
    registry.push_back(make_hetero_speeds());
    return registry;
}

} // namespace

const std::vector<Scenario>& scenario_registry() {
    static const std::vector<Scenario> registry = build_registry();
    return registry;
}

const Scenario* find_scenario(std::string_view name) {
    for (const Scenario& scenario : scenario_registry()) {
        if (scenario.name == name) {
            return &scenario;
        }
    }
    return nullptr;
}

const Scenario& scenario_or_die(std::string_view name) {
    if (const Scenario* scenario = find_scenario(name)) {
        return *scenario;
    }
    std::ostringstream message;
    message << "unknown scenario '" << name << "'; known scenarios:\n" << scenario_list_text();
    throw std::invalid_argument(message.str());
}

std::string scenario_list_text() {
    std::ostringstream out;
    for (const Scenario& scenario : scenario_registry()) {
        out << "  " << scenario.name << " - " << scenario.summary << "\n";
    }
    return out.str();
}

void resize_fleet(ExperimentConfig& experiment, std::size_t num_queues) {
    const std::vector<double>& speeds = experiment.server_speeds;
    if (!speeds.empty()) {
        std::vector<double> resized(num_queues);
        for (std::size_t j = 0; j < num_queues; ++j) {
            resized[j] = speeds[j * speeds.size() / num_queues];
        }
        experiment.server_speeds = std::move(resized);
    }
    experiment.num_queues = num_queues;
}

} // namespace mflb
