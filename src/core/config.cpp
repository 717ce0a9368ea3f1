#include "core/config.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace mflb {

std::string_view backend_name(SimBackend backend) noexcept {
    switch (backend) {
    case SimBackend::Des:
        return "des";
    case SimBackend::ShardedDes:
        return "sharded-des";
    case SimBackend::Finite:
        break;
    }
    return "finite";
}

SimBackend parse_backend(std::string_view name) {
    if (name == "finite") {
        return SimBackend::Finite;
    }
    if (name == "des") {
        return SimBackend::Des;
    }
    if (name == "sharded-des" || name == "sharded") {
        return SimBackend::ShardedDes;
    }
    throw std::invalid_argument("unknown backend '" + std::string(name) +
                                "'; expected 'finite', 'des', or 'sharded-des'");
}

int ExperimentConfig::eval_horizon() const noexcept {
    return MfcConfig::horizon_for_total_time(eval_total_time, dt);
}

ArrivalProcess ExperimentConfig::arrivals() const {
    return ArrivalProcess::paper_two_state(lambda_high, lambda_low);
}

MfcConfig ExperimentConfig::mfc(bool eval_horizon_instead) const {
    MfcConfig config;
    config.queue = queue;
    config.d = d;
    config.dt = dt;
    config.arrivals = arrivals();
    config.horizon = eval_horizon_instead ? eval_horizon() : train_horizon;
    config.discount = discount;
    return config;
}

FiniteSystemConfig ExperimentConfig::finite_system() const {
    FiniteSystemConfig config;
    config.queue = queue;
    config.d = d;
    config.dt = dt;
    config.arrivals = arrivals();
    config.num_clients = num_clients;
    config.num_queues = num_queues;
    config.horizon = eval_horizon();
    config.discount = discount;
    config.client_model = client_model;
    config.histogram_sample_size = histogram_sample_size;
    config.shards = shards;
    config.fel = fel;
    config.threads = threads;
    config.router = router;
    config.service = service;
    config.server_speeds = server_speeds;
    return config;
}

MemorySystemConfig ExperimentConfig::memory_system() const {
    MemorySystemConfig config;
    config.buffer = queue.buffer;
    config.service_rate = queue.service_rate;
    config.d = d;
    config.dt = dt;
    config.arrivals = arrivals();
    config.num_clients = num_clients;
    config.num_queues = num_queues;
    config.horizon = eval_horizon();
    return config;
}

Table ExperimentConfig::to_table() const {
    Table table({"Symbol", "Name", "Value"});
    table.row().cell("dt").cell("Time step size").cell(dt, 2);
    table.row().cell("alpha").cell("Service rate").cell(queue.service_rate, 2);
    std::ostringstream rates;
    rates << "(" << lambda_high << ", " << lambda_low << ")";
    table.row().cell("(lambda_h, lambda_l)").cell("Arrival rates").cell(rates.str());
    table.row().cell("N").cell("Number of clients").cell(static_cast<std::int64_t>(num_clients));
    table.row().cell("M").cell("Number of queues").cell(static_cast<std::int64_t>(num_queues));
    table.row().cell("d").cell("Number of accessible queues").cell(static_cast<std::int64_t>(d));
    table.row().cell("n").cell("Monte Carlo simulations").cell(
        static_cast<std::int64_t>(monte_carlo_runs));
    table.row().cell("B").cell("Queue buffer size").cell(static_cast<std::int64_t>(queue.buffer));
    table.row().cell("nu_0").cell("Queue starting state distribution").cell("[1, 0, 0, ...]");
    table.row().cell("D").cell("Drop penalty per job").cell(drop_penalty, 2);
    table.row().cell("T").cell("Training episode length").cell(
        static_cast<std::int64_t>(train_horizon));
    table.row().cell("T_e").cell("Evaluation episode length").cell(
        static_cast<std::int64_t>(eval_horizon()));
    return table;
}

Table ppo_config_table(const rl::PpoConfig& config) {
    Table table({"Symbol", "Name", "Value"});
    table.row().cell("gamma").cell("Discount factor").cell(config.discount, 4);
    table.row().cell("lambda_RL").cell("GAE lambda").cell(config.gae_lambda, 2);
    table.row().cell("beta").cell("KL coefficient").cell(config.kl_coeff, 2);
    table.row().cell("epsilon").cell("Clip parameter").cell(config.clip_param, 2);
    table.row().cell("lr").cell("Learning rate").cell(config.learning_rate, 6);
    table.row().cell("B_b").cell("Training batch size").cell(
        static_cast<std::int64_t>(config.train_batch_size));
    table.row().cell("B_m").cell("SGD mini batch size").cell(
        static_cast<std::int64_t>(config.minibatch_size));
    table.row().cell("T_b").cell("Number of epochs").cell(
        static_cast<std::int64_t>(config.num_epochs));
    // Implementation knobs of the parallel trainer — not Table 2 values;
    // they scale throughput without changing the algorithm.
    table.row().cell("K").cell("Parallel rollout environments").cell(
        static_cast<std::int64_t>(config.num_envs));
    table.row().cell("W").cell("Trainer worker threads (0 = all cores)").cell(
        static_cast<std::int64_t>(config.train_threads));
    return table;
}

} // namespace mflb
