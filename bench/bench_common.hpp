/// \file bench_common.hpp
/// Shared helpers for the figure-reproduction binaries: consistent CLI flags,
/// per-Δt learned-policy training (CEM on the exact MFC objective), and
/// uniform table output. Every bench accepts `--full` to switch from the
/// CI-sized default budget to the paper-scale configuration; EXPERIMENTS.md
/// records both.
#pragma once

#include "core/mflb.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <memory>
#include <string>
#include <vector>

namespace mflb::bench {

/// Machine-readable wall-clock timings: every bench that accepts `--json`
/// appends one record per timed unit of work and writes a JSON array, so the
/// perf trajectory can be tracked across PRs (bench_micro gets the same via
/// google-benchmark's native --benchmark_format=json).
class TimingLog {
public:
    explicit TimingLog(std::string bench_name) : bench_(std::move(bench_name)) {}

    void record(const std::string& label, double seconds) {
        entries_.push_back({label, seconds});
    }

    std::string to_json() const {
        std::string out = "[\n";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            char line[256];
            std::snprintf(line, sizeof(line),
                          "  {\"bench\": \"%s\", \"label\": \"%s\", \"seconds\": %.6f}%s\n",
                          bench_.c_str(), entries_[i].label.c_str(), entries_[i].seconds,
                          i + 1 < entries_.size() ? "," : "");
            out += line;
        }
        out += "]\n";
        return out;
    }

    /// Writes the JSON array to `path`; no-op on an empty path. Returns false
    /// (with a diagnostic) if the file cannot be written.
    bool write(const std::string& path) const {
        if (path.empty()) {
            return true;
        }
        std::FILE* file = std::fopen(path.c_str(), "w");
        if (file == nullptr) {
            std::fprintf(stderr, "[bench] cannot write timings to %s\n", path.c_str());
            return false;
        }
        const std::string json = to_json();
        std::fwrite(json.data(), 1, json.size(), file);
        std::fclose(file);
        return true;
    }

private:
    struct Entry {
        std::string label;
        double seconds = 0.0;
    };
    std::string bench_;
    std::vector<Entry> entries_;
};

/// Times one labeled unit of work into a TimingLog.
class ScopedTimer {
public:
    ScopedTimer(TimingLog& log, std::string label)
        : log_(log), label_(std::move(label)), start_(std::chrono::steady_clock::now()) {}
    ~ScopedTimer() {
        const auto elapsed = std::chrono::steady_clock::now() - start_;
        log_.record(label_, std::chrono::duration<double>(elapsed).count());
    }
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

private:
    TimingLog& log_;
    std::string label_;
    std::chrono::steady_clock::time_point start_;
};

/// Registers the shared `--backend` flag: every finite-system bench can run
/// its cells on the epoch engine (one shard or eight) or the event-driven
/// simulator.
inline void register_backend_flag(CliParser& cli) {
    cli.flag("backend", "finite",
             "Finite-system simulator: 'finite' (epoch engine, per-queue kernels on "
             "one shard), 'des' (event-driven), or 'sharded-des' (the same engine on "
             "K = 8 parallel shards)");
}

/// Resolves the registered --backend flag; exits 2 with a diagnostic on an
/// unknown value (consistent with the CLI misuse convention).
inline SimBackend backend_from(const CliParser& cli) {
    try {
        return parse_backend(cli.get("backend"));
    } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        std::exit(2);
    }
}

/// Registers the shared `--threads` flag: worker threads for Monte Carlo
/// replication fan-out (and the sharded backend's epoch-parallel phase).
/// 0 = all hardware threads. Never changes results, only wall clock.
inline void register_threads_flag(CliParser& cli) {
    cli.flag_int("threads", 0,
                 "Worker threads for replications / sharded epochs (0 = all cores)");
}

/// Resolves the registered --threads flag; exits 2 on a negative value.
inline std::size_t threads_from(const CliParser& cli) {
    const long long threads = cli.get_int("threads");
    if (threads < 0) {
        std::fprintf(stderr, "error: --threads must be >= 0\n");
        std::exit(2);
    }
    return static_cast<std::size_t>(threads);
}

/// Standard CEM budget used to obtain the "MF" learned policy per Δt at the
/// default bench scale. The optimized objective is the exact mean-field J.
inline rl::CemConfig default_cem(bool full) {
    rl::CemConfig cem;
    cem.population = full ? 64 : 32;
    cem.elites = full ? 10 : 6;
    cem.generations = full ? 60 : 22;
    cem.threads = 0; // conditioned-rollout objective is thread-safe: use all cores
    return cem;
}

/// Trains (and memoizes) one tabular MF policy per Δt.
class LearnedPolicyCache {
public:
    LearnedPolicyCache(bool full, std::uint64_t seed) : full_(full), seed_(seed) {}

    const TabularPolicy& policy_for(double dt) {
        auto it = cache_.find(dt);
        if (it != cache_.end()) {
            return *it->second;
        }
        ExperimentConfig experiment;
        experiment.dt = dt;
        const MfcConfig config = experiment.mfc(/*eval_horizon_instead=*/true);
        std::fprintf(stderr, "[bench] training MF policy for dt=%.1f (CEM, %s budget)...\n", dt,
                     full_ ? "full" : "default");
        // Warm start the search at the best Boltzmann rule for this delay —
        // a coarse but interpretable initialization that CEM then refines on
        // common-random-number conditioned rollouts.
        const TupleSpace space(config.queue.num_states(), config.d);
        const std::vector<double> beta_grid{0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
        const double beta = best_boltzmann_beta(config, beta_grid, 4, seed_);
        const std::vector<double> warm_start =
            boltzmann_initial_params(space, config.arrivals.num_states(), beta);
        std::fprintf(stderr, "[bench]   warm start: Boltzmann beta=%.2f\n", beta);
        CemTrainingResult trained = train_tabular_cem(
            config, default_cem(full_), full_ ? 4 : 2,
            seed_ + static_cast<std::uint64_t>(dt * 1000), RuleParameterization::Logits,
            /*common_random_numbers=*/true, &warm_start);
        auto stored = std::make_unique<TabularPolicy>(std::move(trained.policy));
        const TabularPolicy& ref = *stored;
        cache_.emplace(dt, std::move(stored));
        return ref;
    }

private:
    bool full_;
    std::uint64_t seed_;
    std::map<double, std::unique_ptr<TabularPolicy>> cache_;
};

/// Formats a confidence interval cell like the paper's "mean ± ci" plots.
inline std::string ci_cell(const ConfidenceInterval& ci, int precision = 3) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f +- %.*f", precision, ci.mean, precision,
                  ci.half_width);
    return buffer;
}

/// Prints a standard bench header naming the reproduced artifact.
inline void print_header(const std::string& artifact, const std::string& description,
                         bool full) {
    std::printf("=== %s ===\n%s\nbudget: %s (use --full for paper scale)\n\n", artifact.c_str(),
                description.c_str(), full ? "FULL (paper scale)" : "default (CI-sized)");
}

} // namespace mflb::bench
