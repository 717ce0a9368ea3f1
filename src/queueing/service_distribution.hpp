/// \file service_distribution.hpp
/// First-class service-time distributions for the finite-system simulators.
///
/// The paper's model is M/M/1/B: exponential(α) service baked into every
/// departure-event sampler. Heavy-tailed workloads (ROADMAP: Pareto job
/// sizes stressing the exponential-service assumption) need the service law
/// to be a pluggable component instead. `ServiceDistribution` bundles the
/// four laws used by the classical-baseline suite — exponential,
/// deterministic, two-phase hyperexponential, and bounded Pareto — behind
/// one `sample()` call, all normalized to the same mean 1/α so swapping the
/// law never changes the offered load, only its variability.
///
/// Determinism contract: `sample` consumes a fixed number of RNG draws per
/// call for each kind (exponential 1, deterministic 0, hyperexponential 2,
/// bounded Pareto 1) and never allocates, so the per-shard draw-order
/// determinism of the sharded DES backend is preserved for every kind; the
/// `Exponential` kind delegates to `Rng::exponential` (one draw; a ziggurat
/// sample's count varies) so default-configured trajectories stay
/// bit-identical to the pre-refactor constants (tests/test_golden_trajectories.cpp).
///
/// Closed forms (mean, second moment, CDF) are exposed for the analytic
/// oracles: Pollaczek–Khinchine mean sojourn for M/G/1 validation and
/// KS-style sampler checks (tests/test_service_distribution.cpp).
#pragma once

#include "support/rng.hpp"

#include <string_view>

namespace mflb {

/// Which service-time law the departure-event samplers draw from.
enum class ServiceDistKind {
    Exponential,   ///< the paper's M/M/1/B law (SCV 1).
    Deterministic, ///< constant 1/α (SCV 0) — D/M-style services.
    HyperExp,      ///< balanced-mean two-phase H2, SCV > 1 (bursty sizes).
    BoundedPareto, ///< Pareto(α_tail) truncated to [L, cap·L] (heavy tail).
};

/// "exponential" / "deterministic" / "hyperexp" / "pareto".
std::string_view service_dist_name(ServiceDistKind kind) noexcept;
/// Inverse of service_dist_name; throws std::invalid_argument on unknowns.
ServiceDistKind parse_service_dist(std::string_view name);

/// Declarative service-law configuration carried by `FiniteSystemConfig`;
/// the rate itself stays in `QueueParams::service_rate` (the mean is 1/α for
/// every kind, so Table-1 loads are comparable across laws).
struct ServiceConfig {
    ServiceDistKind kind = ServiceDistKind::Exponential;
    /// HyperExp only: target squared coefficient of variation (> 1).
    double hyper_scv = 4.0;
    /// BoundedPareto only: tail index of the truncated power law (> 0).
    double pareto_alpha = 1.5;
    /// BoundedPareto only: truncation ratio H/L (> 1); larger = heavier tail
    /// mass before the cutoff.
    double pareto_cap = 1000.0;
};

/// A sampleable service-time law with closed-form moments and CDF. Cheap to
/// copy; `sample` is allocation-free and draw-count-deterministic (see file
/// comment), which the simulator hot paths rely on.
class ServiceDistribution {
public:
    /// Exponential with rate 1 (the all-defaults law).
    ServiceDistribution() : ServiceDistribution(ServiceConfig{}, 1.0) {}
    /// The law of `config.kind` scaled to mean `1 / rate`; throws
    /// std::invalid_argument on rate <= 0 or out-of-range shape parameters.
    ServiceDistribution(const ServiceConfig& config, double rate);

    ServiceDistKind kind() const noexcept { return kind_; }
    /// E[S] = 1 / rate for every kind (the normalization contract).
    double mean() const noexcept { return mean_; }
    /// E[S^2] in closed form (finite for every kind — the Pareto is bounded).
    double second_moment() const noexcept { return second_moment_; }
    /// Squared coefficient of variation Var[S] / E[S]^2.
    double scv() const noexcept { return second_moment_ / (mean_ * mean_) - 1.0; }
    /// P(S <= t); exact closed form, used by the KS-style sampler tests.
    double cdf(double t) const noexcept;

    /// One service time. Fixed draw count per kind; never allocates.
    double sample(Rng& rng) const noexcept;

private:
    ServiceDistKind kind_ = ServiceDistKind::Exponential;
    double mean_ = 1.0;
    double second_moment_ = 2.0;
    // Exponential: rate_. HyperExp: phase probability p_ and rates r1_, r2_.
    // BoundedPareto: lower bound low_, upper bound high_, tail index alpha_,
    // and the truncation normalizer trunc_ = 1 - (L/H)^alpha.
    double rate_ = 1.0;
    double p_ = 0.5;
    double r1_ = 1.0;
    double r2_ = 1.0;
    double low_ = 1.0;
    double high_ = 1.0;
    double alpha_ = 1.5;
    double trunc_ = 1.0;
};

/// Pollaczek–Khinchine mean sojourn of the stable M/G/1 queue:
///     E[T] = E[S] + λ E[S^2] / (2 (1 - λ E[S])).
/// Oracle for the analytic baseline tests (finite-B simulations approach it
/// once blocking is negligible). Throws std::invalid_argument unless
/// 0 < λ E[S] < 1.
double mg1_mean_sojourn(double arrival_rate, const ServiceDistribution& service);

} // namespace mflb
