#include "queueing/service_distribution.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace mflb {
namespace {

/// Raw k-th moment of Pareto(alpha) truncated to [low, high], normalizer
/// trunc = 1 - (low/high)^alpha:
///     E[X^k] = alpha low^alpha / trunc * (low^(k-alpha) - high^(k-alpha)) / (alpha - k),
/// with the log-form limit when alpha == k.
double bounded_pareto_moment(double low, double high, double alpha, double trunc, int k) {
    const double kk = static_cast<double>(k);
    if (std::abs(alpha - kk) < 1e-12) {
        return alpha * std::pow(low, kk) / trunc * std::log(high / low);
    }
    const double lead = alpha * std::pow(low, alpha) / trunc;
    return lead * (std::pow(low, kk - alpha) - std::pow(high, kk - alpha)) / (alpha - kk);
}

} // namespace

std::string_view service_dist_name(ServiceDistKind kind) noexcept {
    switch (kind) {
    case ServiceDistKind::Exponential:
        return "exponential";
    case ServiceDistKind::Deterministic:
        return "deterministic";
    case ServiceDistKind::HyperExp:
        return "hyperexp";
    case ServiceDistKind::BoundedPareto:
        return "pareto";
    }
    return "exponential";
}

ServiceDistKind parse_service_dist(std::string_view name) {
    if (name == "exponential" || name == "exp" || name == "markov") {
        return ServiceDistKind::Exponential;
    }
    if (name == "deterministic" || name == "det") {
        return ServiceDistKind::Deterministic;
    }
    if (name == "hyperexp" || name == "h2") {
        return ServiceDistKind::HyperExp;
    }
    if (name == "pareto" || name == "bounded-pareto") {
        return ServiceDistKind::BoundedPareto;
    }
    throw std::invalid_argument("unknown service distribution: " + std::string(name) +
                                " (expected exponential|deterministic|hyperexp|pareto)");
}

ServiceDistribution::ServiceDistribution(const ServiceConfig& config, double rate)
    : kind_(config.kind) {
    if (!std::isfinite(rate) || rate <= 0.0) {
        throw std::invalid_argument("ServiceDistribution: rate must be finite and > 0");
    }
    mean_ = 1.0 / rate;
    rate_ = rate;
    switch (kind_) {
    case ServiceDistKind::Exponential:
        second_moment_ = 2.0 / (rate * rate);
        break;
    case ServiceDistKind::Deterministic:
        second_moment_ = mean_ * mean_;
        break;
    case ServiceDistKind::HyperExp: {
        const double c2 = config.hyper_scv;
        if (!(c2 > 1.0)) {
            throw std::invalid_argument("ServiceDistribution: hyper_scv must be > 1");
        }
        // Balanced-mean H2: each phase carries half the mean. Solving
        // scv == c2 gives the phase split below (standard H2 fit).
        const double s = std::sqrt((c2 - 1.0) / (c2 + 1.0));
        p_ = 0.5 * (1.0 + s);
        r1_ = 2.0 * p_ * rate;
        r2_ = 2.0 * (1.0 - p_) * rate;
        second_moment_ = 2.0 * p_ / (r1_ * r1_) + 2.0 * (1.0 - p_) / (r2_ * r2_);
        break;
    }
    case ServiceDistKind::BoundedPareto: {
        alpha_ = config.pareto_alpha;
        const double cap = config.pareto_cap;
        if (!(alpha_ > 0.0)) {
            throw std::invalid_argument("ServiceDistribution: pareto_alpha must be > 0");
        }
        if (!(cap > 1.0)) {
            throw std::invalid_argument("ServiceDistribution: pareto_cap must be > 1");
        }
        // Fit the unit-low law on [1, cap], then rescale so the mean lands
        // on 1/rate — the truncated moments are degree-homogeneous in L.
        const double unit_trunc = 1.0 - std::pow(cap, -alpha_);
        const double unit_mean = bounded_pareto_moment(1.0, cap, alpha_, unit_trunc, 1);
        low_ = mean_ / unit_mean;
        high_ = cap * low_;
        trunc_ = unit_trunc;
        second_moment_ = bounded_pareto_moment(low_, high_, alpha_, trunc_, 2);
        break;
    }
    }
}

double ServiceDistribution::cdf(double t) const noexcept {
    if (t <= 0.0) {
        return 0.0;
    }
    switch (kind_) {
    case ServiceDistKind::Exponential:
        return 1.0 - std::exp(-rate_ * t);
    case ServiceDistKind::Deterministic:
        return t >= mean_ ? 1.0 : 0.0;
    case ServiceDistKind::HyperExp:
        return p_ * (1.0 - std::exp(-r1_ * t)) + (1.0 - p_) * (1.0 - std::exp(-r2_ * t));
    case ServiceDistKind::BoundedPareto:
        if (t <= low_) {
            return 0.0;
        }
        if (t >= high_) {
            return 1.0;
        }
        return (1.0 - std::pow(low_ / t, alpha_)) / trunc_;
    }
    return 0.0;
}

double ServiceDistribution::sample(Rng& rng) const noexcept {
    switch (kind_) {
    case ServiceDistKind::Exponential:
        // Must stay exactly Rng::exponential: the golden-trajectory tests pin
        // default-configured DES runs bit for bit through this call.
        return rng.exponential(rate_);
    case ServiceDistKind::Deterministic:
        return mean_;
    case ServiceDistKind::HyperExp: {
        // Two draws always (phase pick + variate) for draw-count determinism.
        const bool phase1 = rng.uniform() < p_;
        const double u = 1.0 - rng.uniform();
        return -std::log(u) / (phase1 ? r1_ : r2_);
    }
    case ServiceDistKind::BoundedPareto: {
        // Inverse CDF of the truncated power law; u in [0,1) maps to [L, H).
        const double u = rng.uniform();
        return low_ * std::pow(1.0 - u * trunc_, -1.0 / alpha_);
    }
    }
    return mean_;
}

double mg1_mean_sojourn(double arrival_rate, const ServiceDistribution& service) {
    const double rho = arrival_rate * service.mean();
    if (!(arrival_rate > 0.0) || !(rho < 1.0)) {
        throw std::invalid_argument("mg1_mean_sojourn: need 0 < lambda*E[S] < 1");
    }
    return service.mean() + arrival_rate * service.second_moment() / (2.0 * (1.0 - rho));
}

} // namespace mflb
