#include "field/mmpp_fit.hpp"

#include "support/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace mflb {

namespace {
/// log Poisson pmf with mean mu at count y (y as double).
double log_poisson(double y, double mu) {
    if (mu <= 0.0) {
        return y == 0.0 ? 0.0 : -1e300;
    }
    return y * std::log(mu) - mu - std::lgamma(y + 1.0);
}
/// Rejects a non-finite or non-positive scale (a NaN mean would send
/// `Rng::poisson` into unbounded recursion).
void check_scale(const char* function, double num_queues, double dt) {
    if (!(std::isfinite(num_queues) && num_queues > 0.0 && std::isfinite(dt) && dt > 0.0)) {
        throw std::invalid_argument(std::string(function) +
                                    ": num_queues and dt must be finite and positive");
    }
}
} // namespace

ArrivalProcess MmppFitResult::to_arrival_process() const {
    return ArrivalProcess(levels, transition, initial);
}

std::vector<std::uint64_t> sample_arrival_counts(const ArrivalProcess& process,
                                                 double num_queues, double dt,
                                                 std::size_t epochs, Rng& rng) {
    check_scale("sample_arrival_counts", num_queues, dt);
    std::vector<std::uint64_t> counts;
    counts.reserve(epochs);
    std::size_t state = process.sample_initial(rng);
    for (std::size_t t = 0; t < epochs; ++t) {
        counts.push_back(rng.poisson(num_queues * process.level(state) * dt));
        state = process.step(state, rng);
    }
    return counts;
}

MmppFitResult fit_arrival_process(std::span<const std::uint64_t> counts, double num_queues,
                                  double dt, const MmppFitConfig& config) {
    const std::size_t horizon = counts.size();
    const std::size_t k = config.num_states;
    if (horizon < 2) {
        throw std::invalid_argument("fit_arrival_process: need at least 2 observations");
    }
    if (k < 1) {
        throw std::invalid_argument("fit_arrival_process: need at least one state");
    }
    check_scale("fit_arrival_process", num_queues, dt);
    const double scale = num_queues * dt; // Poisson mean = scale * level

    std::vector<double> y(horizon);
    for (std::size_t t = 0; t < horizon; ++t) {
        y[t] = static_cast<double>(counts[t]);
    }

    // --- initialization: levels spread evenly over the observed count range
    // (quantile-based inits can collapse two states onto the dominant level
    // when the state occupancies are skewed; an even spread cannot).
    const auto [lo_it, hi_it] = std::minmax_element(y.begin(), y.end());
    const double lo = *lo_it, hi = std::max(*hi_it, *lo_it + 1.0);
    std::vector<double> levels(k);
    Rng rng(config.seed);
    for (std::size_t s = 0; s < k; ++s) {
        const double frac = (static_cast<double>(s) + 0.5) / static_cast<double>(k);
        levels[s] =
            std::max((lo + frac * (hi - lo)) / scale, 1e-6) * (1.0 + 0.01 * rng.normal());
    }
    Matrix transition(k, k);
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
            transition(i, j) = i == j ? 0.8 : 0.2 / std::max<double>(1.0, static_cast<double>(k - 1));
        }
        if (k == 1) {
            transition(i, i) = 1.0;
        }
    }
    std::vector<double> initial(k, 1.0 / static_cast<double>(k));

    MmppFitResult result;
    std::vector<double> alpha(horizon * k), beta(horizon * k), scaling(horizon);
    std::vector<double> gamma(horizon * k);
    std::vector<double> xi_sum(k * k);
    double previous_ll = -1e300;

    for (std::size_t iteration = 0; iteration < config.max_iterations; ++iteration) {
        // --- E step: scaled forward-backward ------------------------------
        auto emission = [&](std::size_t t, std::size_t s) {
            return std::exp(log_poisson(y[t], scale * levels[s]));
        };
        double ll = 0.0;
        // forward
        double norm = 0.0;
        for (std::size_t s = 0; s < k; ++s) {
            alpha[s] = initial[s] * emission(0, s);
            norm += alpha[s];
        }
        norm = std::max(norm, 1e-300);
        scaling[0] = norm;
        for (std::size_t s = 0; s < k; ++s) {
            alpha[s] /= norm;
        }
        ll += std::log(norm);
        for (std::size_t t = 1; t < horizon; ++t) {
            norm = 0.0;
            for (std::size_t s = 0; s < k; ++s) {
                double acc = 0.0;
                for (std::size_t r = 0; r < k; ++r) {
                    acc += alpha[(t - 1) * k + r] * transition(r, s);
                }
                alpha[t * k + s] = acc * emission(t, s);
                norm += alpha[t * k + s];
            }
            norm = std::max(norm, 1e-300);
            scaling[t] = norm;
            for (std::size_t s = 0; s < k; ++s) {
                alpha[t * k + s] /= norm;
            }
            ll += std::log(norm);
        }
        // backward
        for (std::size_t s = 0; s < k; ++s) {
            beta[(horizon - 1) * k + s] = 1.0;
        }
        for (std::size_t t = horizon - 1; t-- > 0;) {
            for (std::size_t s = 0; s < k; ++s) {
                double acc = 0.0;
                for (std::size_t r = 0; r < k; ++r) {
                    acc += transition(s, r) * emission(t + 1, r) * beta[(t + 1) * k + r];
                }
                beta[t * k + s] = acc / scaling[t + 1];
            }
        }
        // responsibilities
        for (std::size_t t = 0; t < horizon; ++t) {
            double total = 0.0;
            for (std::size_t s = 0; s < k; ++s) {
                gamma[t * k + s] = alpha[t * k + s] * beta[t * k + s];
                total += gamma[t * k + s];
            }
            total = std::max(total, 1e-300);
            for (std::size_t s = 0; s < k; ++s) {
                gamma[t * k + s] /= total;
            }
        }
        std::fill(xi_sum.begin(), xi_sum.end(), 0.0);
        for (std::size_t t = 0; t + 1 < horizon; ++t) {
            double total = 0.0;
            for (std::size_t s = 0; s < k; ++s) {
                for (std::size_t r = 0; r < k; ++r) {
                    total += alpha[t * k + s] * transition(s, r) * emission(t + 1, r) *
                             beta[(t + 1) * k + r];
                }
            }
            total = std::max(total, 1e-300);
            for (std::size_t s = 0; s < k; ++s) {
                for (std::size_t r = 0; r < k; ++r) {
                    xi_sum[s * k + r] += alpha[t * k + s] * transition(s, r) *
                                         emission(t + 1, r) * beta[(t + 1) * k + r] / total;
                }
            }
        }

        // --- M step --------------------------------------------------------
        for (std::size_t s = 0; s < k; ++s) {
            double weight = 0.0, weighted_counts = 0.0;
            for (std::size_t t = 0; t < horizon; ++t) {
                weight += gamma[t * k + s];
                weighted_counts += gamma[t * k + s] * y[t];
            }
            levels[s] = std::max(weighted_counts / std::max(weight, 1e-12) / scale, 1e-9);
            initial[s] = gamma[s];
            double row_total = 0.0;
            for (std::size_t r = 0; r < k; ++r) {
                row_total += xi_sum[s * k + r];
            }
            if (row_total > 1e-300) {
                for (std::size_t r = 0; r < k; ++r) {
                    transition(s, r) = xi_sum[s * k + r] / row_total;
                }
            }
        }
        // Normalize the initial distribution (gamma row 0 is normalized
        // already, but keep it robust).
        double init_total = std::accumulate(initial.begin(), initial.end(), 0.0);
        for (double& v : initial) {
            v /= std::max(init_total, 1e-300);
        }

        result.log_likelihood_trace.push_back(ll);
        result.iterations = iteration + 1;
        if (ll - previous_ll < config.tolerance && iteration > 0) {
            break;
        }
        previous_ll = ll;
    }

    // Sort states by level (descending) so state 0 is the high-rate level,
    // matching the paper's (λ_h, λ_l) convention.
    std::vector<std::size_t> order(k);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return levels[a] > levels[b]; });
    result.levels.resize(k);
    result.initial.resize(k);
    result.transition = Matrix(k, k);
    for (std::size_t s = 0; s < k; ++s) {
        result.levels[s] = levels[order[s]];
        result.initial[s] = initial[order[s]];
        for (std::size_t r = 0; r < k; ++r) {
            result.transition(s, r) = transition(order[s], order[r]);
        }
    }
    return result;
}

} // namespace mflb
