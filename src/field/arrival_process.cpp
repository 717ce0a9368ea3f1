#include "field/arrival_process.hpp"

#include "math/simplex.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace mflb {

ArrivalProcess::ArrivalProcess(std::vector<double> levels, Matrix transition,
                               std::vector<double> initial)
    : levels_(std::move(levels)), transition_(std::move(transition)), initial_(std::move(initial)) {
    if (levels_.empty()) {
        throw std::invalid_argument("ArrivalProcess: need at least one level");
    }
    for (const double level : levels_) {
        // NaN and +inf would pass a plain `<= 0` test and never let a
        // per-queue kernel reach its epoch end.
        if (!std::isfinite(level) || level <= 0.0) {
            throw std::invalid_argument("ArrivalProcess: levels must be finite and > 0, got " +
                                        std::to_string(level));
        }
    }
    if (transition_.rows() != levels_.size() || transition_.cols() != levels_.size()) {
        throw std::invalid_argument("ArrivalProcess: transition shape mismatch");
    }
    for (std::size_t i = 0; i < transition_.rows(); ++i) {
        if (!is_probability_vector(transition_.row(i), 1e-9)) {
            throw std::invalid_argument("ArrivalProcess: transition rows must be stochastic");
        }
    }
    if (initial_.empty()) {
        initial_.assign(levels_.size(), 1.0 / static_cast<double>(levels_.size()));
    }
    if (initial_.size() != levels_.size() || !is_probability_vector(initial_, 1e-9)) {
        throw std::invalid_argument("ArrivalProcess: bad initial distribution");
    }
}

ArrivalProcess ArrivalProcess::paper_two_state(double lambda_high, double lambda_low,
                                               double p_high_to_low, double p_low_to_high) {
    // State 0 = high, state 1 = low, matching eqs. (32)-(33).
    Matrix p{{1.0 - p_high_to_low, p_high_to_low}, {p_low_to_high, 1.0 - p_low_to_high}};
    return ArrivalProcess({lambda_high, lambda_low}, std::move(p));
}

ArrivalProcess ArrivalProcess::constant(double rate) {
    return ArrivalProcess({rate}, Matrix{{1.0}});
}

std::size_t ArrivalProcess::sample_initial(Rng& rng) const {
    return rng.categorical(initial_);
}

std::size_t ArrivalProcess::step(std::size_t state, Rng& rng) const {
    return rng.categorical(transition_.row(state));
}

std::vector<double> ArrivalProcess::stationary(std::size_t iterations) const {
    std::vector<double> pi = initial_;
    for (std::size_t it = 0; it < iterations; ++it) {
        std::vector<double> next = transition_.multiply_left(pi);
        const double delta = l1_distance(pi, next);
        pi = std::move(next);
        if (delta < 1e-14) {
            break;
        }
    }
    return pi;
}

double ArrivalProcess::mean_rate() const {
    const auto pi = stationary();
    return expectation(pi, levels_);
}

} // namespace mflb
