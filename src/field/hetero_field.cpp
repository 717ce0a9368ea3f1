#include "field/hetero_field.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>

namespace mflb {

ClassStateSpace::ClassStateSpace(std::vector<ServerClass> classes, int buffer)
    : classes_(std::move(classes)), buffer_(buffer) {
    if (classes_.empty()) {
        throw std::invalid_argument("ClassStateSpace: need at least one class");
    }
    if (buffer_ < 1) {
        throw std::invalid_argument("ClassStateSpace: buffer must be >= 1");
    }
    double total_weight = 0.0;
    for (const ServerClass& cls : classes_) {
        if (!std::isfinite(cls.service_rate) || cls.service_rate <= 0.0) {
            throw std::invalid_argument("ClassStateSpace: service_rate must be finite and > 0");
        }
        if (!std::isfinite(cls.weight) || cls.weight <= 0.0) {
            throw std::invalid_argument("ClassStateSpace: weight must be finite and > 0");
        }
        total_weight += cls.weight;
    }
    if (std::abs(total_weight - 1.0) > 1e-9) {
        // Normalize so callers can pass raw counts.
        for (ServerClass& cls : classes_) {
            cls.weight /= total_weight;
        }
    }
}

std::size_t ClassStateSpace::index(int c, int z) const {
    if (c < 0 || c >= num_classes() || z < 0 || z > buffer_) {
        throw std::out_of_range("ClassStateSpace::index: out of range");
    }
    return static_cast<std::size_t>(c) * static_cast<std::size_t>(fills()) +
           static_cast<std::size_t>(z);
}

std::vector<double> ClassStateSpace::initial_distribution() const {
    std::vector<double> nu(size(), 0.0);
    for (int c = 0; c < num_classes(); ++c) {
        nu[index(c, 0)] = classes_[static_cast<std::size_t>(c)].weight;
    }
    return nu;
}

namespace {
DecisionRule scored_argmin_rule(const ClassStateSpace& space, int d,
                                const std::function<double(int c, int z)>& score) {
    const TupleSpace tuples = space.tuple_space(d);
    DecisionRule rule(tuples);
    std::vector<int> tuple(static_cast<std::size_t>(d));
    std::vector<double> row(static_cast<std::size_t>(d));
    std::vector<double> values(static_cast<std::size_t>(d));
    for (std::size_t idx = 0; idx < tuples.size(); ++idx) {
        tuples.decode(idx, tuple);
        double best = 1e300;
        for (int u = 0; u < d; ++u) {
            const auto s = static_cast<std::size_t>(tuple[static_cast<std::size_t>(u)]);
            values[static_cast<std::size_t>(u)] = score(space.class_of(s), space.fill_of(s));
            best = std::min(best, values[static_cast<std::size_t>(u)]);
        }
        int ties = 0;
        for (int u = 0; u < d; ++u) {
            ties += (values[static_cast<std::size_t>(u)] == best) ? 1 : 0;
        }
        for (int u = 0; u < d; ++u) {
            row[static_cast<std::size_t>(u)] = values[static_cast<std::size_t>(u)] == best
                                                   ? 1.0 / static_cast<double>(ties)
                                                   : 0.0;
        }
        rule.set_row(idx, row);
    }
    return rule;
}
} // namespace

DecisionRule hetero_sed_rule(const ClassStateSpace& space, int d) {
    return scored_argmin_rule(space, d, [&](int c, int z) {
        return (static_cast<double>(z) + 1.0) / space.server_class(c).service_rate;
    });
}

DecisionRule hetero_jsq_rule(const ClassStateSpace& space, int d) {
    return scored_argmin_rule(space, d,
                              [](int /*c*/, int z) { return static_cast<double>(z); });
}

HeteroDiscretization::HeteroDiscretization(ClassStateSpace space, double dt)
    : space_(std::move(space)), dt_(dt) {
    per_class_.reserve(static_cast<std::size_t>(space_.num_classes()));
    for (int c = 0; c < space_.num_classes(); ++c) {
        per_class_.emplace_back(
            QueueParams{space_.buffer(), space_.server_class(c).service_rate}, dt);
    }
}

MeanFieldStep HeteroDiscretization::step(std::span<const double> nu, const DecisionRule& h,
                                         double lambda_total) const {
    if (nu.size() != space_.size()) {
        throw std::invalid_argument("HeteroDiscretization::step: nu size mismatch");
    }
    // Routing over the joint class-state space (eq. 18-19 verbatim on S).
    const ArrivalFlow flow = compute_arrival_flow(nu, h, lambda_total);

    MeanFieldStep result;
    result.nu_next.assign(nu.size(), 0.0);
    result.drops_by_state.assign(nu.size(), 0.0);
    result.rate_by_state = flow.rate_by_state;
    const auto fills = static_cast<std::size_t>(space_.fills());
    for (std::size_t s = 0; s < nu.size(); ++s) {
        if (nu[s] == 0.0) {
            continue;
        }
        const int c = space_.class_of(s);
        const int z = space_.fill_of(s);
        const std::vector<double> propagated =
            per_class_[static_cast<std::size_t>(c)].propagate_queue(z, flow.rate_by_state[s]);
        const std::size_t base = static_cast<std::size_t>(c) * fills;
        for (std::size_t z2 = 0; z2 < fills; ++z2) {
            result.nu_next[base + z2] += nu[s] * propagated[z2];
        }
        result.drops_by_state[s] = propagated[fills];
        result.expected_drops += nu[s] * propagated[fills];
    }
    return result;
}

HeteroMfcEnv::HeteroMfcEnv(Config config)
    : config_(std::move(config)),
      disc_(config_.space, config_.dt),
      tuple_space_(config_.space.tuple_space(config_.d)) {
    if (config_.horizon <= 0) {
        throw std::invalid_argument("HeteroMfcEnv: horizon must be positive");
    }
    nu_ = config_.space.initial_distribution();
}

void HeteroMfcEnv::reset(Rng& rng) {
    nu_ = config_.space.initial_distribution();
    lambda_state_ = config_.arrivals.sample_initial(rng);
    t_ = 0;
    conditioned_.reset();
}

void HeteroMfcEnv::reset_conditioned(std::vector<std::size_t> lambda_states) {
    if (lambda_states.empty()) {
        throw std::invalid_argument("HeteroMfcEnv: conditioned sequence must be non-empty");
    }
    nu_ = config_.space.initial_distribution();
    t_ = 0;
    lambda_state_ = lambda_states.front();
    conditioned_ = std::move(lambda_states);
}

HeteroMfcEnv::Outcome HeteroMfcEnv::step(const DecisionRule& h, Rng& rng) {
    if (done()) {
        throw std::logic_error("HeteroMfcEnv::step: episode finished");
    }
    const MeanFieldStep transition = disc_.step(nu_, h, lambda_value());
    nu_ = transition.nu_next;
    ++t_;
    if (conditioned_) {
        const auto next = static_cast<std::size_t>(t_);
        lambda_state_ =
            next < conditioned_->size() ? (*conditioned_)[next] : conditioned_->back();
    } else {
        lambda_state_ = config_.arrivals.step(lambda_state_, rng);
    }
    Outcome outcome;
    outcome.drops = transition.expected_drops;
    outcome.reward = -transition.expected_drops;
    outcome.done = done();
    return outcome;
}

double hetero_rollout_drops(HeteroMfcEnv& env, const DecisionRule& h, Rng& rng) {
    double total = 0.0;
    while (!env.done()) {
        total += env.step(h, rng).drops;
    }
    return total;
}

} // namespace mflb
