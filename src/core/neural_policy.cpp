#include "core/neural_policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace mflb {

NeuralUpperPolicy::NeuralUpperPolicy(const TupleSpace& space, std::size_t num_lambda_states,
                                     std::shared_ptr<const rl::GaussianPolicy> policy,
                                     RuleParameterization parameterization, std::string name)
    : space_(space),
      num_lambda_states_(num_lambda_states),
      policy_(std::move(policy)),
      parameterization_(parameterization),
      name_(std::move(name)) {
    if (!policy_) {
        throw std::invalid_argument("NeuralUpperPolicy: null policy");
    }
    const std::size_t expected_obs =
        static_cast<std::size_t>(space_.num_states()) + num_lambda_states_;
    if (policy_->obs_dim() != expected_obs) {
        throw std::invalid_argument("NeuralUpperPolicy: network obs dim mismatch");
    }
    const std::size_t expected_action = space_.size() * static_cast<std::size_t>(space_.d());
    if (policy_->action_dim() != expected_action) {
        throw std::invalid_argument("NeuralUpperPolicy: network action dim mismatch");
    }
}

NeuralUpperPolicy::QueryScratch::QueryScratch(const rl::GaussianPolicy& policy)
    : obs(policy.obs_dim(), 0.0) {}

std::unique_ptr<UpperLevelPolicy::Scratch> NeuralUpperPolicy::make_scratch() const {
    return std::make_unique<QueryScratch>(*policy_);
}

void NeuralUpperPolicy::decide_impl(std::span<const double> nu, std::size_t lambda_state,
                                    QueryScratch& scratch, DecisionRule& out) const {
    if (nu.size() != static_cast<std::size_t>(space_.num_states())) {
        throw std::invalid_argument("NeuralUpperPolicy::decide: nu size mismatch");
    }
    if (lambda_state >= num_lambda_states_) {
        throw std::out_of_range("NeuralUpperPolicy::decide: lambda state out of range");
    }
    std::copy(nu.begin(), nu.end(), scratch.obs.begin());
    for (std::size_t s = 0; s < num_lambda_states_; ++s) {
        scratch.obs[nu.size() + s] = s == lambda_state ? 1.0 : 0.0;
    }
    // The network's output is [mean | log-std]; the rule reads the mean.
    const std::span<const double> mean =
        policy_->network().forward_span(scratch.obs, scratch.ws).first(policy_->action_dim());
    switch (parameterization_) {
    case RuleParameterization::Logits:
        out.set_from_logits(mean);
        break;
    case RuleParameterization::Simplex:
        out.set_from_probabilities(mean);
        break;
    }
}

DecisionRule NeuralUpperPolicy::decide(std::span<const double> nu, std::size_t lambda_state,
                                       Rng& /*rng*/) const {
    QueryScratch scratch(*policy_);
    DecisionRule out(space_);
    decide_impl(nu, lambda_state, scratch, out);
    return out;
}

void NeuralUpperPolicy::decide_into(std::span<const double> nu, std::size_t lambda_state,
                                    Rng& /*rng*/, Scratch* scratch, DecisionRule& out) const {
    if (auto* query = dynamic_cast<QueryScratch*>(scratch)) {
        decide_impl(nu, lambda_state, *query, out);
        return;
    }
    QueryScratch local(*policy_);
    decide_impl(nu, lambda_state, local, out);
}

} // namespace mflb
