/// \file neural_policy.hpp
/// Upper-level policy backed by a trained Gaussian network: the deployment
/// path of Figure 2 — each epoch, all clients evaluate the shared network on
/// (H_t^M, λ_t) to obtain the decision rule h_t, then act on their own
/// sampled queue states. Uses the deterministic mean action (the paper's
/// final learned policies are deterministic per Proposition 1).
#pragma once

#include "field/mfc_env.hpp"
#include "policies/tabular.hpp"
#include "rl/gaussian_policy.hpp"

#include <memory>
#include <string>

namespace mflb {

/// Wraps a trained rl::GaussianPolicy as an UpperLevelPolicy.
class NeuralUpperPolicy final : public UpperLevelPolicy {
public:
    /// \param space               tuple space of the decision rules.
    /// \param num_lambda_states   |Λ| (for the one-hot observation tail).
    /// \param policy              trained network (shared ownership so the
    ///                            trainer can keep improving it online).
    /// \param parameterization    how raw outputs map to rules.
    NeuralUpperPolicy(const TupleSpace& space, std::size_t num_lambda_states,
                      std::shared_ptr<const rl::GaussianPolicy> policy,
                      RuleParameterization parameterization = RuleParameterization::Logits,
                      std::string name = "MF-PPO");

    DecisionRule decide(std::span<const double> nu, std::size_t lambda_state,
                        Rng& rng) const override;

    /// Workspace for the epoch query. One per calling system, never shared:
    /// the policy itself stays const and thread-safe.
    struct QueryScratch final : UpperLevelPolicy::Scratch {
        explicit QueryScratch(const rl::GaussianPolicy& policy);
        std::vector<double> obs; ///< observation (H, one-hot λ).
        rl::Mlp::Workspace ws;   ///< per-sample forward activations.
    };
    std::unique_ptr<UpperLevelPolicy::Scratch> make_scratch() const override;

    /// Epoch inference: one per-sample forward pass (rl::Mlp::forward_span,
    /// the arithmetic of rl::GaussianPolicy::mean_action) whose mean half
    /// is realized in place via DecisionRule::set_from_*. Allocation-free
    /// once warm; bit-identical to decide(), which routes through the same
    /// path.
    void decide_into(std::span<const double> nu, std::size_t lambda_state, Rng& rng,
                     Scratch* scratch, DecisionRule& out) const override;

    std::string name() const override { return name_; }

private:
    void decide_impl(std::span<const double> nu, std::size_t lambda_state, QueryScratch& scratch,
                     DecisionRule& out) const;

    TupleSpace space_;
    std::size_t num_lambda_states_;
    std::shared_ptr<const rl::GaussianPolicy> policy_;
    RuleParameterization parameterization_;
    std::string name_;
};

} // namespace mflb
