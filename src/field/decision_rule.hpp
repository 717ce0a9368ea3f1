/// \file decision_rule.hpp
/// Lower-level decision rules h : Z^d -> P(U) — the enlarged actions of the
/// MFC MDP (Section 2.5 of the paper). A rule assigns, to every observed
/// tuple of d stale queue states, a probability over which of the d sampled
/// queues receives the client's jobs.
///
/// Reference rules from the paper:
///  - `mf_jsq`  : eq. (34), all mass uniformly on the argmin coordinates;
///  - `mf_rnd`  : eq. (35), uniform over all d coordinates;
///  - `greedy_softmax` : interpolating family h(u|z̄) ∝ exp(-β z̄_u) with
///    β -> ∞ recovering MF-JSQ and β = 0 recovering MF-RND. This is the
///    1-parameter "how greedy should we be given the staleness Δt" knob that
///    the learned policies effectively tune.
#pragma once

#include "field/tuple_space.hpp"

#include <span>
#include <vector>

namespace mflb {

/// Row-stochastic table over the tuple space: row = tuple index, col = u.
class DecisionRule {
public:
    /// Uniform rule (MF-RND).
    explicit DecisionRule(const TupleSpace& space);

    /// eq. (35): uniform over the d choices regardless of states.
    static DecisionRule mf_rnd(const TupleSpace& space);
    /// eq. (34): uniform over argmin_u z̄_u, zero elsewhere.
    static DecisionRule mf_jsq(const TupleSpace& space);
    /// Boltzmann rule h(u|z̄) ∝ exp(-beta * z̄_u); beta >= 0.
    static DecisionRule greedy_softmax(const TupleSpace& space, double beta);
    /// Per-row softmax of a flat logits vector of length size()*d — the
    /// "Gaussian logits + manual normalization" action parameterization used
    /// with PPO.
    static DecisionRule from_logits(const TupleSpace& space, std::span<const double> logits);
    /// Interprets `probs` (length size()*d) as raw per-row distributions;
    /// each row is clamped to be non-negative and renormalized.
    static DecisionRule from_probabilities(const TupleSpace& space, std::span<const double> probs);

    /// In-place counterparts for the epoch hot paths (the epoch engine
    /// realizes the policy's rule into a persistent table every epoch): same
    /// per-row arithmetic as the static factories bit for bit, zero heap
    /// traffic.
    void set_from_logits(std::span<const double> logits);
    void set_from_probabilities(std::span<const double> probs);

    const TupleSpace& space() const noexcept { return space_; }
    std::size_t rows() const noexcept { return space_.size(); }
    int choices() const noexcept { return space_.d(); }

    /// P(choose coordinate u | observed tuple with flat index `row`).
    double prob(std::size_t row, int u) const noexcept {
        return table_[row * static_cast<std::size_t>(space_.d()) + static_cast<std::size_t>(u)];
    }
    std::span<const double> row(std::size_t r) const noexcept;
    void set_row(std::size_t r, std::span<const double> probs);

    /// Flat view (row-major), length rows()*d.
    std::span<const double> flat() const noexcept { return table_; }

    /// True if every row is a probability vector within `tol`.
    bool is_valid(double tol = 1e-9) const noexcept;

    /// Max-abs difference to another rule on the same space.
    double max_abs_diff(const DecisionRule& other) const noexcept;

private:
    TupleSpace space_;
    std::vector<double> table_;
};

} // namespace mflb
