/// \file mfc_env.hpp
/// The upper-level mean-field control MDP of Section 2.5: states are pairs
/// (ν_t, λ_t) ∈ P(Z) × Λ, actions are lower-level decision rules h_t ∈ H,
/// dynamics follow eq. (29) — λ moves by its modulating chain, ν moves
/// deterministically by the exact discretization T_ν — and the reward is the
/// negative expected per-queue packet drops, eq. (31).
///
/// The environment supports conditioning on a fixed arrival-rate sequence
/// (as in the proof of Theorem 1) so finite systems and the mean-field limit
/// can be compared on identical λ paths.
#pragma once

#include "field/arrival_process.hpp"
#include "field/decision_rule.hpp"
#include "field/transition.hpp"
#include "support/rng.hpp"

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mflb {

/// Configuration of the mean-field control problem (defaults = Table 1).
struct MfcConfig {
    QueueParams queue{};                                    ///< B = 5, α = 1.
    int d = 2;                                              ///< sampled queues per client.
    double dt = 1.0;                                        ///< synchronization delay Δt.
    ArrivalProcess arrivals = ArrivalProcess::paper_two_state(); ///< λ_t chain.
    std::vector<double> nu0;                                ///< ν_0; empty = δ_0 (all empty).
    int horizon = 500;                                      ///< decision epochs per episode.
    double discount = 0.99;                                 ///< γ of the objective (7)/(31).

    /// Episode length matched to total running time ≈ `total_time` units, as
    /// in Figures 4-6 ("integer nearest to 500/Δt").
    static int horizon_for_total_time(double total_time, double dt) noexcept;
};

/// Stationary upper-level policy π̃ : P(Z) × Λ -> P(H). Implementations may
/// be deterministic (ignore `rng`) or stochastic (sample h_t).
class UpperLevelPolicy {
public:
    virtual ~UpperLevelPolicy() = default;
    /// Returns the decision rule for the observed queue-state distribution
    /// (exact ν in the limit model, empirical H^M in finite systems) and the
    /// current arrival-rate modulation state.
    virtual DecisionRule decide(std::span<const double> nu, std::size_t lambda_state,
                                Rng& rng) const = 0;

    /// Opaque per-caller scratch for `decide_into`. Policies whose epoch
    /// query needs workspace (e.g. the neural policy's batched forward pass)
    /// keep it here rather than in mutable members, so one policy instance
    /// stays shareable across concurrently running systems (the evaluator
    /// fans replications out over the thread pool against a single const
    /// policy).
    struct Scratch {
        virtual ~Scratch() = default;
    };
    /// Scratch for this policy's `decide_into`; nullptr when none is needed.
    virtual std::unique_ptr<Scratch> make_scratch() const { return nullptr; }

    /// In-place epoch query for the simulation hot paths: writes the rule
    /// into `out` (same draws, same result as `decide`). The default
    /// forwards to `decide` and move-assigns; overrides (neural policy) are
    /// allocation-free once `scratch` and `out` are warm.
    virtual void decide_into(std::span<const double> nu, std::size_t lambda_state, Rng& rng,
                             Scratch* scratch, DecisionRule& out) const;

    /// True when `decide`/`decide_into` actually draw from `rng` (stochastic
    /// rule selection). All shipped policies are deterministic epoch queries,
    /// so the default is false. The sharded DES epoch barrier uses this to
    /// decide whether the query may run on the overlapped compute task:
    /// deterministic queries overlap; rng-consuming ones stay in the serial
    /// prologue so the caller-RNG draw order is position-independent.
    virtual bool decide_consumes_rng() const noexcept { return false; }

    virtual std::string name() const = 0;
};

/// The MFC MDP environment, eq. (29)-(31).
class MfcEnv {
public:
    explicit MfcEnv(MfcConfig config);

    const MfcConfig& config() const noexcept { return config_; }
    const TupleSpace& tuple_space() const noexcept { return space_; }
    const ExactDiscretization& discretizer() const noexcept { return disc_; }

    /// Starts a fresh episode with λ_0 sampled from the modulating chain.
    void reset(Rng& rng);
    /// Starts an episode with a fixed λ-state sequence (index per epoch);
    /// used to condition finite-system comparisons on identical arrivals.
    void reset_conditioned(std::vector<std::size_t> lambda_states);

    bool done() const noexcept { return t_ >= config_.horizon; }
    int time() const noexcept { return t_; }

    std::span<const double> nu() const noexcept { return nu_; }
    std::size_t lambda_state() const noexcept { return lambda_state_; }
    double lambda_value() const { return config_.arrivals.level(lambda_state_); }

    /// Observation for learning: [ν(0), ..., ν(B), one-hot λ-state].
    std::vector<double> observation() const;
    std::size_t observation_dim() const noexcept;

    struct Outcome {
        double drops = 0.0;  ///< expected per-queue drops this epoch, D_t.
        double reward = 0.0; ///< -drops.
        bool done = false;
    };
    /// Applies a decision rule for one epoch.
    Outcome step(const DecisionRule& h, Rng& rng);

private:
    MfcConfig config_;
    ExactDiscretization disc_;
    TupleSpace space_;
    std::vector<double> nu_;
    MeanFieldStep step_buf_; ///< reused across steps (allocation-free loop).
    std::size_t lambda_state_ = 0;
    int t_ = 0;
    std::optional<std::vector<std::size_t>> conditioned_;
};

/// Rolls out one full episode under `policy`; returns the (optionally
/// discounted) sum of rewards, i.e. the negative packet drops J(π̃).
double rollout_return(MfcEnv& env, const UpperLevelPolicy& policy, Rng& rng,
                      bool discounted = false);

} // namespace mflb
