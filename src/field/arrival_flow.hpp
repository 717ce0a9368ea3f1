/// \file arrival_flow.hpp
/// Mean-field packet routing: eqs. (16)-(19) of the paper.
///
/// Given the queue-state distribution ν ∈ P(Z) and a decision rule h, the
/// agent state distribution is the product measure μ = ν^{⊗d} (16); together
/// with h it induces the state-action distribution G = μ ⊗ h (17); Poisson
/// thinning then yields the per-*state* packet inflow
///     λ'(z) = λ ∫ 1{z̄_u = z} G(dz̄, du)                       (18)
/// and the equivalent per-*queue* arrival rate for queues in state z
///     λ(z) = λ'(z) / ν(z).                                    (19)
#pragma once

#include "field/decision_rule.hpp"
#include "support/rng.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace mflb {

/// Result of the mean-field routing computation for one decision epoch.
struct ArrivalFlow {
    /// λ'(z): total packet inflow rate (per queue count M) into state class z.
    std::vector<double> inflow_by_state;
    /// λ(z) = λ'(z)/ν(z): arrival rate seen by one queue currently in state z;
    /// zero where ν(z) = 0 (no queue occupies the class, rate is immaterial).
    std::vector<double> rate_by_state;
};

/// Computes eq. (18)-(19). `nu` must be a distribution over Z with
/// |Z| = h.space().num_states(); `lambda_total` is the modulated rate λ_t.
/// Complexity O(|Z|^d · d).
ArrivalFlow compute_arrival_flow(std::span<const double> nu, const DecisionRule& h,
                                 double lambda_total);

/// Allocation-free variant for the simulation hot paths: writes into `out`
/// (whose vectors are reused when already |Z|-sized) and borrows
/// `tuple_scratch` as the d-length decode buffer.
void compute_arrival_flow_into(std::span<const double> nu, const DecisionRule& h,
                               double lambda_total, std::vector<int>& tuple_scratch,
                               ArrivalFlow& out);

/// Per-coordinate mean routing probabilities of one client under rule `h`
/// when the d sampled queue states are i.i.d. from `hist`:
///     g(k, z) = E[ h(k | z̄) · 1{z̄_k = z} ] / hist(z) · hist(z)
/// i.e. g[k * |Z| + z] accumulates, over all tuples with z̄_k = z, the
/// leave-one-out weight Π_{i≠k} hist(z̄_i) times h(k | z̄). A queue currently
/// in state z is then a client's destination with probability
/// (1/M) Σ_k g(k, z) — the exact per-client destination law behind the
/// `Aggregated` draw of all three finite-system backends (and the test oracle
/// of the `jsq-d`/`sed-d` router law). Allocation-free: `tuple` (d), `suffix`
/// (d + 1) and `g` (d · |Z|) are caller-owned scratch/output buffers.
void compute_routing_table_into(std::span<const double> hist, const DecisionRule& h,
                                std::span<int> tuple, std::span<double> suffix,
                                std::span<double> g);

/// Folds the routing table `g` (d rows of num_z) into its first row:
/// g[z] ← Σ_k g(k, z), accumulated in ascending k. Returns a view of the
/// folded first row. O(d·|Z|) once, instead of O(M·d) gathers.
std::span<const double> fold_routing_table_rows(std::span<double> g, std::size_t num_z,
                                                int d) noexcept;

/// Literal Algorithm 1 client sampling on the frozen snapshot (the
/// `PerClient` model): each of the N clients draws d queues uniformly at
/// random, applies rule `h` to their states, and the chosen queue's count
/// is incremented. `sampled`/`states` are d-length scratch; `counts` (one
/// per queue) is zeroed first. The RNG draw order (d `uniform_below`, one
/// `categorical`, per client) is part of the simulators' equivalence
/// contract — all three backends share this one implementation so it
/// cannot diverge.
void sample_per_client_counts(std::span<const int> queue_states, const DecisionRule& h,
                              std::uint64_t num_clients, Rng& rng, std::span<int> sampled,
                              std::span<int> states, std::span<std::uint64_t> counts);

/// The exact `Aggregated` draw, step 1. On a Δt-stale snapshot a client's
/// destination law p_j = σ_{z_j}/M (σ the folded routing table) is constant
/// within a *class* — the queues sharing one state. Over cells c = s·|Z| + z
/// (slice s, class z; one slice per shard, or one for the fleet) holding
/// `cell_queues[c]` queues, this draws the cell totals
/// N_c ~ Multinomial(N, n_c·σ_z/Σ) with `weights` as scratch. Cells of zero
/// weight get no clients, not even rounding leftovers.
void sample_class_totals(std::uint64_t num_clients, std::span<const double> class_sums,
                         std::span<const int> cell_queues, Rng& rng, std::span<double> weights,
                         std::span<std::uint64_t> cell_clients);

/// Step 2: one slice's per-queue counts given its class totals, exactly
/// Multinomial(N_z, uniform) within each class z: every queue draws
/// Poisson(μ_z), μ_z = max(0, (N_z − 3√N_z)/n_z), by guide-table inversion;
/// a class whose total K_z exceeds N_z is redrawn, else its N_z − K_z
/// missing clients go one at a time to uniform members (top-ups). Given
/// K_z = k the Poisson counts are Multinomial(k, uniform), so this is exact
/// for any μ_z. A class whose table does not fit, or keeps being redrawn,
/// takes the conditional-binomial chain instead (docs/ARCHITECTURE.md,
/// "Aggregated client counts"). Memory is fixed at construction.
class ClassCountSampler {
public:
    /// Longest table a class may use: the fallback bounds memory, it is not
    /// a second fast path (tables are sized for `max_mean`).
    static constexpr std::size_t kMaxTable = std::size_t{1} << 14;

    /// Running totals since construction.
    struct Stats {
        std::uint64_t class_draws = 0; ///< classes with clients.
        std::uint64_t redraws = 0;     ///< Poisson passes rejected (K_z > N_z).
        std::uint64_t top_ups = 0;     ///< clients added one at a time.
        std::uint64_t fallbacks = 0;   ///< class draws by the binomial chain.
    };

    ClassCountSampler() = default;
    /// Tables for per-queue means up to `max_mean` (d·N/M bounds any rule's)
    /// and slices of up to `max_queues` queues over `num_states` classes.
    ClassCountSampler(std::size_t num_states, std::size_t max_queues, double max_mean);

    /// Fills `counts` from the slice's states, class sizes n_z
    /// (`class_queues`) and class totals N_z (`class_clients`), drawing in
    /// queue order. `class_means` (≥ 0) overrides the default μ_z; the law
    /// does not depend on it (tests force the top-up and redraw regimes).
    void sample(std::span<const int> queue_states, std::span<const int> class_queues,
                std::span<const std::uint64_t> class_clients, Rng& rng,
                std::span<std::uint64_t> counts, std::span<const double> class_means = {});

    const Stats& stats() const noexcept { return stats_; }
    std::size_t table_capacity() const noexcept { return capacity_; }

private:
    /// Poisson(mu) table of class z; leaves len_[z] = 0 when it does not fit.
    void build_table(std::size_t z, double mu);
    std::uint64_t draw(std::size_t z, Rng& rng) const noexcept;

    std::size_t capacity_ = 0;           ///< table entries per class.
    std::vector<double> cdf_;            ///< |Z| × capacity_ CDF tables.
    std::vector<std::uint32_t> guide_;   ///< |Z| × capacity_ guide tables.
    std::vector<std::uint64_t> lo_;      ///< first tabulated count per class.
    std::vector<std::size_t> len_;       ///< table length per class; 0 = none.
    std::vector<std::size_t> begin_;     ///< class z: members_[begin_[z], begin_[z + 1]).
    std::vector<std::size_t> fill_;      ///< member cursor per class.
    std::vector<std::uint64_t> drawn_;   ///< Poisson total K_z per class.
    std::vector<double> means_;          ///< μ_z of the current draw.
    std::vector<std::uint32_t> members_; ///< slice indices grouped by class.
    Stats stats_;
};

/// Probability μ(z̄) = Π_k ν(z̄_k) of an agent observing tuple index `idx`.
double tuple_probability(const TupleSpace& space, std::span<const double> nu, std::size_t idx);

/// Destination-state distribution of a single packet: probability that a
/// packet is routed to *some* queue in state z, i.e. λ'(z)/λ. Sums to one.
std::vector<double> packet_destination_distribution(std::span<const double> nu,
                                                    const DecisionRule& h);

} // namespace mflb
