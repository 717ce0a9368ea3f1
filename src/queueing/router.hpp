/// \file router.hpp
/// Pluggable routing disciplines for the finite-system backends: the
/// classical load-balancer fleet the learned mean-field policy is compared
/// against (random, round-robin, JSQ, JSQ(d), SED(d), SQ over a stale
/// snapshot).
///
/// Dispatch seam: a classical router is an *epoch-barrier weight law*. At
/// every decision epoch it maps the Δt-stale snapshot of queue states to a
/// per-queue routing weight vector w; the backends then realize the common
/// job-stream semantics each in their own exact way —
///  - `FiniteSystem` converts weights to frozen per-queue Poisson rates
///    M·λ_t·w_j/Σw for its per-queue epoch kernels;
///  - `DesSystem` thins the aggregated Poisson arrival stream by binary
///    search on the weight prefix sums (one destination draw per job);
///  - `ShardedDesSystem` sums the weights into per-shard masses at the
///    barrier (Σw in fixed shard order) and each shard task runs the same
///    per-queue kernels at M·λ_t·w_j/Σw, keeping the parallel phase
///    lock-free.
/// Because all three consume the identical law, the routers are
/// statistically equivalent across backends by construction
/// (tests/test_router_equivalence.cpp). Classical routers operate at the
/// job-stream level (the N → ∞ Poisson limit): `ClientModel` and
/// `num_clients` are ignored, exactly like `ClientModel::InfiniteClients`
/// (so `sed-d` has no finite-N client noise; that stays on the policy path).
///
/// The exception is round-robin, which is *not* a weight law (its
/// interarrival times per queue are Erlang, not exponential): `DesSystem`
/// realizes it with a global cyclic arrival cursor, while the rate-based
/// `FiniteSystem` and `ShardedDesSystem` can only represent its equal-split
/// mean behavior (equal weights, every queue at rate λ_t; documented caveat:
/// drop/length statistics then coincide with `random`).
///
/// Power of d: `jsq-d` and `sed-d` are one law. A job samples d queues
/// uniformly i.i.d. and joins the lowest score (uniform ties): z_j for
/// `jsq-d`, (z_j + 1)/speed_j for `sed-d` (speed 1 without `server_speeds`).
/// Queue j gets w_j = (G_≥(s_j)^d − G_>(s_j)^d)/n(s_j), with G_≥(s), G_>(s)
/// the fractions of queues scoring ≥ s, > s and n(s) the queues scoring s.
/// Cells (speed class, z) are sorted by score once at construction: an
/// epoch costs O(M + cells), and memory does not depend on d.
///
/// Staleness semantics: `jsq`, `jsq-d` and `sed-d` read the epoch-start
/// snapshot — always exactly Δt stale, the paper's information model.
/// `sq-stale` adds the orthogonal staleness knob of the classical SQ(stale)
/// policy: it keeps its *own* frozen snapshot refreshed only every
/// `stale_period` time units (rounded up to whole epochs), so the decision
/// information can be arbitrarily older than Δt. At `stale_period == 0` it
/// refreshes every epoch and is bit-identical to `jsq` (regression-pinned).
///
/// `RouterKind::Policy` is not a classical router: it marks the learned /
/// decision-rule path, which keeps its exact legacy code (goldens stay bit
/// for bit). Determinism contract: `epoch_weights` consumes no RNG draws
/// and performs no allocation after construction.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace mflb {

/// Routing discipline selecting each arriving job's destination queue.
enum class RouterKind {
    Policy,     ///< the decision-rule path (learned or fixed mean-field rule).
    Random,     ///< uniform random queue.
    RoundRobin, ///< cyclic (equal-split mean behavior on the rate-based backends).
    Jsq,        ///< join the shortest queue of the Δt-stale snapshot.
    JsqD,       ///< JSQ over d uniformly sampled queues (power of d choices).
    SedD,       ///< shortest expected delay (z + 1)/speed over d sampled queues.
    SqStale,    ///< JSQ over an own snapshot refreshed every `stale_period`.
};

/// "policy" / "random" / "round-robin" / "jsq" / "jsq-d" / "sed-d" / "sq-stale".
std::string_view router_name(RouterKind kind) noexcept;
/// Inverse of router_name; throws std::invalid_argument naming the options.
RouterKind parse_router(std::string_view name);

/// Declarative router selection carried by `FiniteSystemConfig`.
struct RouterSpec {
    RouterKind kind = RouterKind::Policy;
    /// JsqD and SedD: number of sampled queues per job (>= 1). Independent
    /// of the decision-rule `d` — the classical baseline has its own knob.
    int d = 2;
    /// SqStale only: refresh period of the router's own snapshot, in time
    /// units (>= 0; rounded up to whole decision epochs; 0 = every epoch).
    double stale_period = 0.0;
};

/// The epoch-barrier weight-law engine shared by the three backends (see
/// file comment). One instance per system; not thread-safe (the sharded
/// backend calls it only in its serial barrier phase).
class EpochRouter {
public:
    /// Sizes all scratch up front (JsqD and SedD sort their score cells
    /// here). `server_speeds` holds one finite positive speed per queue or
    /// is empty (all 1); only SedD reads it. Throws std::invalid_argument
    /// on out-of-range spec parameters or speeds.
    EpochRouter(const RouterSpec& spec, std::size_t num_queues, std::size_t num_states,
                double dt, std::span<const double> server_speeds);

    const RouterSpec& spec() const noexcept { return spec_; }
    RouterKind kind() const noexcept { return spec_.kind; }
    /// True for every kind except Policy (the backends dispatch on this).
    bool active() const noexcept { return spec_.kind != RouterKind::Policy; }
    /// Snapshot refresh interval in epochs (SqStale; 1 otherwise).
    int refresh_every() const noexcept { return refresh_every_; }

    /// Forgets the SqStale frozen snapshot; call from the system's reset.
    void reset() noexcept { have_frozen_ = false; }

    /// Fills the per-queue routing weights for the epoch starting now.
    /// `snapshot` is the epoch-start queue-state vector (the Δt-stale
    /// information), `epoch` the decision-epoch index, `weights` one slot
    /// per queue (unnormalized; the backends normalize). Consumes no RNG
    /// draws; allocation-free. Must not be called for the Policy kind.
    void epoch_weights(std::span<const int> snapshot, int epoch, std::span<double> weights);

private:
    static void jsq_weights(std::span<const int> snapshot, std::span<double> weights);
    void power_of_d_weights(std::span<const int> snapshot, std::span<double> weights);

    RouterSpec spec_;
    int refresh_every_ = 1;
    // SqStale: the router's own frozen snapshot.
    std::vector<int> frozen_;
    bool have_frozen_ = false;
    // JsqD/SedD: cells c·|Z| + z over the speed classes c.
    std::vector<std::uint32_t> order_;     ///< cells by ascending score.
    std::vector<std::size_t> groups_;      ///< tie group g: order_[groups_[g], groups_[g + 1]).
    std::vector<int> cell_base_;           ///< c_j·|Z| per queue (several classes only).
    std::vector<int> cell_of_;             ///< c_j·|Z| + z_j (several classes only).
    std::vector<double> cell_weight_;      ///< queues per cell, then M·w of one of them.
};

} // namespace mflb
