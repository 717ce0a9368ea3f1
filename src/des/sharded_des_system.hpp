/// \file sharded_des_system.hpp
/// Epoch-barrier-parallel simulator of the Section 2.1 finite system: the M
/// queues are partitioned into K contiguous shards that advance in parallel
/// *between* decision epochs and synchronize only at the epoch barrier.
///
/// Why this is exact and not an approximation: the paper's whole premise is
/// that routing decisions are made on Δt-stale information — within a
/// decision epoch every arrival routes on the snapshot frozen at the epoch
/// start, so given the epoch's routing law the M queues evolve as
/// *independent* birth-death processes (eq. (5)). Domain decomposition
/// therefore needs no optimistic rollback and no cross-shard event traffic,
/// and ordering the queues' events in one future event list buys nothing:
/// each shard task runs the exact per-queue epoch kernel of `FiniteSystem`
/// (`QueueKernel`) over its queue slice, in queue order, drawing only from
/// its own `Rng::fork(shard)` stream.
///
/// Per-queue arrival rates are built inside the shard task from |Z|- or
/// K·|Z|-sized barrier inputs, never from an M-sized rate vector:
///  - `Aggregated`: class-level Multinomial — p_j = σ_{z_j}/M is constant
///    within a state class, so the barrier draws the K × |Z| (shard, class)
///    cell totals N_{s,z} ~ Multinomial(N, n_{s,z}·σ_z/M) from the shard
///    histograms (`sample_class_totals`), and each shard spreads its cells
///    over its own queues from its own stream (`ClassCountSampler`, the
///    `destination_law` span) — jointly exactly Multinomial(N, p);
///    r_j = M·λ_t·c_j/N as in `FiniteSystem`;
///  - `PerClient`: the barrier's Algorithm-1 counts, same formula;
///  - `InfiniteClients`: the per-state rate table of
///    `compute_arrival_flow_into`, r_j = λ_t(H^M, z_j);
///  - classical weight-law routers: r_j = M·λ_t·w_j/W, with W the fixed-order
///    sum of the K shard masses. Round-robin is its equal-split mean
///    behavior (r_j = λ_t), as in `FiniteSystem`.
///
/// Idle thinning (InfiniteClients): every queue in state 0 has the same rate
/// r_0, so each independently sees an arrival this epoch with probability
/// q = 1 − e^{−r_0·Δt}. The shard skips a Geometric(q) number of idle queues
/// at a time (⌊E⌋ with E ~ Exp(r_0·Δt)), draws a hit's first arrival from the
/// exponential truncated to [0, Δt), and runs the kernel from fill 1 over
/// the rest of the epoch — exact by memorylessness. An idle queue costs a
/// load and a compare, so idle fleets keep their O(events) cost.
///
/// Epoch structure (on `SystemBase`'s clock; see the "Epoch barrier"
/// section of docs/ARCHITECTURE.md) — one barrier, in which only the
/// caller-RNG draws and O(K·|Z|) bookkeeping are serial:
///  1. *Deterministic compute* — the RNG-free policy query and its
///     row-stochastic check, the routing table (or the InfiniteClients rate
///     table, or the classical weight law and its per-shard masses fanned
///     out over the pool);
///  2. *Serial prologue* — Algorithm 1 client sampling (PerClient) or the
///     (shard, class) cell totals (Aggregated) from the caller's RNG;
///  3. *Parallel phase* — each shard advances its queue slice to the epoch
///     end, touching only its own queues — lock-free, no cross-shard reads.
///     Each shard task ends by folding its integer payloads (state counts up
///     to its occupied high-water mark, packet counters) into a fixed-shape
///     pairwise tree: atomic pending counters pick the last-arriving child
///     to combine each node, which is order-immaterial because only integers
///     travel through the tree (eager reduction);
///  4. *Reduction tail (serial)* — root readout, a fixed-order serial pass
///     over the K shards for the floating-point accumulators (areas,
///     sojourn sums), λ advances.
///
/// Determinism contract: results are a function of (seed, K) only — never
/// of the thread count — because every RNG stream is owned by exactly one
/// shard (or the serial phase), shard work is self-contained, the reduction
/// tree's shape is fixed by K alone (each node writes only its own slot, and
/// its payloads are integers, so the combine order within a level is
/// immaterial), and the floating-point sums keep their fixed serial shard
/// order. tests/test_sharded_des.cpp pins bit-identical episodes across
/// 1/2/8 threads for all three client models, and holds the backend to
/// `FiniteSystem` on a shared conditioned λ path.
#pragma once

#include "queueing/finite_system.hpp"
#include "queueing/sojourn.hpp"
#include "support/rng.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace mflb {

/// Sharded epoch-parallel backend; accepts the same `FiniteSystemConfig` as
/// `FiniteSystem`/`DesSystem` plus its `shards` (K, 0 = min(8, M)) and
/// `threads` (parallel workers, 0 = all cores; never affects results). Like
/// `FiniteSystem`, it ignores `config.fel`.
class ShardedDesSystem : public FiniteBackend {
public:
    /// Default shard count when `config.shards == 0` (clamped to M). Fixed —
    /// not hardware-derived — so results are machine-independent.
    static constexpr std::size_t kDefaultShards = 8;

    explicit ShardedDesSystem(FiniteSystemConfig config);

    std::size_t num_shards() const noexcept { return shards_.size(); }
    /// Queue index range [first, past-the-end) owned by shard s.
    std::pair<std::size_t, std::size_t> shard_range(std::size_t s) const {
        return {shard_begin_[s], shard_begin_[s + 1]};
    }

    /// The batched policy query: observation, the policy's cached scratch
    /// and the rule live in reused buffers, and an RNG-free query runs in the
    /// barrier's deterministic compute phase (see file comment).
    EpochStats step(const UpperLevelPolicy& policy, Rng& rng) override;
    /// Merged across shards (exact histogram merge: the same values as one
    /// recorder fed every shard's jobs, whatever K or the merge order); one
    /// shard pass per epoch, cached.
    std::array<double, 3> sojourn_percentiles() const override;

    /// Cumulative wall-clock split of the epoch since the last reset — the
    /// Amdahl accounting that `bench_des_scale` reports. Four components:
    /// the irreducibly serial prologue (caller-RNG draws + O(K·|Z|)
    /// bookkeeping, plus the policy query when it draws from the caller's
    /// RNG), the deterministic barrier compute (RNG-free policy query,
    /// routing table, the router's per-shard mass fan-out), the reduction
    /// tail (root readout + fixed-order floating-point pass + λ advance),
    /// and the parallel shard tasks (which include the Aggregated count
    /// draw). The serial fraction is serial_seconds() /
    /// total_seconds(): prologue and reduction are the phases that cannot
    /// overlap shard work.
    struct BarrierProfile {
        double serial_prologue_seconds = 0.0;    ///< RNG draws + O(K·|Z|) bookkeeping.
        double overlapped_compute_seconds = 0.0; ///< deterministic barrier compute.
        double reduction_seconds = 0.0;          ///< reduction tail + λ advance.
        double parallel_seconds = 0.0;           ///< shard tasks (wall clock).
        std::uint64_t epochs = 0;                ///< epochs accumulated.

        double serial_seconds() const noexcept {
            return serial_prologue_seconds + reduction_seconds;
        }
        double total_seconds() const noexcept {
            return serial_prologue_seconds + overlapped_compute_seconds +
                   reduction_seconds + parallel_seconds;
        }
    };
    const BarrierProfile& barrier_profile() const noexcept { return profile_; }

protected:
    const char* name() const noexcept override { return "ShardedDesSystem"; }
    /// Forks one independent stream per shard (which draws its busy queues'
    /// first completions under general service) and rebuilds the histograms.
    void reset_state(Rng& rng) override;
    /// The cross-shard reduction maintained at the epoch barrier, O(|Z|).
    void empirical_distribution_into(std::vector<double>& out) const override;
    /// Σ_z z·n_z over the reduced histogram, O(|Z|).
    std::int64_t jobs_in_system() const noexcept override;
    EpochStats rule_epoch(const DecisionRule& h, Rng& rng) override;
    /// Frozen per-queue rates M·λ_t·w_j/W from the router's weight law, W
    /// summed over the shard masses in fixed order (round-robin: the equal
    /// split).
    EpochStats router_epoch(Rng& rng) override;
    /// Grows the registry's slot lanes to K and registers the per-shard
    /// event counter plus the barrier-profile gauges.
    void on_telemetry_attached() override;
    /// Queue-length summary from the reduced histogram, cross-shard-merged
    /// sojourn percentiles, and the cumulative barrier profile.
    void append_epoch_telemetry(MetricsRow& row) override;

private:
    /// All state one shard touches during the parallel phase. Shards never
    /// read or write each other's `Shard` (nor each other's slices of the
    /// global queue arrays), which is what makes the phase lock-free.
    struct Shard {
        std::size_t begin = 0;            ///< first owned queue index.
        std::size_t end = 0;              ///< past-the-end queue index.
        Rng rng{0};                       ///< fork(shard_id) stream, reset-owned.
        std::vector<int> state_counts;    ///< local histogram over Z.
        std::size_t hot_hi = 0;           ///< 1 + highest occupied state index:
                                          ///< state_counts[z] == 0 for z >= hot_hi,
                                          ///< so reductions stop at the high-water
                                          ///< mark instead of walking all of Z.
        ClassCountSampler classes;        ///< per-class count draw (Aggregated).
        QueueTally tally;                 ///< this epoch's counters and sums.
        SojournRecorder sojourn;          ///< local sojourn histogram
                                          ///< (track_sojourn only; merged
                                          ///< across shards on demand).

        explicit Shard(std::size_t num_states) : state_counts(num_states, 0) {}
    };

    /// Parallel phase: shard s's epoch from `epoch_start` — its Aggregated
    /// client counts within its (shard, class) cells, the per-queue kernels
    /// over its slice, then the eager fold into the reduction tree.
    void run_shard_epoch(std::size_t s, double epoch_start);
    /// Runs the kernel on every queue of the shard at rate `rate_of(j, z)`.
    template <class RateOf>
    void advance_slice(Shard& shard, double epoch_start, RateOf rate_of);
    /// InfiniteClients slice with the idle thinning (see file comment).
    void advance_slice_thinned(Shard& shard, double epoch_start);
    /// Records queue j's move from fill z to `next` in the shard histogram.
    void settle(Shard& shard, std::size_t j, int z, int next) noexcept;
    /// Combines tree node (level, i) from its children (shards at level 0).
    /// Writes only the node's own slot; integer payloads, so which child
    /// arrives last is immaterial.
    void combine_node(std::size_t level, std::size_t i);
    /// Reduction tail: reads the folded root (or the single shard), zeroes
    /// the stale histogram tail, runs the fixed-order floating-point pass,
    /// and finalizes the epoch stats.
    EpochStats reduce_tail();
    /// Eager reduction: shard s's task arrives at its leaf-level parent; the
    /// last child to arrive (atomic pending counter) combines the node and
    /// climbs while it remains last. All folding happens inside shard tasks,
    /// so the parallel_for join implies tree completion.
    void eager_fold_from_shard(std::size_t s);
    /// Re-arms the eager-fold pending counters (child counts) for an epoch.
    void reset_tree_pending();
    /// One decision epoch, the tail of every entry point. Exactly one of
    /// {policy, h} is non-null for the policy/rule paths; both null means
    /// the classical-router path. `policy` non-null runs the (RNG-free)
    /// epoch query in the deterministic compute phase; rng-consuming
    /// policies are queried by the caller first and come in through `h`.
    EpochStats run_epoch(const UpperLevelPolicy* policy, UpperLevelPolicy::Scratch* scratch,
                         const DecisionRule* h, Rng& rng);
    /// Cached per-policy scratch, keyed by policy identity so alternating
    /// policies (eval-during-train A/B/A) reuse both workspaces instead of
    /// rebuilding on every switch. Entries live until reset().
    UpperLevelPolicy::Scratch* scratch_for(const UpperLevelPolicy& policy);

    /// One node of the pairwise reduction tree. Only integer-exact payloads
    /// travel through the tree (state counts, packet counters) so the combine
    /// order within a level cannot perturb results; `counts` entries at and
    /// above `hi` are stale leftovers from earlier epochs and are never read.
    struct ReduceNode {
        explicit ReduceNode(std::size_t num_states) : counts(num_states, 0) {}
        std::vector<int> counts;
        std::size_t hi = 0;
        std::uint64_t dropped = 0;
        std::uint64_t accepted = 0;
        std::uint64_t served = 0;
        std::uint64_t completed = 0;
    };

    QueueKernel kernel_; ///< per-queue kernels; queue j touched by its shard only.
    std::size_t threads_ = 0;

    std::vector<Shard> shards_;
    std::vector<std::size_t> shard_begin_; ///< K+1 fence posts over [0, M].

    // Fixed-shape pairwise reduction tree over the K shards: level widths
    // K, ⌈K/2⌉, …, 1, flattened into `tree_` with `tree_off_[l]` the offset
    // of level l's first node (empty when K == 1). `level_width_[l]` is the
    // *input* width of level l (K, then ⌈K/2⌉, …). For the eager fold each
    // node carries a cache-line-padded pending counter, re-armed
    // to its child count every epoch; the counters live in their own array
    // because atomics are not movable and two adjacent nodes' counters must
    // not false-share.
    std::vector<ReduceNode> tree_;
    std::vector<std::size_t> tree_off_;
    std::vector<std::size_t> level_width_;
    struct alignas(64) PendingCount {
        std::atomic<int> n{0};
    };
    std::vector<PendingCount> tree_pending_;
    std::size_t state_hi_ = 0; ///< valid extent of state_counts_; zeros above.

    // Global barrier-phase state.
    std::vector<int> state_counts_;        ///< cross-shard reduction (|Z|).
    std::vector<double> hist_;             ///< H over Z at epoch start.
    std::vector<double> g_;                ///< routing table g[k·|Z| + z].
    std::vector<int> tuple_;               ///< decode buffer (d).
    std::vector<double> suffix_;           ///< suffix products (d + 1).
    std::vector<double> dest_p_;           ///< router weights (M, routers only).
    ArrivalFlow flow_;                     ///< InfiniteClients rates by state (|Z|).
    std::vector<std::uint64_t> counts_;    ///< per-queue client counts (M).
    double rate_scale_ = 0.0;              ///< M·λ_t/N (client counts) or
                                           ///< M·λ_t/W (router weights).
    std::vector<int> sampled_;             ///< PerClient sampled queues (d).
    std::vector<int> states_;              ///< their snapshot states (d).
    std::vector<double> shard_mass_;       ///< per-shard router mass (K).
    std::vector<int> cell_queues_;         ///< queues per (shard, class) cell
                                           ///< (K·|Z|, Aggregated).
    std::vector<double> cell_weights_;     ///< cell weights n_c·σ_z (K·|Z|).
    std::vector<std::uint64_t> cell_clients_; ///< cell totals N_c (K·|Z|).

    // Epoch-keyed cache of the cross-shard sojourn percentiles: one merge
    // pass fills all three; invalidated by advancing an epoch or resetting.
    std::uint64_t epochs_run_ = 0;
    mutable std::array<double, 3> merged_q_{};
    mutable std::uint64_t merged_for_ = ~std::uint64_t{0};

    BarrierProfile profile_;

    // Telemetry (support/telemetry.hpp). Each shard task feeds the event
    // counter's own slot lane once per epoch (wait-free, no RNG, folded in
    // fixed slot order at the barrier), so enabling metrics never couples
    // shards or perturbs the (seed, K) determinism contract. `tracer_` is
    // null whenever spans are disabled — ScopedSpan then costs one branch.
    trace::Tracer* tracer_ = nullptr;
    MetricsRegistry* shard_registry_ = nullptr;
    MetricsRegistry::Id shard_events_id_ = 0;
    MetricsRegistry::Id barrier_prologue_id_ = 0;
    MetricsRegistry::Id barrier_overlap_id_ = 0;
    MetricsRegistry::Id barrier_reduce_id_ = 0;
    MetricsRegistry::Id barrier_parallel_id_ = 0;

    // Policy-query hot path: reusable observation / rule buffers plus a
    // per-policy scratch cache keyed by policy identity (a linear scan over
    // the handful of policies a caller alternates between), so the A/B/A
    // eval-during-train pattern reuses both GEMM workspaces instead of
    // thrashing them. Entries are dropped on reset(); callers must not
    // destroy a policy mid-episode (same lifetime rule as before).
    std::vector<double> obs_;
    DecisionRule rule_;
    struct ScratchEntry {
        const UpperLevelPolicy* policy = nullptr;
        std::unique_ptr<UpperLevelPolicy::Scratch> scratch;
    };
    std::vector<ScratchEntry> policy_scratches_;
};

} // namespace mflb
