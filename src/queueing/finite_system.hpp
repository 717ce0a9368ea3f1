/// \file finite_system.hpp
/// The finite N-client / M-queue system of Section 2.1, simulated exactly per
/// Algorithm 1 of the paper: at every decision epoch all clients observe the
/// same stale snapshot of queue states, each samples d queues uniformly at
/// random, routes its job stream according to the decision rule h_t produced
/// by the upper-level policy, and every queue then evolves as an independent
/// birth-death CTMC for Δt time units at the frozen arrival rate (5).
///
/// Three client models are provided:
///  - `PerClient`        — literal Algorithm 1, O(N) per epoch;
///  - `Aggregated`       — exact O(|Z|^d·d + M) reformulation: client
///    destinations are conditionally i.i.d. given the snapshot, so the
///    per-queue client counts are Multinomial(N, p), with p_j = σ_{z_j}/M in
///    closed form and constant within each state class. The counts are drawn
///    per class (`sample_class_totals`, then `ClassCountSampler`): exact, and
///    statistically identical to PerClient (tested), but cost is independent
///    of N — this is how N = 10^6 runs are exact and fast;
///  - `InfiniteClients`  — the N → ∞ intermediate system of Section 2.2:
///    per-queue rates become the deterministic λ_t(H^M, z_j) of the proof of
///    Theorem 1, while queues remain stochastic.
///
/// One epoch engine for every fleet size: the M queues are partitioned into
/// K contiguous shards (`FiniteSystemConfig::shards`; 0 or 1 is one shard)
/// that advance *between* decision epochs and synchronize only at the epoch
/// barrier. With K = 1 the single shard runs inline on the calling thread
/// and there is no reduction tree; with K > 1 the shards run in parallel.
///
/// Why sharding is exact and not an approximation: the paper's whole premise
/// is that routing decisions are made on Δt-stale information — within a
/// decision epoch every arrival routes on the snapshot frozen at the epoch
/// start, so given the epoch's routing law the M queues evolve as
/// *independent* birth-death processes (eq. (5)). Domain decomposition
/// therefore needs no optimistic rollback and no cross-shard event traffic,
/// and ordering the queues' events in one future event list buys nothing:
/// each shard task runs the exact per-queue epoch kernel (`QueueKernel`)
/// over its queue slice, in queue order, drawing only from its own
/// `Rng::fork(shard)` stream.
///
/// Per-queue arrival rates are built inside the shard task from |Z|- or
/// K·|Z|-sized barrier inputs, never from an M-sized rate vector:
///  - `Aggregated`: class-level Multinomial — p_j = σ_{z_j}/M is constant
///    within a state class, so the barrier draws the K × |Z| (shard, class)
///    cell totals N_{s,z} ~ Multinomial(N, n_{s,z}·σ_z/M) from the shard
///    histograms (`sample_class_totals`), and each shard spreads its cells
///    over its own queues from its own stream (`ClassCountSampler`, the
///    `destination_law` span) — jointly exactly Multinomial(N, p);
///    r_j = M·λ_t·c_j/N;
///  - `PerClient`: the barrier's Algorithm-1 counts, same formula;
///  - `InfiniteClients`: the per-state rate table of
///    `compute_arrival_flow_into`, r_j = λ_t(H^M, z_j);
///  - classical weight-law routers: r_j = M·λ_t·w_j/W, with W the fixed-order
///    sum of the K shard masses. Round-robin is its equal-split mean
///    behavior (r_j = λ_t).
///
/// Idle thinning (InfiniteClients): every queue in state 0 has the same rate
/// r_0, so each independently sees an arrival this epoch with probability
/// q = 1 − e^{−r_0·Δt}. The shard skips a Geometric(q) number of idle queues
/// at a time (⌊E⌋ with E ~ Exp(r_0·Δt)), draws a hit's first arrival from the
/// exponential truncated to [0, Δt), and runs the kernel from fill 1 over
/// the rest of the epoch — exact by memorylessness. An idle queue costs a
/// load and a compare, so idle fleets keep their O(events) cost.
///
/// Epoch structure (on `SystemBase`'s clock; see the "Epoch engine" section
/// of docs/ARCHITECTURE.md) — one barrier, in which only the caller-RNG
/// draws and O(K·|Z|) bookkeeping are serial:
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
/// 1/2/8 threads for all three client models, and holds the engine to the
/// event-driven `DesSystem` on a shared conditioned λ path.
///
/// Built on `FiniteBackend` (λ-chain, step guards, episode loop, stats
/// accumulation). The epoch is allocation-free in steady state: every
/// per-step buffer (the g table, tuple decode, suffix products, the
/// (shard, class) cells and the class samplers' tables, client counts, the
/// policy query's observation, scratch and rule) is sized at construction or
/// on the first step, so `step`/`step_with_rule` perform zero heap
/// allocations after the first step.
/// Consequence: a FiniteSystem instance must not be shared across threads
/// (the Monte Carlo harness gives each replication its own instance).
#pragma once

#include "field/arrival_flow.hpp"
#include "queueing/finite_backend.hpp"
#include "queueing/gillespie.hpp"
#include "queueing/sojourn.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace mflb {

/// Per-epoch tallies of a run of per-queue kernels, summed in queue order:
/// the packet counters plus the floating-point sums the epoch statistics
/// divide out.
struct QueueTally {
    std::uint64_t dropped = 0;
    std::uint64_t accepted = 0;
    std::uint64_t served = 0;
    std::uint64_t completed = 0; ///< jobs whose sojourn was measured.
    double area = 0.0;           ///< Σ_j ∫ z_j dτ.
    double busy = 0.0;           ///< Σ_j ∫ 1{z_j > 0} dτ.
    double sojourn_sum = 0.0;    ///< Σ sojourns of the completed jobs.

    /// Epoch statistics of `num_queues` queues over an epoch of length `dt`.
    EpochStats epoch_stats(std::size_t num_queues, double dt) const;
};

/// The exact per-queue epoch kernel of the Section 2.1 system behind one
/// dispatch: the exponential Gillespie kernel, its sojourn variant when
/// `track_sojourn` is on, or the general-service kernel for non-exponential
/// laws and heterogeneous speeds. It owns the state those kernels carry
/// across epochs — each queue's FIFO arrival stamps and the completion clock
/// of its job in service — so the shard tasks of `FiniteSystem` (which touch
/// disjoint queues) draw and tally alike.
class QueueKernel {
public:
    /// `config` must be a constructed backend's (checked) config.
    explicit QueueKernel(const FiniteSystemConfig& config);

    /// Re-seeds the carried state for the fleet `queues`: job rings holding
    /// z_j jobs stamped 0 (track_sojourn), idle completion clocks (general
    /// service). Draws nothing.
    void reset(std::span<const int> queues);
    /// General service only: draws the completion time of the job in
    /// service at every busy queue in [begin, end), in queue order.
    void start_service(std::span<const int> queues, std::size_t begin, std::size_t end,
                       Rng& rng);

    /// Advances queue j from fill `z` over [t0, t0 + dt) under Poisson
    /// arrivals at `rate`, adds the outcome to `tally` (and completed
    /// sojourns to `recorder` when non-null), and returns the final fill.
    int advance(std::size_t j, int z, double rate, double t0, double dt, Rng& rng,
                QueueTally& tally, SojournRecorder* recorder = nullptr);
    /// Idle queue j whose first arrival of the epoch is at absolute time `t`:
    /// admits that job, then advances from fill 1 over [t, t + rest). Exact
    /// by memorylessness — the idle thinning of `FiniteSystem`.
    int advance_from_arrival(std::size_t j, double rate, double t, double rest, Rng& rng,
                             QueueTally& tally, SojournRecorder* recorder = nullptr);

private:
    double speed(std::size_t j) const noexcept {
        return speeds_.empty() ? 1.0 : speeds_[j];
    }

    ServiceDistribution service_;
    std::vector<double> speeds_; ///< per-queue server speeds; empty = all 1.
    double service_rate_;
    int buffer_;
    bool track_sojourn_;
    bool general_;
    JobRings jobs_;              ///< per-queue FIFO timestamps (track_sojourn).
    /// Absolute completion time of the job in service at queue j (+inf when
    /// idle), carried across epochs (general service only).
    std::vector<double> next_completion_;
};

/// Exact simulator of the finite (or infinite-client) queuing system: the
/// epoch engine behind every `SimBackend` except the event-driven `Des`.
/// Accepts the same `FiniteSystemConfig` as `DesSystem` plus its `shards`
/// (K, clamped to [1, M]; 0 = 1) and `threads` (parallel workers, 0 = all
/// cores; never affects results). It ignores `config.fel`.
class FiniteSystem : public FiniteBackend {
public:
    explicit FiniteSystem(FiniteSystemConfig config);

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

    /// Per-queue arrival rates under `h` for the *current* snapshot — eq.
    /// (5) and its aggregation, exposed for tests and the routing-cost probe.
    /// Runs the epoch barrier's own rate inputs (the caller-RNG draws, and
    /// every shard's Aggregated count spread) drawing only from `rng`: no
    /// shard stream moves, so the trajectory is untouched. Throws
    /// std::logic_error when a classical router is configured.
    std::vector<double> compute_queue_rates(const DecisionRule& h, Rng& rng);

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
    const char* name() const noexcept override { return "FiniteSystem"; }
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
    /// sojourn percentiles, K, and the cumulative barrier profile.
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
        /// Local sojourn histogram (merged across shards on demand);
        /// allocated only when track_sojourn is on, so the 49 KB histogram
        /// costs nothing otherwise.
        std::unique_ptr<SojournRecorder> sojourn;

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
    /// Deterministic compute of the rule path: the snapshot histogram and
    /// the folded routing table (Aggregated) or the per-state rate table
    /// (InfiniteClients). PerClient needs neither.
    void rule_inputs(const DecisionRule& h);
    /// Serial prologue of the rule path, from `rng`: the per-queue counts
    /// (PerClient) or the (shard, class) cell totals (Aggregated), and the
    /// count-to-rate scale.
    void draw_rule_inputs(const DecisionRule& h, Rng& rng);
    /// Shard s's half of the Aggregated draw: its queues' counts within its
    /// (shard, class) cells, from `rng`.
    void spread_cell_counts(std::size_t s, Rng& rng);
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
    std::unique_ptr<std::uint64_t[]> counts_; ///< per-queue client counts (M).
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
    // eval-during-train pattern reuses both workspaces instead of thrashing
    // them. Entries are dropped on reset(); callers must not destroy a
    // policy mid-episode (same lifetime rule as before).
    std::vector<double> obs_;
    DecisionRule rule_;
    struct ScratchEntry {
        const UpperLevelPolicy* policy = nullptr;
        std::unique_ptr<UpperLevelPolicy::Scratch> scratch;
    };
    std::vector<ScratchEntry> policy_scratches_;
};

/// The engine's name before it absorbed the single-shard simulator; kept
/// for the benchmark sources until they are renamed.
using ShardedDesSystem = FiniteSystem;

} // namespace mflb
