#include "des/sharded_des_system.hpp"

#include "field/arrival_flow.hpp"
#include "math/vec_ops.hpp"
#include "support/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>

namespace mflb {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// out[0, max_hi) = a + b on the shared prefix, then the taller child's
/// tail. Entries at and above max_hi are left stale — both children are
/// all-zero there by the high-water invariant, and readers never look.
void combine_counts(std::vector<int>& out, std::size_t& out_hi, const std::vector<int>& a,
                    std::size_t a_hi, const std::vector<int>& b, std::size_t b_hi) {
    const std::size_t lo = std::min(a_hi, b_hi);
    const std::size_t hi = std::max(a_hi, b_hi);
    for (std::size_t z = 0; z < lo; ++z) {
        out[z] = a[z] + b[z];
    }
    const std::vector<int>& tall = a_hi >= b_hi ? a : b;
    std::copy(tall.begin() + static_cast<std::ptrdiff_t>(lo),
              tall.begin() + static_cast<std::ptrdiff_t>(hi),
              out.begin() + static_cast<std::ptrdiff_t>(lo));
    out_hi = hi;
}

} // namespace

ShardedDesSystem::ShardedDesSystem(FiniteSystemConfig config)
    : FiniteBackend(std::move(config), "ShardedDesSystem"), kernel_(config_),
      threads_(config_.threads), rule_(space_) {
    const auto num_z = static_cast<std::size_t>(config_.queue.num_states());
    const auto d = static_cast<std::size_t>(config_.d);
    const std::size_t m = config_.num_queues;

    // Shard partition: K contiguous near-equal blocks (the first M mod K
    // shards get one extra queue). K is clamped to M; the default is fixed
    // (not hardware-derived) so (seed, K) fully determines results.
    std::size_t k = config_.shards == 0 ? kDefaultShards : config_.shards;
    k = std::max<std::size_t>(1, std::min(k, m));
    shard_begin_.resize(k + 1);
    const std::size_t base = m / k;
    const std::size_t extra = m % k;
    shard_begin_[0] = 0;
    for (std::size_t s = 0; s < k; ++s) {
        shard_begin_[s + 1] = shard_begin_[s] + base + (s < extra ? 1 : 0);
    }
    shards_.reserve(k);
    for (std::size_t s = 0; s < k; ++s) {
        shards_.emplace_back(num_z);
        shards_.back().begin = shard_begin_[s];
        shards_.back().end = shard_begin_[s + 1];
    }

    state_counts_.assign(num_z, 0);
    state_hi_ = num_z;

    // Reduction-tree shape (level widths K, ⌈K/2⌉, …, 1) is fixed by K
    // alone, never by thread count; K == 1 reduces straight off the shard.
    std::size_t width = k;
    while (width > 1) {
        const std::size_t next = (width + 1) / 2;
        tree_off_.push_back(tree_.size());
        level_width_.push_back(width);
        for (std::size_t i = 0; i < next; ++i) {
            tree_.emplace_back(num_z);
        }
        width = next;
    }
    // Eager-fold pending counters, one per node, sized once here (atomics
    // are immovable, so the vector is constructed in place and never grown).
    tree_pending_ = std::vector<PendingCount>(tree_.size());
    // Barrier buffers, sized once per client model / router so the epoch
    // stays allocation-free: routers need the per-queue weight law and the
    // shard masses, Aggregated the K×|Z| (shard, class) cells and a class
    // sampler per shard, InfiniteClients only the |Z|-sized rate table,
    // PerClient only the client counts.
    if (router_.active()) {
        dest_p_.assign(m, 0.0);
        shard_mass_.assign(k, 0.0);
    } else {
        if (config_.client_model != ClientModel::PerClient) {
            hist_.assign(num_z, 0.0);
            g_.assign(d * num_z, 0.0);
            tuple_.assign(d, 0);
            suffix_.assign(d + 1, 1.0);
        }
        if (config_.client_model == ClientModel::Aggregated) {
            cell_queues_.assign(k * num_z, 0);
            cell_weights_.assign(k * num_z, 0.0);
            cell_clients_.assign(k * num_z, 0);
            // d·N/M bounds the per-queue mean of every rule (p_j ≤ d/M).
            const double max_mean =
                static_cast<double>(config_.d * config_.num_clients) / static_cast<double>(m);
            for (Shard& shard : shards_) {
                shard.classes = ClassCountSampler(num_z, shard.end - shard.begin, max_mean);
            }
        }
        if (config_.client_model == ClientModel::InfiniteClients) {
            flow_.inflow_by_state.assign(num_z, 0.0);
            flow_.rate_by_state.assign(num_z, 0.0);
        } else {
            counts_.assign(m, 0);
        }
        if (config_.client_model == ClientModel::PerClient) {
            sampled_.assign(d, 0);
            states_.assign(d, 0);
        }
    }
    telemetry_series_ = "sharded_epoch";
    if (config_.telemetry != nullptr) {
        set_telemetry(config_.telemetry);
    }
}

void ShardedDesSystem::on_telemetry_attached() {
    tracer_ = session_tracer(telemetry_);
    shard_registry_ = nullptr;
    if (telemetry_ != nullptr && telemetry_->metrics_enabled()) {
        MetricsRegistry& registry = telemetry_->registry();
        registry.ensure_slots(shards_.size());
        shard_events_id_ = registry.counter("des_events_total");
        barrier_prologue_id_ = registry.gauge("barrier_prologue_seconds");
        barrier_overlap_id_ = registry.gauge("barrier_overlap_seconds");
        barrier_reduce_id_ = registry.gauge("barrier_reduce_seconds");
        barrier_parallel_id_ = registry.gauge("barrier_parallel_seconds");
        shard_registry_ = &registry;
    }
}

void ShardedDesSystem::append_epoch_telemetry(MetricsRow& row) {
    const auto m = static_cast<double>(queues_.size());
    row.push("qlen_empty_frac", static_cast<double>(state_counts_[0]) / m);
    row.push("qlen_full_frac",
             static_cast<double>(state_counts_[state_counts_.size() - 1]) / m);
    std::size_t hi = state_hi_;
    while (hi > 1 && state_counts_[hi - 1] == 0) {
        --hi;
    }
    row.push_int("qlen_max", static_cast<std::int64_t>(hi - 1));
    append_sojourn_telemetry(row);
    row.push_int("shards", static_cast<std::int64_t>(shards_.size()));
    // The barrier profile rides the registry (appended after this hook), so
    // the Amdahl split lands in the same row as the queueing metrics.
    shard_registry_->set(barrier_prologue_id_, profile_.serial_prologue_seconds);
    shard_registry_->set(barrier_overlap_id_, profile_.overlapped_compute_seconds);
    shard_registry_->set(barrier_reduce_id_, profile_.reduction_seconds);
    shard_registry_->set(barrier_parallel_id_, profile_.parallel_seconds);
}

void ShardedDesSystem::reset_state(Rng& rng) {
    kernel_.reset(queues_);

    std::fill(state_counts_.begin(), state_counts_.end(), 0);
    state_hi_ = state_counts_.size();
    epochs_run_ = 0;
    merged_for_ = ~std::uint64_t{0};
    profile_ = BarrierProfile{};
    policy_scratches_.clear();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        Shard& shard = shards_[s];
        // One independent O(1)-derived stream per shard: fork(s) never
        // consumes caller draws, and the shard id (not the thread) owns it.
        shard.rng = rng.fork(s);
        kernel_.start_service(queues_, shard.begin, shard.end, shard.rng);
        std::fill(shard.state_counts.begin(), shard.state_counts.end(), 0);
        shard.hot_hi = 1;
        shard.sojourn.reset();
        for (std::size_t j = shard.begin; j < shard.end; ++j) {
            const auto z = static_cast<std::size_t>(queues_[j]);
            ++shard.state_counts[z];
            shard.hot_hi = std::max(shard.hot_hi, z + 1);
        }
        for (std::size_t z = 0; z < state_counts_.size(); ++z) {
            state_counts_[z] += shard.state_counts[z];
        }
    }
}

void ShardedDesSystem::empirical_distribution_into(std::vector<double>& out) const {
    histogram_from_counts_into(state_counts_, queues_.size(), out);
}

std::int64_t ShardedDesSystem::jobs_in_system() const noexcept {
    std::int64_t jobs = 0;
    for (std::size_t z = 1; z < state_hi_; ++z) {
        jobs += static_cast<std::int64_t>(z) * state_counts_[z];
    }
    return jobs;
}

void ShardedDesSystem::settle(Shard& shard, std::size_t j, int z, int next) noexcept {
    if (next != z) {
        --shard.state_counts[static_cast<std::size_t>(z)];
        ++shard.state_counts[static_cast<std::size_t>(next)];
        shard.hot_hi = std::max(shard.hot_hi, static_cast<std::size_t>(next) + 1);
        queues_[j] = next;
    }
}

template <class RateOf>
void ShardedDesSystem::advance_slice(Shard& shard, double epoch_start, RateOf rate_of) {
    SojournRecorder* recorder = config_.track_sojourn ? &shard.sojourn : nullptr;
    for (std::size_t j = shard.begin; j < shard.end; ++j) {
        const int z = queues_[j];
        settle(shard, j, z,
               kernel_.advance(j, z, rate_of(j, z), epoch_start, config_.dt, shard.rng,
                               shard.tally, recorder));
    }
}

void ShardedDesSystem::advance_slice_thinned(Shard& shard, double epoch_start) {
    SojournRecorder* recorder = config_.track_sojourn ? &shard.sojourn : nullptr;
    const std::vector<double>& rate = flow_.rate_by_state;
    const double r0 = rate[0];
    const double dt = config_.dt;
    const double mass = r0 * dt;              // -ln(1 - q)
    const double q = -std::expm1(-mass);      // P(an idle queue sees an arrival)
    // Idle queues still to skip before the next one that sees an arrival:
    // Geometric(q) on {0, 1, ...} as ⌊E⌋, E ~ Exp(−ln(1 − q)). With r_0 = 0
    // no idle queue is ever hit and nothing is drawn.
    const auto idle_gap = [&shard, mass](std::size_t left) -> std::size_t {
        if (mass <= 0.0) {
            return left;
        }
        const double e = std::floor(shard.rng.exponential(mass));
        return e < static_cast<double>(left) ? static_cast<std::size_t>(e) : left;
    };
    std::size_t gap = idle_gap(shard.end - shard.begin);
    for (std::size_t j = shard.begin; j < shard.end; ++j) {
        const int z = queues_[j];
        if (z != 0) {
            settle(shard, j, z,
                   kernel_.advance(j, z, rate[static_cast<std::size_t>(z)], epoch_start, dt,
                                   shard.rng, shard.tally, recorder));
            continue;
        }
        if (gap > 0) {
            --gap;
            continue;
        }
        // First arrival, conditioned on landing in the epoch: the
        // exponential truncated to [0, Δt) by inversion.
        const double first = std::min(-std::log1p(-shard.rng.uniform() * q) / r0, dt);
        settle(shard, j, 0,
               kernel_.advance_from_arrival(j, r0, epoch_start + first, dt - first, shard.rng,
                                            shard.tally, recorder));
        gap = idle_gap(shard.end - j - 1);
    }
}

void ShardedDesSystem::run_shard_epoch(std::size_t s, double epoch_start) {
    Shard& shard = shards_[s];
    const std::size_t n = shard.end - shard.begin;
    trace::ScopedSpan advance_span(tracer_, "shard_advance");
    shard.tally = QueueTally{};
    if (router_.active()) {
        advance_slice(shard, epoch_start,
                      [this](std::size_t j, int) { return rate_scale_ * dest_p_[j]; });
    } else if (config_.client_model == ClientModel::InfiniteClients) {
        advance_slice_thinned(shard, epoch_start);
    } else {
        if (config_.client_model == ClientModel::Aggregated) {
            // The shard's half of the class-level draw: its queues' counts
            // within each (shard, class) cell, from its own stream.
            trace::ScopedSpan law_span(tracer_, "destination_law");
            const std::size_t num_z = shard.state_counts.size();
            shard.classes.sample(
                std::span<const int>(queues_.data() + shard.begin, n), shard.state_counts,
                std::span<const std::uint64_t>(cell_clients_.data() + s * num_z, num_z),
                shard.rng, std::span<std::uint64_t>(counts_.data() + shard.begin, n));
        }
        advance_slice(shard, epoch_start, [this](std::size_t j, int) {
            return rate_scale_ * static_cast<double>(counts_[j]);
        });
    }
    // Lower the high-water mark past any emptied top states so the barrier
    // reduction walks only the occupied prefix next epoch.
    while (shard.hot_hi > 1 && shard.state_counts[shard.hot_hi - 1] == 0) {
        --shard.hot_hi;
    }
    // One lane write per epoch (not per event): the shard owns slot s until
    // the barrier's merge_slots, so this stays wait-free and allocation-free.
    if (shard_registry_ != nullptr) {
        shard_registry_->add(
            shard_events_id_,
            static_cast<double>(shard.tally.accepted + shard.tally.dropped + shard.tally.served),
            s);
    }
    // Eager reduction: fold this shard's integer payloads into the tree now,
    // concurrently with still-running shards. Must be the shard task's final
    // action — everything combine_node reads is written above, and the
    // acq_rel pending counters order child writes before the combining
    // thread's reads.
    if (shards_.size() > 1) {
        eager_fold_from_shard(s);
    }
}

void ShardedDesSystem::combine_node(std::size_t level, std::size_t i) {
    // Combines node (level, i) from its two children — shards at level 0,
    // level-1 nodes above — or passes an orphan child through at odd widths.
    // The node writes only its own slot and sums integers, so whichever
    // child arrives last (and so combines) cannot change the result.
    const std::size_t width = level_width_[level];
    ReduceNode& node = tree_[tree_off_[level] + i];
    const std::size_t a = 2 * i;
    const std::size_t b = a + 1;
    if (level == 0) {
        const Shard& sa = shards_[a];
        if (b < width) {
            const Shard& sb = shards_[b];
            combine_counts(node.counts, node.hi, sa.state_counts, sa.hot_hi,
                           sb.state_counts, sb.hot_hi);
            node.dropped = sa.tally.dropped + sb.tally.dropped;
            node.accepted = sa.tally.accepted + sb.tally.accepted;
            node.served = sa.tally.served + sb.tally.served;
            node.completed = sa.tally.completed + sb.tally.completed;
        } else { // odd level width: pass the orphan child through.
            std::copy_n(sa.state_counts.data(), sa.hot_hi, node.counts.data());
            node.hi = sa.hot_hi;
            node.dropped = sa.tally.dropped;
            node.accepted = sa.tally.accepted;
            node.served = sa.tally.served;
            node.completed = sa.tally.completed;
        }
    } else {
        const ReduceNode* in = tree_.data() + tree_off_[level - 1];
        const ReduceNode& na = in[a];
        if (b < width) {
            const ReduceNode& nb = in[b];
            combine_counts(node.counts, node.hi, na.counts, na.hi, nb.counts, nb.hi);
            node.dropped = na.dropped + nb.dropped;
            node.accepted = na.accepted + nb.accepted;
            node.served = na.served + nb.served;
            node.completed = na.completed + nb.completed;
        } else {
            std::copy_n(na.counts.data(), na.hi, node.counts.data());
            node.hi = na.hi;
            node.dropped = na.dropped;
            node.accepted = na.accepted;
            node.served = na.served;
            node.completed = na.completed;
        }
    }
}

void ShardedDesSystem::reset_tree_pending() {
    // Serial O(#nodes) re-arm before the shard fan-out; the parallel_for
    // submission provides the happens-before to the shard tasks, so relaxed
    // stores suffice.
    for (std::size_t level = 0; level < tree_off_.size(); ++level) {
        const std::size_t width = level_width_[level];
        const std::size_t next = (width + 1) / 2;
        for (std::size_t i = 0; i < next; ++i) {
            tree_pending_[tree_off_[level] + i].n.store(2 * i + 1 < width ? 2 : 1,
                                                        std::memory_order_relaxed);
        }
    }
}

void ShardedDesSystem::eager_fold_from_shard(std::size_t s) {
    // Arrive at the leaf-level parent; the last child to arrive at each node
    // (acq_rel decrement, so the combiner observes both children's writes)
    // combines it and climbs while it remains last. Exactly one arrival
    // reaches each node per child per epoch, so every node is combined
    // exactly once, inside some shard task — the fan-out join therefore
    // implies the root is folded, and publishes it to the main thread.
    std::size_t level = 0;
    std::size_t i = s / 2;
    while (true) {
        std::atomic<int>& pending = tree_pending_[tree_off_[level] + i].n;
        if (pending.fetch_sub(1, std::memory_order_acq_rel) != 1) {
            return; // a sibling is still running; it will combine this node.
        }
        combine_node(level, i);
        ++level;
        if (level == tree_off_.size()) {
            return; // root combined.
        }
        i /= 2;
    }
}

EpochStats ShardedDesSystem::reduce_tail() {
    QueueTally total;
    // Root readout: the single shard directly, or the tree root the shard
    // tasks folded eagerly.
    std::size_t root_hi;
    if (shards_.size() == 1) {
        const Shard& shard = shards_[0];
        root_hi = shard.hot_hi;
        std::copy_n(shard.state_counts.data(), root_hi, state_counts_.data());
        total.dropped = shard.tally.dropped;
        total.accepted = shard.tally.accepted;
        total.served = shard.tally.served;
        total.completed = shard.tally.completed;
    } else {
        const ReduceNode& root = tree_[tree_off_.back()];
        root_hi = root.hi;
        std::copy_n(root.counts.data(), root_hi, state_counts_.data());
        total.dropped = root.dropped;
        total.accepted = root.accepted;
        total.served = root.served;
        total.completed = root.completed;
    }
    // Zero exactly the stale tail left by the previous (possibly taller)
    // histogram; entries at state_hi_ and above are already zero.
    if (state_hi_ > root_hi) {
        std::fill(state_counts_.begin() + static_cast<std::ptrdiff_t>(root_hi),
                  state_counts_.begin() + static_cast<std::ptrdiff_t>(state_hi_), 0);
    }
    state_hi_ = root_hi;

    // The floating-point accumulators keep their fixed serial shard order —
    // part of the determinism contract.
    for (const Shard& shard : shards_) {
        total.sojourn_sum += shard.tally.sojourn_sum;
        total.area += shard.tally.area;
        total.busy += shard.tally.busy;
    }
    return total.epoch_stats(queues_.size(), config_.dt);
}

EpochStats ShardedDesSystem::rule_epoch(const DecisionRule& h, Rng& rng) {
    return run_epoch(nullptr, nullptr, &h, rng);
}

EpochStats ShardedDesSystem::router_epoch(Rng& rng) {
    return run_epoch(nullptr, nullptr, nullptr, rng);
}

EpochStats ShardedDesSystem::step(const UpperLevelPolicy& policy, Rng& rng) {
    if (router_.active()) {
        return step_router(rng);
    }
    require_running();
    // Batched epoch query into persistent buffers: the observation, the
    // policy's cached scratch (e.g. the neural policy's GEMM workspace), and
    // the realized rule are all reused across epochs — the policy query is
    // allocation-free at steady state. Identical draws and rule as the
    // decide() path (decide_into's contract). A query that consumes no
    // caller-RNG draws is deterministic compute and runs in that phase of
    // the barrier; only the observation build stays here.
    const auto t0 = std::chrono::steady_clock::now();
    UpperLevelPolicy::Scratch* scratch = nullptr;
    const bool rng_free = !policy.decide_consumes_rng();
    {
        trace::ScopedSpan span(tracer_, "policy_query");
        scratch = scratch_for(policy);
        observed_distribution_into(rng, obs_);
        if (!rng_free) {
            policy.decide_into(obs_, lambda_state(), rng, scratch, rule_);
        }
    }
    profile_.serial_prologue_seconds += seconds_since(t0);
    if (!rng_free) {
        return step_with_rule(rule_, rng);
    }
    return conserving([&] { return run_epoch(&policy, scratch, nullptr, rng); });
}

UpperLevelPolicy::Scratch* ShardedDesSystem::scratch_for(const UpperLevelPolicy& policy) {
    // Keyed scratch cache: a linear scan over the handful of policies a
    // caller alternates between (eval-during-train A/B/A), so switching back
    // to an already-seen policy reuses its warm workspace instead of
    // rebuilding it every call. nullptr entries (scratch-free policies) are
    // cached too, so repeated lookups stay allocation-free.
    for (ScratchEntry& entry : policy_scratches_) {
        if (entry.policy == &policy) {
            return entry.scratch.get();
        }
    }
    policy_scratches_.push_back({&policy, policy.make_scratch()});
    return policy_scratches_.back().scratch.get();
}

EpochStats ShardedDesSystem::run_epoch(const UpperLevelPolicy* policy,
                                       UpperLevelPolicy::Scratch* scratch,
                                       const DecisionRule* h, Rng& rng) {
    const double epoch_start = epoch_start_time();
    const std::size_t m = queues_.size();
    const std::size_t k = shards_.size();
    const double total_rate = static_cast<double>(m) * lambda_value();
    const double inv_m = 1.0 / static_cast<double>(m);
    // The epoch's decision rule (null on the router path): the RNG-free
    // query writes rule_ first thing in the compute phase.
    const DecisionRule* rule = policy != nullptr ? &rule_ : h;
    const bool aggregated =
        !router_.active() && config_.client_model == ClientModel::Aggregated;

    // ---- Deterministic compute: every RNG-free input of the epoch — the
    // rule (RNG-free policy query), the routing table, the InfiniteClients
    // rate table or the classical weight law, then the router's per-shard
    // masses, one pool task per shard (each writes only its own mass slot).
    const auto t0 = std::chrono::steady_clock::now();
    {
        trace::ScopedSpan span(tracer_, "barrier_overlap");
        if (policy != nullptr) {
            policy->decide_into(obs_, lambda_state(), rng, scratch, rule_);
            require_row_stochastic(rule_);
        }
        if (router_.active()) {
            router_.epoch_weights(queues_, time(), dest_p_);
            parallel_for(
                k,
                [&](std::size_t s) {
                    shard_mass_[s] = vec_sum(std::span<const double>(
                        dest_p_.data() + shard_begin_[s], shard_begin_[s + 1] - shard_begin_[s]));
                },
                threads_);
        } else if (config_.client_model != ClientModel::PerClient) {
            for (std::size_t z = 0; z < hist_.size(); ++z) {
                hist_[z] = inv_m * static_cast<double>(state_counts_[z]);
            }
            if (aggregated) {
                compute_routing_table_into(hist_, *rule, tuple_, suffix_, g_);
                fold_routing_table_rows(g_, hist_.size(), config_.d);
            } else {
                compute_arrival_flow_into(hist_, *rule, lambda_value(), tuple_, flow_);
            }
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    profile_.overlapped_compute_seconds += std::chrono::duration<double>(t1 - t0).count();

    // ---- Serial prologue: the caller-RNG draws and O(K·|Z|) bookkeeping
    // that genuinely cannot overlap shard work.
    {
        trace::ScopedSpan span(tracer_, "barrier_prologue");
        if (router_.active()) {
            double total = 0.0;
            for (const double mass : shard_mass_) { // fixed K-term order.
                total += mass;
            }
            rate_scale_ = total > 0.0 ? total_rate / total : 0.0;
        } else if (config_.client_model != ClientModel::InfiniteClients) {
            rate_scale_ = total_rate / static_cast<double>(config_.num_clients);
            if (!aggregated) {
                // Literal Algorithm 1 on the snapshot — caller-RNG draws, so
                // never offloaded.
                sample_per_client_counts(queues_, *rule, config_.num_clients, rng, sampled_,
                                         states_, counts_);
            } else {
                // Class-level draw: the barrier draws the (shard, class) cell
                // totals from the shard histograms, O(K·|Z|); each shard task
                // then spreads its cells over its own queues from its own
                // stream. Jointly exactly Multinomial(N, p) — FiniteSystem's
                // aggregation.
                const std::size_t num_z = hist_.size();
                for (std::size_t s = 0; s < k; ++s) {
                    std::copy_n(shards_[s].state_counts.data(), num_z,
                                cell_queues_.data() + s * num_z);
                }
                sample_class_totals(config_.num_clients,
                                    std::span<const double>(g_.data(), num_z), cell_queues_, rng,
                                    cell_weights_, cell_clients_);
            }
        }
        if (k > 1) {
            reset_tree_pending();
        }
    }
    const auto t2 = std::chrono::steady_clock::now();
    profile_.serial_prologue_seconds += std::chrono::duration<double>(t2 - t1).count();

    // ---- Parallel phase with eager reduction folds. Thread count never
    // changes which shard consumes which draws, only which core runs them.
    parallel_for(
        k, [&](std::size_t s) { run_shard_epoch(s, epoch_start); }, threads_);
    const auto t3 = std::chrono::steady_clock::now();
    profile_.parallel_seconds += std::chrono::duration<double>(t3 - t2).count();

    // ---- Reduction tail: the tree root is already folded (inside whichever
    // shard task arrived last — the fan-out join published it); read it out,
    // run the fixed-order floating-point pass, advance λ.
    EpochStats stats;
    {
        trace::ScopedSpan span(tracer_, "reduction_tree");
        stats = reduce_tail();
    }
    advance_epoch(rng);
    profile_.reduction_seconds += seconds_since(t3);
    ++profile_.epochs;
    ++epochs_run_; // invalidates the merged-quantile cache.
    return stats;
}

std::array<double, 3> ShardedDesSystem::sojourn_percentiles() const {
    if (merged_for_ != epochs_run_) {
        // One pass over the shards fills all three percentiles; re-merged
        // only after a new epoch. The merge adds bucket counts, so the result
        // equals a single recorder fed every shard's jobs.
        SojournRecorder merged;
        for (const Shard& shard : shards_) {
            merged.merge(shard.sojourn);
        }
        merged_q_ = {merged.p50(), merged.p95(), merged.p99()};
        merged_for_ = epochs_run_;
    }
    return merged_q_;
}

} // namespace mflb
