/// \file calendar_queue.hpp
/// Calendar-queue future event list (Brown 1988): the amortized-O(1)
/// alternative to the indexed binary heap of event_queue.hpp, behind the
/// same indexed-by-slot-id API. Pending events hash into a power-of-two
/// "day" array by virtual bucket index ⌊time / width⌋; each bucket chains
/// its events in exact `(time, id)` lexicographic order through intrusive
/// doubly-linked lists over preallocated per-slot nodes, so every
/// operation is allocation-free after construction.
///
/// Determinism contract (what makes this a drop-in replacement rather than
/// an approximation): buckets partition the time axis and are kept sorted,
/// so the pop sequence is *exactly* the `(time, id)` total order of the
/// pending set — bit-identical to `EventQueue`, hence every downstream RNG
/// draw of the DES backends is unchanged. Pinned by
/// tests/test_calendar_queue.cpp (differential fuzz + golden episodes).
///
/// Complexity: `schedule` inserts into one bucket (O(1) expected at ~1
/// event per bucket); `pop` scans forward from the current virtual bucket
/// until it meets the next event (O(1) expected when the bucket width
/// matches the event spacing); `cancel` unlinks in O(1). A full-cycle scan
/// miss (all pending events more than `nbuckets · width` ahead) falls back
/// to a direct min-scan over the bucket heads and re-anchors the cursor —
/// rare by construction, counted by `bucket_scans()`.
///
/// Memory layout (the constant factor that decides heap-vs-calendar at
/// 10^5+ pending events): one 16-byte node per slot — the pending time and
/// two 32-bit chain links; a slot's bucket is *recomputed* from its time
/// rather than stored, so a hot-path slot touch is one cache line. The day
/// array is 32-bit heads plus a 1-bit-per-bucket occupancy bitmap that
/// min-searches scan with countr_zero instead of probing empty heads.
///
/// Tuning: the width starts at 1 / rate_hint (the configured peak event
/// rate of the DES: aggregated arrivals plus matched departures) and the
/// day array at a small power of two. `retune()` — called by `DesSystem`
/// only at the epoch barrier — grows the day array against the
/// pending-event high-water mark and nudges the width by powers of two
/// when the observed probe/insert-step counters show buckets too fine or
/// too coarse. Both decisions are pure functions of the event history, so
/// episodes stay a function of the seed alone; rebuilds allocate at most
/// once per growth step, never inside the event loop.
#pragma once

#include "des/event_queue.hpp"

#include <cstdint>
#include <vector>

namespace mflb {

/// Calendar-queue FEL; one pending event per slot id, same API and event
/// ordering as `EventQueue`.
class CalendarQueue {
public:
    using Event = EventQueue::Event;

    /// \param capacity  number of event slots (valid ids are 0..capacity-1;
    ///                  at most 2^32 - 2, the 32-bit node link range).
    /// \param rate_hint expected events per unit time; sets the initial
    ///                  bucket width to its reciprocal (non-finite or
    ///                  non-positive hints fall back to width 1).
    explicit CalendarQueue(std::size_t capacity, double rate_hint = 0.0);

    std::size_t capacity() const noexcept { return nodes_.size(); }
    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    /// True if slot `id` currently has a pending event.
    bool contains(std::size_t id) const noexcept {
        return id < nodes_.size() && nodes_[id].prev != kFree;
    }
    /// Scheduled time of slot `id`; throws std::logic_error if absent.
    double time_of(std::size_t id) const;

    /// Schedules (or, if already pending, *reschedules*) slot `id` at `time`.
    /// Throws std::invalid_argument on an out-of-range id.
    void schedule(std::size_t id, double time);

    /// Removes the pending event of slot `id`; returns false if none.
    bool cancel(std::size_t id) noexcept;

    /// Earliest pending event; throws std::logic_error when empty.
    Event peek() const;
    /// Removes and returns the earliest pending event.
    Event pop();

    /// Reschedules the *pending* slot `id` at `time` — the arrival slot's
    /// pop-then-reschedule pattern collapsed into one bucket relocation.
    /// Counts as one pop plus one schedule. Throws std::logic_error if the
    /// slot has no pending event.
    void pop_and_reschedule(std::size_t id, double time);

    /// Drops every pending event (capacity and tuning are unchanged).
    void clear() noexcept;

    /// Epoch-barrier re-tuning: grow the day array against the pending-set
    /// high-water mark and adapt the bucket width from the probe counters
    /// observed since the last call (see file comment). May allocate (day
    /// array growth); never call from inside the event loop.
    void retune();

    /// Lifetime operation counters (monotone; survive clear()).
    std::uint64_t schedules() const noexcept { return schedules_; }
    std::uint64_t pops() const noexcept { return pops_; }
    /// Bucket-head probes performed by min-searches — the calendar's cost
    /// proxy: ~1 per pop when the width matches the event spacing.
    std::uint64_t bucket_scans() const noexcept { return scans_; }

    std::size_t num_buckets() const noexcept { return head_.size(); }
    double bucket_width() const noexcept { return width_; }

private:
    /// 32-bit intrusive links: kNil terminates a chain; kFree in `prev`
    /// marks a slot with no pending event (a head's prev is kNil).
    using Idx = std::uint32_t;
    static constexpr Idx kNil = 0xFFFFFFFFu;
    static constexpr Idx kFree = 0xFFFFFFFEu;
    /// Virtual-index clamp: exactly representable in double and int64, so
    /// far-future events saturate into one shared (still sorted) bucket
    /// instead of overflowing the index arithmetic.
    static constexpr double kMaxVirtual = 4.5e15;

    static bool before(double ta, std::size_t ia, double tb, std::size_t ib) noexcept {
        return ta < tb || (ta == tb && ia < ib);
    }

    /// Virtual bucket index ⌊time / width⌋, clamped to ±kMaxVirtual. The
    /// same function maps events at insert and probes at pop, so the two
    /// can never disagree about a bucket boundary.
    std::int64_t vindex(double time) const noexcept;
    /// Physical bucket of a pending slot — recomputed from its time (the
    /// width only changes at rebuild(), which relinks every event).
    std::size_t bucket_of(double time) const noexcept {
        return static_cast<std::size_t>(vindex(time)) & mask_;
    }

    /// Links `id` (with nodes_[id].time already set) into its bucket in
    /// (time, id) order and maintains the cursor lower bound; no counters.
    void link(Idx id) noexcept;
    /// Unlinks a pending `id` from its bucket; no counters.
    void unlink(Idx id) noexcept;
    /// Establishes the cached minimum (`min_*`); requires size_ > 0.
    void ensure_min() const noexcept;
    /// Min-cache maintenance for a (re)scheduled event.
    void touch_min(std::size_t id, double time) noexcept {
        if (!min_valid_) {
            return;
        }
        if (id == min_id_) {
            min_valid_ = false; // its key moved; rediscover lazily.
        } else if (before(time, id, min_time_, min_id_)) {
            min_time_ = time;
            min_id_ = id;
            min_anchored_ = false; // cur_v_ may trail the new minimum.
        }
    }
    /// Rebuilds every bucket chain under (nbuckets, width); reuses scratch_.
    void rebuild(std::size_t new_buckets, double new_width);

    // Per-slot intrusive storage (capacity-sized, fixed after construction).
    // 16 bytes, never straddling a cache line: the hot path touches one
    // line per slot where separate time/next/prev/bucket arrays touch four.
    struct Node {
        double time = 0.0; ///< pending time (valid iff prev != kFree).
        Idx next = kNil;   ///< in-bucket chain, (time, id)-sorted.
        Idx prev = kFree;  ///< kNil at the head; kFree when not pending.
    };
    static_assert(sizeof(Node) == 16);
    std::vector<Node> nodes_;

    // Day array: head_[b] = first (minimum) event of bucket b or kNil.
    std::vector<Idx> head_;
    /// Occupancy bitmap over the day array (bit b set iff head_[b] != kNil):
    /// min-searches skip runs of empty buckets with countr_zero over words
    /// that stay L1/L2-resident where the head array does not.
    std::vector<std::uint64_t> occ_;
    std::size_t mask_ = 0;       ///< head_.size() - 1 (power of two).
    std::size_t max_buckets_ = 0;///< growth ceiling ≈ 2 · capacity.
    double width_ = 1.0;
    double inv_width_ = 1.0;

    std::size_t size_ = 0;
    std::size_t hwm_ = 0;            ///< max size_ since the last retune().
    mutable std::int64_t cur_v_ = 0; ///< lower bound on pending vindexes.

    // Cached minimum: one scan serves peek + pop back to back.
    mutable bool min_valid_ = false;
    /// True when the cache came from ensure_min() — then cur_v_ is already
    /// anchored at the min's virtual index and pop() can skip the recompute.
    mutable bool min_anchored_ = false;
    mutable double min_time_ = 0.0;
    mutable std::size_t min_id_ = 0;

    // Operation counters (lifetime) and the retune window markers.
    std::uint64_t schedules_ = 0;
    std::uint64_t pops_ = 0;
    mutable std::uint64_t scans_ = 0;
    std::uint64_t steps_ = 0; ///< in-bucket insert comparisons.
    std::uint64_t window_schedules_ = 0;
    std::uint64_t window_pops_ = 0;
    std::uint64_t window_scans_ = 0;
    std::uint64_t window_steps_ = 0;

    std::vector<Idx> scratch_; ///< rebuild id buffer (capacity).
};

} // namespace mflb
