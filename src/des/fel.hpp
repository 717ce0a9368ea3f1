/// \file fel.hpp
/// The future-event-list seam of the event-driven backends: one facade over
/// the indexed binary heap (event_queue.hpp) and the calendar queue
/// (calendar_queue.hpp), selected by `FelKind` on `FiniteSystemConfig`.
///
/// Both implementations pop events in the identical (time, id) lexicographic
/// order, so the selection changes cost only — never a single RNG draw.
/// Dispatch is one predictable branch per call (no virtuals on the hot
/// path); only the selected implementation is constructed, so the facade
/// costs no extra per-slot memory.
///
/// The facade also owns the FEL operation counters surfaced through the
/// telemetry layer (`fel_schedules` / `fel_pops` / `fel_bucket_scans`):
/// schedule/pop totals are kind-independent, bucket scans are the calendar's
/// cost proxy (0 on the heap).
#pragma once

#include "des/calendar_queue.hpp"
#include "des/event_queue.hpp"
#include "queueing/finite_system.hpp"

#include <cstdint>
#include <memory>
#include <string_view>

namespace mflb {

/// "heap" / "calendar".
std::string_view fel_kind_name(FelKind kind) noexcept;
/// Inverse of fel_kind_name; throws std::invalid_argument naming the options.
FelKind parse_fel_kind(std::string_view name);

/// Peak event rate of a DES built from `config` over `num_queues` queues —
/// the calendar queue's bucket-width hint: the maximum modulated aggregate
/// arrival rate plus the matched departure flux (bounded by both the
/// arrival flux and the aggregate service capacity).
double fel_rate_hint(const FiniteSystemConfig& config, std::size_t num_queues);

/// FEL facade: the `EventQueue` API plus `pop_and_reschedule`, `retune` and
/// the operation counters, dispatched on the configured `FelKind`.
class FutureEventList {
public:
    using Event = EventQueue::Event;

    struct Stats {
        std::uint64_t schedules = 0;
        std::uint64_t pops = 0;
        std::uint64_t bucket_scans = 0; ///< calendar probes; 0 on the heap.
    };

    FutureEventList(FelKind kind, std::size_t capacity, double rate_hint)
        : kind_(kind) {
        if (kind_ == FelKind::Calendar) {
            calendar_ = std::make_unique<CalendarQueue>(capacity, rate_hint);
        } else {
            heap_ = std::make_unique<EventQueue>(capacity);
        }
    }

    FelKind kind() const noexcept { return kind_; }

    std::size_t capacity() const noexcept {
        return kind_ == FelKind::Calendar ? calendar_->capacity() : heap_->capacity();
    }
    std::size_t size() const noexcept {
        return kind_ == FelKind::Calendar ? calendar_->size() : heap_->size();
    }
    bool empty() const noexcept {
        return kind_ == FelKind::Calendar ? calendar_->empty() : heap_->empty();
    }
    bool contains(std::size_t id) const noexcept {
        return kind_ == FelKind::Calendar ? calendar_->contains(id) : heap_->contains(id);
    }
    double time_of(std::size_t id) const {
        return kind_ == FelKind::Calendar ? calendar_->time_of(id) : heap_->time_of(id);
    }

    void schedule(std::size_t id, double time) {
        if (kind_ == FelKind::Calendar) {
            calendar_->schedule(id, time);
        } else {
            ++heap_schedules_;
            heap_->schedule(id, time);
        }
    }
    bool cancel(std::size_t id) noexcept {
        return kind_ == FelKind::Calendar ? calendar_->cancel(id) : heap_->cancel(id);
    }
    Event peek() const {
        return kind_ == FelKind::Calendar ? calendar_->peek() : heap_->peek();
    }
    Event pop() {
        if (kind_ == FelKind::Calendar) {
            return calendar_->pop();
        }
        ++heap_pops_;
        return heap_->pop();
    }
    /// Reschedules the pending slot `id` (typically the just-peeked top) in
    /// one restructuring pass — the arrival slot's fast path on both kinds.
    void pop_and_reschedule(std::size_t id, double time) {
        if (kind_ == FelKind::Calendar) {
            calendar_->pop_and_reschedule(id, time);
        } else {
            ++heap_pops_;
            ++heap_schedules_;
            heap_->pop_and_reschedule(id, time);
        }
    }
    void clear() noexcept {
        if (kind_ == FelKind::Calendar) {
            calendar_->clear();
        } else {
            heap_->clear();
        }
    }
    /// Epoch-barrier re-tuning (day-array growth / width adaptation); no-op
    /// on the heap. Never call from inside the event loop.
    void retune() {
        if (kind_ == FelKind::Calendar) {
            calendar_->retune();
        }
    }

    /// Lifetime operation counters (monotone; survive clear()).
    Stats stats() const noexcept {
        if (kind_ == FelKind::Calendar) {
            return {calendar_->schedules(), calendar_->pops(),
                    calendar_->bucket_scans()};
        }
        return {heap_schedules_, heap_pops_, 0};
    }

private:
    FelKind kind_;
    std::unique_ptr<EventQueue> heap_;
    std::unique_ptr<CalendarQueue> calendar_;
    // The heap predates the counters; count its traffic here so both kinds
    // report comparable fel_* telemetry.
    std::uint64_t heap_schedules_ = 0;
    std::uint64_t heap_pops_ = 0;
};

} // namespace mflb
