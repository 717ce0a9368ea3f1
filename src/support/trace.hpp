/// \file trace.hpp
/// Scoped-span tracer emitting chrome://tracing "trace event format" JSON.
///
/// One `Tracer` owns a fixed set of pre-sized per-thread event buffers:
/// each thread acquires a buffer slot on its first span (one atomic
/// fetch-add, cached in a thread_local afterwards) and then records
/// complete events ("ph":"X") into it without locks or heap allocation —
/// a span on the simulation hot path costs two clock reads and one
/// bounded push_back. When a buffer fills, further events on that thread
/// are counted as dropped rather than reallocating, so tracing never
/// perturbs the allocation-free steady-state contract of the epoch loops.
///
/// All spans share one monotonic clock (`now_ns`, a process-wide
/// steady_clock origin), which is also the clock behind the bench
/// `TimingLog` section timers (`Stopwatch`) — bench timings and runtime
/// traces are the same time path. The produced JSON loads directly in
/// chrome://tracing or https://ui.perfetto.dev.
///
/// Span names must have static storage duration (string literals), or be
/// interned through `Tracer::intern` (which allocates, so intern at setup
/// time only).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mflb::trace {

/// Nanoseconds on the process-wide monotonic timeline (steady_clock,
/// origin captured on first use). Shared by every Tracer and Stopwatch so
/// spans from different components land on one comparable time axis.
std::uint64_t now_ns() noexcept;

/// Minimal section timer over the shared trace clock — the clock path the
/// bench TimingLog rows are measured on.
class Stopwatch {
public:
    Stopwatch() noexcept : start_(now_ns()) {}
    void restart() noexcept { start_ = now_ns(); }
    std::uint64_t start_ns() const noexcept { return start_; }
    double seconds() const noexcept {
        return static_cast<double>(now_ns() - start_) * 1e-9;
    }

private:
    std::uint64_t start_;
};

/// Collector of complete-span events with per-thread pre-sized buffers.
class Tracer {
public:
    /// One completed span; times are `now_ns` timestamps.
    struct Event {
        const char* name = nullptr;
        std::uint64_t begin_ns = 0;
        std::uint64_t end_ns = 0;
    };

    /// \param max_threads        buffer slots; threads beyond this drop events.
    /// \param events_per_thread  capacity of each slot's event buffer.
    explicit Tracer(std::size_t max_threads = 64, std::size_t events_per_thread = 1 << 15);
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Copies `name` into tracer-owned storage and returns a pointer stable
    /// for the tracer's lifetime. Allocates — call at setup time, not from
    /// the hot path; hot-path spans should use string literals.
    const char* intern(std::string_view name);

    /// Records one completed span on the calling thread's buffer.
    /// Lock-free and allocation-free; drops (and counts) when full.
    void record(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns) noexcept;

    /// Buffer slots claimed by distinct threads so far.
    std::size_t threads_used() const noexcept;
    /// Events recorded across all thread buffers. Call only while no other
    /// thread is recording (e.g. after the parallel phase has joined).
    std::size_t event_count() const noexcept;
    /// Events discarded because a buffer was full or the thread limit was hit.
    std::size_t dropped() const noexcept { return dropped_.load(std::memory_order_relaxed); }

    /// Events of buffer slot `tid` in record order (tests / inspection).
    const std::vector<Event>& thread_events(std::size_t tid) const;

    /// Serializes everything recorded so far as chrome://tracing JSON
    /// ({"traceEvents": [...]}). Same quiescence requirement as event_count.
    void to_json(std::string& out) const;
    /// Writes to_json() to `path`; returns false (and logs) on I/O failure.
    bool write(const std::string& path) const;

private:
    struct ThreadBuffer {
        std::vector<Event> events;
    };

    ThreadBuffer* local_buffer() noexcept;

    std::uint64_t id_;                       ///< process-unique tracer id.
    std::vector<ThreadBuffer> buffers_;
    std::atomic<std::size_t> next_slot_{0};
    std::atomic<std::size_t> dropped_{0};
    std::mutex intern_mutex_;
    std::deque<std::string> interned_;
};

/// Installs `tracer` as the process-wide ambient tracer (nullptr clears).
/// Components without an explicit tracer handle — the shared thread pool's
/// fan-out tasks, bench section timers — consult this; everything else receives
/// its Tracer* through the TelemetrySession plumbing.
void set_active_tracer(Tracer* tracer) noexcept;
/// Current ambient tracer, or nullptr (one relaxed atomic load).
Tracer* active_tracer() noexcept;

/// RAII complete-span: records [construction, destruction) on `tracer`.
/// A null tracer makes every operation a cheap no-op — the disabled path is
/// a single predictable branch.
class ScopedSpan {
public:
    ScopedSpan(Tracer* tracer, const char* name) noexcept : tracer_(tracer) {
        if (tracer_ != nullptr) {
            name_ = name;
            begin_ns_ = now_ns();
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    ~ScopedSpan() {
        if (tracer_ != nullptr) {
            tracer_->record(name_, begin_ns_, now_ns());
        }
    }

private:
    Tracer* tracer_;
    const char* name_ = nullptr;
    std::uint64_t begin_ns_ = 0;
};

} // namespace mflb::trace
