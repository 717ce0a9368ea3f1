/// \file telemetry.hpp
/// Unified telemetry layer: metrics registry + per-epoch time-series sink.
///
/// `MetricsRegistry` holds named counters, gauges, and log-bucketed
/// histograms (`LogHistogram`).
/// Counters and histograms have one *lane per slot* — a slot is a shard (or
/// rollout slot, or worker) that updates its own lane wait-free during the
/// parallel phase; lanes are folded into the totals in fixed ascending slot
/// order at the epoch barrier (`merge_slots`). Telemetry therefore never
/// consumes RNG draws, never introduces thread-count-dependent reduction
/// orders, and never perturbs the simulators' determinism contract: golden
/// trajectories are bit-exact with telemetry on or off, and the emitted
/// series themselves are a function of (seed, K) only.
///
/// `EpochSeriesSink` turns `MetricsRow` records into JSONL (default) or CSV
/// (path ending in ".csv") — one row per decision epoch or trainer
/// iteration. `TelemetrySession` bundles registry, sink, and the span
/// `trace::Tracer` behind a single non-owning pointer that every simulator
/// and trainer accepts; a null session (the default everywhere) keeps the
/// instrumented code on a single predictable branch.
///
/// Allocation contract: registration, `ensure_slots`, and sink opening
/// allocate (setup time); `add`/`set`/`observe`/`merge_slots` and steady-state
/// row emission do not (row and line buffers grow to a high-water mark on the
/// first rows, then are reused) — tests/test_hotpath_alloc.cpp pins this for
/// the sharded epoch loop with telemetry enabled.
#pragma once

#include "support/statistics.hpp"
#include "support/trace.hpp"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mflb {

/// One time-series record: a series name, a step index, and a flat list of
/// named numeric fields. Keys must have static storage duration or be owned
/// by the registry (its metric names are stable for its lifetime).
class MetricsRow {
public:
    struct Field {
        const char* key = nullptr;
        double value = 0.0;
        bool integral = false;
    };

    MetricsRow() { fields_.reserve(kReservedFields); }

    /// Starts a fresh row; keeps the field capacity (allocation-free reuse).
    void reset(const char* series, std::int64_t step) noexcept {
        series_ = series;
        step_ = step;
        fields_.clear();
    }
    void push(const char* key, double value) { fields_.push_back(Field{key, value, false}); }
    void push_int(const char* key, std::int64_t value) {
        fields_.push_back(Field{key, static_cast<double>(value), true});
    }

    const char* series() const noexcept { return series_; }
    std::int64_t step() const noexcept { return step_; }
    std::size_t size() const noexcept { return fields_.size(); }
    const Field& field(std::size_t i) const { return fields_[i]; }

private:
    static constexpr std::size_t kReservedFields = 64;

    const char* series_ = "";
    std::int64_t step_ = 0;
    std::vector<Field> fields_;
};

/// Named counters, gauges, and histograms with per-slot lanes and a
/// fixed-serial-order barrier merge. Registration is idempotent by name and
/// mutex-guarded; updates are wait-free writes to the caller's own lane
/// (slot s must be updated by at most one thread between merges); `set`,
/// `merge_slots`, and all reads belong to the serial barrier phase. The
/// sharded backend's epoch barrier keeps this contract: gauges (the
/// `barrier_{prologue,overlap,reduce,parallel}_seconds` split) are set in
/// its serial interlude, and per-slot lanes are only merged after the
/// epoch's fan-out join.
class MetricsRegistry {
public:
    using Id = std::uint32_t;

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// Monotone total, accumulated across epochs from per-slot deltas.
    Id counter(std::string_view name);
    /// Last-value metric; serial (barrier-phase) writers only.
    Id gauge(std::string_view name);
    /// p50/p95/p99 from one `LogHistogram` per lane; cumulative over the
    /// registry's lifetime. Lanes merge exactly on read, so the quantiles do
    /// not depend on the lane count or on which lane saw which value.
    Id histogram(std::string_view name);

    /// Grows every counter/histogram to at least `slots` lanes (never
    /// shrinks). Call before the parallel phase that uses them.
    void ensure_slots(std::size_t slots);
    std::size_t slots() const noexcept { return slots_; }

    void add(Id counter, double delta, std::size_t slot = 0) noexcept;
    void set(Id gauge, double value) noexcept;
    void observe(Id histogram, double x, std::size_t slot = 0) noexcept;

    /// Folds every counter's lane deltas into its total, lane 0 first —
    /// the fixed serial reduction order that makes the series thread-count
    /// invariant. Histogram lanes stay put (they merge on read).
    void merge_slots() noexcept;

    /// Total after the last merge_slots() plus lane 0 (the serial lane).
    double counter_total(Id counter) const noexcept;
    double gauge_value(Id gauge) const noexcept;
    /// Cross-lane merged quantile; `which` selects p50 (0), p95 (1), p99 (2).
    double histogram_quantile(Id histogram, int which) const;
    std::uint64_t histogram_count(Id histogram) const noexcept;

    /// Appends every metric to `row` in registration order: counters as
    /// integral totals, gauges as values, histograms as <name>_p50/_p95/_p99
    /// plus <name>_count. Allocation-free (key strings are pre-built).
    void append_to(MetricsRow& row) const;

private:
    struct Counter {
        std::string name;
        double total = 0.0;
        std::vector<double> lanes; ///< per-slot pending deltas.
    };
    struct Gauge {
        std::string name;
        double value = 0.0;
    };
    struct Hist {
        std::string name;
        std::string key_p50, key_p95, key_p99, key_count;
        std::vector<LogHistogram> lanes; ///< one histogram per slot.
    };

    /// `out` = every lane of `histogram` merged (exact; allocation-free).
    void merge_lanes(Id histogram, LogHistogram& out) const noexcept;

    std::mutex register_mutex_;
    std::size_t slots_ = 1;
    std::vector<Counter> counters_;
    std::vector<Gauge> gauges_;
    std::vector<Hist> hists_;
};

enum class SeriesFormat { Jsonl, Csv };

/// Append-only row sink. JSONL writes one self-describing object per row;
/// CSV fixes its column set from the first row and warns once (skipping the
/// row) if a later row's fields differ — use CSV for single-series runs.
/// `write` is mutex-serialized so concurrently instrumented components
/// interleave whole lines, never bytes.
class EpochSeriesSink {
public:
    EpochSeriesSink() = default;
    EpochSeriesSink(const EpochSeriesSink&) = delete;
    EpochSeriesSink& operator=(const EpochSeriesSink&) = delete;
    ~EpochSeriesSink();

    /// Opens `path` (truncating); format is CSV iff it ends in ".csv".
    /// Returns false (and logs) on failure.
    bool open_file(const std::string& path);
    /// Collects rows into an in-memory buffer instead (tests).
    void open_memory(SeriesFormat format);

    bool enabled() const noexcept { return file_ != nullptr || memory_; }
    SeriesFormat format() const noexcept { return format_; }

    void write_row(const MetricsRow& row);
    void flush();
    void close();

    /// Everything written so far (memory mode only).
    const std::string& buffer() const noexcept { return memory_buffer_; }
    std::size_t rows_written() const noexcept { return rows_written_; }

private:
    void format_row(const MetricsRow& row);
    void emit_line();

    std::mutex mutex_;
    std::FILE* file_ = nullptr;
    bool memory_ = false;
    SeriesFormat format_ = SeriesFormat::Jsonl;
    std::string line_;
    std::string memory_buffer_;
    std::vector<std::string> csv_columns_; ///< fixed at the first row.
    bool csv_header_written_ = false;
    bool csv_mismatch_warned_ = false;
    std::size_t rows_written_ = 0;
};

/// End-to-end telemetry configuration, carried by ExperimentConfig and the
/// mflb_cli --metrics-out/--metrics-every/--trace-out flags.
struct TelemetryConfig {
    std::string metrics_out;        ///< series path; "" disables metrics.
    std::string trace_out;          ///< trace JSON path; "" disables spans.
    std::size_t metrics_every = 1;  ///< emit every k-th epoch row (>= 1).
    std::size_t trace_max_threads = 64;
    std::size_t trace_events_per_thread = 1 << 15;

    bool any_enabled() const noexcept { return !metrics_out.empty() || !trace_out.empty(); }
};

/// Owning bundle of registry + sink + tracer behind one pointer. A
/// default-constructed session is fully disabled; a configured one opens its
/// sinks up front and installs its tracer as the ambient tracer (so the
/// `parallel_for` team's `pool_task` spans attach) until destruction. Flushes on destruction.
class TelemetrySession {
public:
    TelemetrySession() = default;
    explicit TelemetrySession(const TelemetryConfig& config);
    TelemetrySession(const TelemetrySession&) = delete;
    TelemetrySession& operator=(const TelemetrySession&) = delete;
    ~TelemetrySession();

    /// In-memory session for tests: metrics into a string buffer, plus an
    /// optional tracer (inspect via tracer()->to_json / thread_events).
    static std::unique_ptr<TelemetrySession> in_memory(SeriesFormat format = SeriesFormat::Jsonl,
                                                       bool with_trace = false);

    bool metrics_enabled() const noexcept { return sink_.enabled(); }
    std::size_t metrics_every() const noexcept { return metrics_every_; }
    MetricsRegistry& registry() noexcept { return registry_; }
    EpochSeriesSink& sink() noexcept { return sink_; }
    trace::Tracer* tracer() noexcept { return tracer_.get(); }

    /// Flushes the series sink and writes the trace file (if configured).
    void flush();

private:
    TelemetryConfig config_;
    std::size_t metrics_every_ = 1;
    MetricsRegistry registry_;
    EpochSeriesSink sink_;
    std::unique_ptr<trace::Tracer> tracer_;
    bool tracer_installed_ = false;
    bool trace_written_ = false;
};

/// The tracer of a possibly-null session (the null-safe accessor every
/// instrumented component uses to arm its ScopedSpans).
inline trace::Tracer* session_tracer(TelemetrySession* session) noexcept {
    return session != nullptr ? session->tracer() : nullptr;
}

} // namespace mflb
