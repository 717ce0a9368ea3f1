#include "support/telemetry.hpp"

#include "support/logging.hpp"

#include <cmath>
#include <cstdio>

namespace mflb {

namespace {

/// The quantiles behind histogram_quantile's `which` and the _p50/_p95/_p99
/// row fields.
constexpr double kHistogramQuantiles[3] = {0.50, 0.95, 0.99};

/// Formats `value` into `out` without allocating: integral fields print as
/// integers, non-finite values as null (JSON has no NaN/Inf literal).
void append_value(std::string& out, double value, bool integral, SeriesFormat format) {
    char buf[40];
    if (!std::isfinite(value)) {
        out.append(format == SeriesFormat::Jsonl ? "null" : "nan");
        return;
    }
    if (integral) {
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    } else {
        std::snprintf(buf, sizeof(buf), "%.10g", value);
    }
    out.append(buf);
}

} // namespace

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::Id MetricsRegistry::counter(std::string_view name) {
    std::lock_guard lock(register_mutex_);
    for (std::size_t i = 0; i < counters_.size(); ++i) {
        if (counters_[i].name == name) {
            return static_cast<Id>(i);
        }
    }
    Counter c;
    c.name.assign(name);
    c.lanes.assign(slots_, 0.0);
    counters_.push_back(std::move(c));
    return static_cast<Id>(counters_.size() - 1);
}

MetricsRegistry::Id MetricsRegistry::gauge(std::string_view name) {
    std::lock_guard lock(register_mutex_);
    for (std::size_t i = 0; i < gauges_.size(); ++i) {
        if (gauges_[i].name == name) {
            return static_cast<Id>(i);
        }
    }
    gauges_.push_back(Gauge{std::string(name), 0.0});
    return static_cast<Id>(gauges_.size() - 1);
}

MetricsRegistry::Id MetricsRegistry::histogram(std::string_view name) {
    std::lock_guard lock(register_mutex_);
    for (std::size_t i = 0; i < hists_.size(); ++i) {
        if (hists_[i].name == name) {
            return static_cast<Id>(i);
        }
    }
    Hist h;
    h.name.assign(name);
    h.key_p50 = h.name + "_p50";
    h.key_p95 = h.name + "_p95";
    h.key_p99 = h.name + "_p99";
    h.key_count = h.name + "_count";
    h.lanes.resize(slots_);
    hists_.push_back(std::move(h));
    return static_cast<Id>(hists_.size() - 1);
}

void MetricsRegistry::ensure_slots(std::size_t slots) {
    std::lock_guard lock(register_mutex_);
    if (slots <= slots_) {
        return;
    }
    slots_ = slots;
    for (Counter& c : counters_) {
        c.lanes.resize(slots_, 0.0);
    }
    for (Hist& h : hists_) {
        h.lanes.resize(slots_);
    }
}

void MetricsRegistry::add(Id counter, double delta, std::size_t slot) noexcept {
    counters_[counter].lanes[slot] += delta;
}

void MetricsRegistry::set(Id gauge, double value) noexcept { gauges_[gauge].value = value; }

void MetricsRegistry::observe(Id histogram, double x, std::size_t slot) noexcept {
    hists_[histogram].lanes[slot].add(x);
}

void MetricsRegistry::merge_slots() noexcept {
    for (Counter& c : counters_) {
        for (double& lane : c.lanes) { // lane 0 first: fixed serial order.
            c.total += lane;
            lane = 0.0;
        }
    }
}

double MetricsRegistry::counter_total(Id counter) const noexcept {
    const Counter& c = counters_[counter];
    return c.total + c.lanes[0];
}

double MetricsRegistry::gauge_value(Id gauge) const noexcept { return gauges_[gauge].value; }

void MetricsRegistry::merge_lanes(Id histogram, LogHistogram& out) const noexcept {
    out.clear();
    for (const LogHistogram& lane : hists_[histogram].lanes) {
        out.merge(lane);
    }
}

double MetricsRegistry::histogram_quantile(Id histogram, int which) const {
    LogHistogram merged;
    merge_lanes(histogram, merged);
    return merged.quantile(kHistogramQuantiles[which]);
}

std::uint64_t MetricsRegistry::histogram_count(Id histogram) const noexcept {
    std::uint64_t total = 0;
    for (const LogHistogram& lane : hists_[histogram].lanes) {
        total += lane.count();
    }
    return total;
}

void MetricsRegistry::append_to(MetricsRow& row) const {
    for (std::size_t i = 0; i < counters_.size(); ++i) {
        row.push_int(counters_[i].name.c_str(),
                     static_cast<std::int64_t>(counter_total(static_cast<Id>(i))));
    }
    for (const Gauge& g : gauges_) {
        row.push(g.name.c_str(), g.value);
    }
    LogHistogram merged;
    for (std::size_t i = 0; i < hists_.size(); ++i) {
        const Hist& h = hists_[i];
        merge_lanes(static_cast<Id>(i), merged);
        row.push(h.key_p50.c_str(), merged.quantile(kHistogramQuantiles[0]));
        row.push(h.key_p95.c_str(), merged.quantile(kHistogramQuantiles[1]));
        row.push(h.key_p99.c_str(), merged.quantile(kHistogramQuantiles[2]));
        row.push_int(h.key_count.c_str(), static_cast<std::int64_t>(merged.count()));
    }
}

// ---------------------------------------------------------------------------
// EpochSeriesSink

EpochSeriesSink::~EpochSeriesSink() { close(); }

bool EpochSeriesSink::open_file(const std::string& path) {
    std::lock_guard lock(mutex_);
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
    format_ = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0
                  ? SeriesFormat::Csv
                  : SeriesFormat::Jsonl;
    file_ = std::fopen(path.c_str(), "w");
    if (file_ == nullptr) {
        log_error("telemetry: cannot open ", path, " for writing");
        return false;
    }
    line_.reserve(1024);
    return true;
}

void EpochSeriesSink::open_memory(SeriesFormat format) {
    std::lock_guard lock(mutex_);
    memory_ = true;
    format_ = format;
    line_.reserve(1024);
}

void EpochSeriesSink::format_row(const MetricsRow& row) {
    line_.clear();
    if (format_ == SeriesFormat::Jsonl) {
        char buf[40];
        line_.append("{\"series\":\"");
        line_.append(row.series());
        std::snprintf(buf, sizeof(buf), "\",\"step\":%lld",
                      static_cast<long long>(row.step()));
        line_.append(buf);
        for (std::size_t i = 0; i < row.size(); ++i) {
            const MetricsRow::Field& f = row.field(i);
            line_.append(",\"");
            line_.append(f.key);
            line_.append("\":");
            append_value(line_, f.value, f.integral, format_);
        }
        line_.append("}\n");
        return;
    }
    // CSV: fix the column set from the first row, skip mismatched rows.
    if (!csv_header_written_) {
        csv_columns_.clear();
        csv_columns_.reserve(row.size());
        line_.append("series,step");
        for (std::size_t i = 0; i < row.size(); ++i) {
            csv_columns_.emplace_back(row.field(i).key);
            line_.push_back(',');
            line_.append(row.field(i).key);
        }
        line_.push_back('\n');
        csv_header_written_ = true;
    }
    bool matches = row.size() == csv_columns_.size();
    for (std::size_t i = 0; matches && i < row.size(); ++i) {
        matches = csv_columns_[i] == row.field(i).key;
    }
    if (!matches) {
        if (!csv_mismatch_warned_) {
            log_warn("telemetry: CSV sink fixed its columns from the first row; "
                     "skipping rows of series '",
                     row.series(), "' (use JSONL for mixed series)");
            csv_mismatch_warned_ = true;
        }
        line_.clear();
        return;
    }
    line_.append(row.series());
    char buf[40];
    std::snprintf(buf, sizeof(buf), ",%lld", static_cast<long long>(row.step()));
    line_.append(buf);
    for (std::size_t i = 0; i < row.size(); ++i) {
        line_.push_back(',');
        append_value(line_, row.field(i).value, row.field(i).integral, format_);
    }
    line_.push_back('\n');
}

void EpochSeriesSink::emit_line() {
    if (memory_) {
        memory_buffer_.append(line_);
    }
    if (file_ != nullptr) {
        std::fwrite(line_.data(), 1, line_.size(), file_);
    }
}

void EpochSeriesSink::write_row(const MetricsRow& row) {
    std::lock_guard lock(mutex_);
    if (!enabled()) {
        return;
    }
    format_row(row);
    if (line_.empty()) {
        return; // skipped CSV row.
    }
    emit_line();
    ++rows_written_;
}

void EpochSeriesSink::flush() {
    std::lock_guard lock(mutex_);
    if (file_ != nullptr) {
        std::fflush(file_);
    }
}

void EpochSeriesSink::close() {
    std::lock_guard lock(mutex_);
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

// ---------------------------------------------------------------------------
// TelemetrySession

TelemetrySession::TelemetrySession(const TelemetryConfig& config)
    : config_(config), metrics_every_(config.metrics_every == 0 ? 1 : config.metrics_every) {
    if (!config_.metrics_out.empty()) {
        sink_.open_file(config_.metrics_out);
    }
    if (!config_.trace_out.empty()) {
        tracer_ = std::make_unique<trace::Tracer>(config_.trace_max_threads,
                                                  config_.trace_events_per_thread);
        trace::set_active_tracer(tracer_.get());
        tracer_installed_ = true;
    }
}

std::unique_ptr<TelemetrySession> TelemetrySession::in_memory(SeriesFormat format,
                                                              bool with_trace) {
    auto session = std::make_unique<TelemetrySession>();
    session->sink_.open_memory(format);
    if (with_trace) {
        session->tracer_ = std::make_unique<trace::Tracer>();
        trace::set_active_tracer(session->tracer_.get());
        session->tracer_installed_ = true;
    }
    return session;
}

void TelemetrySession::flush() {
    sink_.flush();
    if (tracer_ != nullptr && !config_.trace_out.empty() && !trace_written_) {
        trace_written_ = tracer_->write(config_.trace_out);
    }
}

TelemetrySession::~TelemetrySession() {
    flush();
    if (tracer_installed_ && trace::active_tracer() == tracer_.get()) {
        trace::set_active_tracer(nullptr);
    }
}

} // namespace mflb
