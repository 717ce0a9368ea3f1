// Unified telemetry layer: metrics registry merge semantics, histogram
// accuracy against exact sample quantiles, series-sink formats, tracer span
// nesting/ordering, and the end-to-end determinism contract — the sharded
// backend's emitted series is a function of (seed, K) only (bit-identical at
// 1/2/8 worker threads once wall-clock gauges are stripped), and enabling
// telemetry never changes simulation results.
#include "des/sharded_des_system.hpp"
#include "field/decision_rule.hpp"
#include "policies/fixed.hpp"
#include "queueing/finite_system.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace mflb {
namespace {

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
    MetricsRegistry registry;
    const auto a = registry.counter("arrivals");
    const auto b = registry.counter("drops");
    EXPECT_NE(a, b);
    EXPECT_EQ(registry.counter("arrivals"), a);
    EXPECT_EQ(registry.gauge("lambda"), registry.gauge("lambda"));
    EXPECT_EQ(registry.histogram("sojourn"), registry.histogram("sojourn"));
}

TEST(MetricsRegistry, CounterLanesFoldAtMerge) {
    MetricsRegistry registry;
    const auto id = registry.counter("events");
    registry.ensure_slots(4);
    ASSERT_EQ(registry.slots(), 4u);

    registry.add(id, 1.0, 0);
    registry.add(id, 2.0, 1);
    registry.add(id, 3.0, 2);
    registry.add(id, 4.0, 3);
    // Before the merge only the serial lane (slot 0) is visible.
    EXPECT_DOUBLE_EQ(registry.counter_total(id), 1.0);
    registry.merge_slots();
    EXPECT_DOUBLE_EQ(registry.counter_total(id), 10.0);

    // Lanes are zeroed by the merge: a second merge adds nothing.
    registry.merge_slots();
    EXPECT_DOUBLE_EQ(registry.counter_total(id), 10.0);
}

TEST(MetricsRegistry, MergeTotalIndependentOfLaneAssignment) {
    // The same observations distributed over different lane layouts must
    // produce the same totals — this is what makes the series a function of
    // (seed, K) rather than of the thread schedule.
    const std::vector<double> deltas{1.5, 2.25, 0.5, 7.0, 3.125, 0.625};
    const auto total_with_slots = [&](std::size_t slots) {
        MetricsRegistry registry;
        const auto id = registry.counter("events");
        registry.ensure_slots(slots);
        for (std::size_t i = 0; i < deltas.size(); ++i) {
            registry.add(id, deltas[i], i % slots);
        }
        registry.merge_slots();
        return registry.counter_total(id);
    };
    const double serial = total_with_slots(1);
    EXPECT_DOUBLE_EQ(total_with_slots(2), serial);
    EXPECT_DOUBLE_EQ(total_with_slots(4), serial);
}

TEST(MetricsRegistry, HistogramTracksExactQuantiles) {
    // The same 20000 observations through 1 lane and round-robin over 4
    // lanes: lanes merge by adding bucket counts, so both registries report
    // identical quantiles, each within one bucket of the exact nearest-rank
    // sample quantile.
    MetricsRegistry one_lane;
    MetricsRegistry four_lanes;
    const auto id1 = one_lane.histogram("x");
    const auto id4 = four_lanes.histogram("x");
    four_lanes.ensure_slots(4);

    Rng rng(123);
    std::vector<double> samples;
    samples.reserve(20000);
    for (std::size_t i = 0; i < 20000; ++i) {
        const double x = rng.exponential(1.0);
        samples.push_back(x);
        one_lane.observe(id1, x);
        four_lanes.observe(id4, x, i % 4); // round-robin over lanes.
    }
    std::sort(samples.begin(), samples.end());
    const auto exact = [&](double p) { // nearest rank: ceil(p * n)-th smallest.
        const double rank = std::ceil(p * static_cast<double>(samples.size()));
        return samples[static_cast<std::size_t>(rank) - 1];
    };
    EXPECT_EQ(one_lane.histogram_count(id1), 20000u);
    EXPECT_EQ(four_lanes.histogram_count(id4), 20000u);
    const double ps[3] = {0.50, 0.95, 0.99};
    for (int which = 0; which < 3; ++which) {
        const double q = four_lanes.histogram_quantile(id4, which);
        EXPECT_EQ(q, one_lane.histogram_quantile(id1, which)) << which;
        const double truth = exact(ps[which]);
        EXPECT_EQ(LogHistogram::bucket_of(q), LogHistogram::bucket_of(truth)) << which;
        const std::size_t b = LogHistogram::bucket_of(truth);
        EXPECT_LE(std::abs(q - truth),
                  LogHistogram::bucket_lower(b + 1) - LogHistogram::bucket_lower(b))
            << which;
    }
}

TEST(MetricsRegistry, AppendToEmitsRegistrationOrder) {
    MetricsRegistry registry;
    const auto c = registry.counter("arrivals");
    const auto g = registry.gauge("lambda");
    const auto h = registry.histogram("sojourn");
    registry.add(c, 5.0);
    registry.set(g, 0.75);
    registry.observe(h, 1.0);
    registry.merge_slots();

    MetricsRow row;
    row.reset("test", 0);
    registry.append_to(row);
    ASSERT_EQ(row.size(), 6u); // counter + gauge + hist p50/p95/p99/count.
    EXPECT_STREQ(row.field(0).key, "arrivals");
    EXPECT_TRUE(row.field(0).integral);
    EXPECT_STREQ(row.field(1).key, "lambda");
    EXPECT_STREQ(row.field(2).key, "sojourn_p50");
    EXPECT_STREQ(row.field(5).key, "sojourn_count");
}

// --- EpochSeriesSink -------------------------------------------------------

TEST(EpochSeriesSink, JsonlRowsAreSelfDescribing) {
    EpochSeriesSink sink;
    sink.open_memory(SeriesFormat::Jsonl);
    MetricsRow row;
    row.reset("epoch", 3);
    row.push("lambda", 0.9);
    row.push_int("arrivals", 42);
    sink.write_row(row);
    EXPECT_EQ(sink.rows_written(), 1u);
    EXPECT_EQ(sink.buffer(),
              "{\"series\":\"epoch\",\"step\":3,\"lambda\":0.9,\"arrivals\":42}\n");
}

TEST(EpochSeriesSink, CsvFixesColumnsFromFirstRow) {
    EpochSeriesSink sink;
    sink.open_memory(SeriesFormat::Csv);
    MetricsRow row;
    row.reset("epoch", 0);
    row.push("a", 1.0);
    row.push_int("b", 2);
    sink.write_row(row);
    // A mismatched row (different field set) is skipped, not corrupted.
    row.reset("other", 1);
    row.push("c", 3.0);
    sink.write_row(row);
    row.reset("epoch", 1);
    row.push("a", 4.0);
    row.push_int("b", 5);
    sink.write_row(row);

    EXPECT_EQ(sink.rows_written(), 2u);
    EXPECT_EQ(sink.buffer(), "series,step,a,b\nepoch,0,1,2\nepoch,1,4,5\n");
}

// --- Tracer ----------------------------------------------------------------

TEST(Tracer, SpansNestAndRecordInCompletionOrder) {
    trace::Tracer tracer;
    {
        trace::ScopedSpan outer(&tracer, "outer");
        {
            trace::ScopedSpan inner(&tracer, "inner");
        }
    }
    ASSERT_EQ(tracer.event_count(), 2u);
    ASSERT_EQ(tracer.threads_used(), 1u);
    const auto& events = tracer.thread_events(0);
    // Complete-span events land at destruction: inner first, then outer,
    // with the inner interval contained in the outer one.
    EXPECT_STREQ(events[0].name, "inner");
    EXPECT_STREQ(events[1].name, "outer");
    EXPECT_LE(events[1].begin_ns, events[0].begin_ns);
    EXPECT_GE(events[1].end_ns, events[0].end_ns);
    EXPECT_LE(events[0].begin_ns, events[0].end_ns);
}

TEST(Tracer, DropsInsteadOfGrowingWhenBufferIsFull) {
    trace::Tracer tracer(1, 4);
    for (int i = 0; i < 10; ++i) {
        tracer.record("span", trace::now_ns(), trace::now_ns());
    }
    EXPECT_EQ(tracer.event_count(), 4u);
    EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(Tracer, ToJsonIsChromeTraceShaped) {
    trace::Tracer tracer;
    {
        trace::ScopedSpan span(&tracer, "phase");
    }
    std::string json;
    tracer.to_json(json);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"phase\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Tracer, NullSpanAndNullSessionAreNoops) {
    EXPECT_EQ(session_tracer(nullptr), nullptr);
    trace::ScopedSpan span(nullptr, "ignored"); // must not crash.
    TelemetrySession disabled;
    EXPECT_FALSE(disabled.metrics_enabled());
    EXPECT_EQ(disabled.tracer(), nullptr);
}

// --- End-to-end determinism ------------------------------------------------

FiniteSystemConfig small_sharded_config() {
    FiniteSystemConfig config;
    config.num_queues = 32;
    config.num_clients = 800;
    config.dt = 2.0;
    config.horizon = 40;
    config.shards = 4;
    config.track_sojourn = true;
    return config;
}

/// Drops the wall-clock gauge fields (barrier timings) from a JSONL series
/// dump; everything left must be a function of (seed, K) only.
std::string strip_timing_fields(std::string text) {
    for (const char* key : {",\"barrier_prologue_seconds\":", ",\"barrier_overlap_seconds\":",
                            ",\"barrier_reduce_seconds\":", ",\"barrier_parallel_seconds\":"}) {
        for (std::size_t pos = text.find(key); pos != std::string::npos;
             pos = text.find(key, pos)) {
            std::size_t end = pos + std::string(key).size();
            while (end < text.size() && text[end] != ',' && text[end] != '}') {
                ++end;
            }
            text.erase(pos, end - pos);
        }
    }
    return text;
}

std::string run_sharded_series(std::size_t threads) {
    FiniteSystemConfig config = small_sharded_config();
    config.threads = threads;
    const auto session = TelemetrySession::in_memory(SeriesFormat::Jsonl, false);
    config.telemetry = session.get();
    ShardedDesSystem system(config);
    Rng rng(7);
    system.reset(rng);
    const FixedRulePolicy policy = make_jsq_policy(system.tuple_space());
    (void)system.run_episode(policy, rng);
    return strip_timing_fields(session->sink().buffer());
}

TEST(TelemetryEndToEnd, ShardedSeriesIsThreadCountInvariant) {
    const std::string serial = run_sharded_series(1);
    EXPECT_GT(serial.size(), 0u);
    EXPECT_NE(serial.find("\"series\":\"sharded_epoch\""), std::string::npos);
    EXPECT_NE(serial.find("\"des_events_total\""), std::string::npos);
    EXPECT_NE(serial.find("\"sojourn_p95\""), std::string::npos);
    EXPECT_EQ(run_sharded_series(2), serial);
    EXPECT_EQ(run_sharded_series(8), serial);
}

TEST(TelemetryEndToEnd, EnablingTelemetryDoesNotPerturbResults) {
    FiniteSystemConfig config = small_sharded_config();

    const auto run = [&](TelemetrySession* session) {
        FiniteSystemConfig run_config = config;
        run_config.telemetry = session;
        ShardedDesSystem system(run_config);
        Rng rng(11);
        system.reset(rng);
        const FixedRulePolicy policy = make_jsq_policy(system.tuple_space());
        return system.run_episode(policy, rng);
    };
    const EpisodeStats off = run(nullptr);
    const auto session = TelemetrySession::in_memory(SeriesFormat::Jsonl, true);
    const EpisodeStats on = run(session.get());

    EXPECT_EQ(on.dropped_packets, off.dropped_packets);
    EXPECT_EQ(on.accepted_packets, off.accepted_packets);
    EXPECT_EQ(on.completed_jobs, off.completed_jobs);
    EXPECT_EQ(on.total_drops_per_queue, off.total_drops_per_queue);
    EXPECT_EQ(on.discounted_return, off.discounted_return);
    EXPECT_EQ(on.mean_queue_length, off.mean_queue_length);
    EXPECT_EQ(on.mean_sojourn, off.mean_sojourn);
    EXPECT_EQ(on.sojourn_p99, off.sojourn_p99);
    EXPECT_EQ(on.drops_per_epoch, off.drops_per_epoch);
    // And the instrumented run actually produced telemetry.
    EXPECT_EQ(session->sink().rows_written(), static_cast<std::size_t>(config.horizon));
    EXPECT_GT(session->tracer()->event_count(), 0u);
}

TEST(TelemetryEndToEnd, FileSessionWritesSeriesAndTrace) {
    const std::string metrics_path = ::testing::TempDir() + "mflb_metrics.jsonl";
    const std::string trace_path = ::testing::TempDir() + "mflb_trace.json";
    TelemetryConfig telemetry;
    telemetry.metrics_out = metrics_path;
    telemetry.trace_out = trace_path;
    telemetry.metrics_every = 5;
    {
        TelemetrySession session(telemetry);
        FiniteSystemConfig config = small_sharded_config();
        config.telemetry = &session;
        ShardedDesSystem system(config);
        Rng rng(3);
        system.reset(rng);
        const FixedRulePolicy policy = make_jsq_policy(system.tuple_space());
        (void)system.run_episode(policy, rng);
        // metrics_every = 5 thins the 40-epoch series to the epochs = 0 mod 5.
        EXPECT_EQ(session.sink().rows_written(), 8u);
    } // destructor flushes the series and writes the trace file.

    const auto slurp = [](const std::string& path) {
        std::FILE* f = std::fopen(path.c_str(), "rb");
        EXPECT_NE(f, nullptr) << path;
        std::string out;
        if (f != nullptr) {
            char buf[4096];
            std::size_t n = 0;
            while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
                out.append(buf, n);
            }
            std::fclose(f);
        }
        return out;
    };
    const std::string metrics = slurp(metrics_path);
    EXPECT_NE(metrics.find("\"series\":\"sharded_epoch\""), std::string::npos);
    EXPECT_EQ(static_cast<std::size_t>(std::count(metrics.begin(), metrics.end(), '\n')), 8u);
    const std::string trace = slurp(trace_path);
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"shard_advance\""), std::string::npos);
    std::remove(metrics_path.c_str());
    std::remove(trace_path.c_str());
}

} // namespace
} // namespace mflb
