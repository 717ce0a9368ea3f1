// Tests for the calendar-queue FEL (src/des/calendar_queue) and the FEL seam
// (src/des/fel): the determinism contract — the calendar pops in the exact
// (time, id) lexicographic order of the pending set, bit-identical to the
// indexed binary heap — via differential fuzzing against EventQueue,
// bucket-boundary / far-future / retune edge cases, the heap's
// pop_and_reschedule fast path, and full-episode bitwise equality of the two
// FEL kinds on `DesSystem` (all client models and the router path).
#include "des/calendar_queue.hpp"

#include "des/des_system.hpp"
#include "des/fel.hpp"
#include "policies/fixed.hpp"
#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace mflb {
namespace {

// ---------------------------------------------------------------------------
// CalendarQueue mechanics
// ---------------------------------------------------------------------------

TEST(CalendarQueue, PopsInTimeOrderWithIdTieBreak) {
    CalendarQueue fel(8, 1.0);
    fel.schedule(3, 2.5);
    fel.schedule(1, 1.0);
    fel.schedule(5, 1.0); // same time as id 1: id order breaks the tie.
    fel.schedule(0, 4.0);
    const std::vector<std::pair<double, std::size_t>> expected{
        {1.0, 1}, {1.0, 5}, {2.5, 3}, {4.0, 0}};
    for (const auto& [time, id] : expected) {
        EXPECT_EQ(fel.peek().id, id);
        const CalendarQueue::Event event = fel.pop();
        EXPECT_DOUBLE_EQ(event.time, time);
        EXPECT_EQ(event.id, id);
    }
    EXPECT_TRUE(fel.empty());
}

TEST(CalendarQueue, ScheduleReschedulesPendingSlot) {
    CalendarQueue fel(4, 1.0);
    fel.schedule(0, 5.0);
    fel.schedule(1, 2.0);
    fel.schedule(0, 1.0); // move id 0 ahead of id 1.
    EXPECT_EQ(fel.size(), 2u);
    EXPECT_DOUBLE_EQ(fel.time_of(0), 1.0);
    EXPECT_EQ(fel.pop().id, 0u);
    EXPECT_EQ(fel.pop().id, 1u);
}

TEST(CalendarQueue, CancelRemovesOnlyThatSlot) {
    CalendarQueue fel(4, 1.0);
    fel.schedule(0, 1.0);
    fel.schedule(1, 2.0);
    fel.schedule(2, 3.0);
    EXPECT_TRUE(fel.cancel(1));
    EXPECT_FALSE(fel.cancel(1)); // already gone.
    EXPECT_EQ(fel.size(), 2u);
    EXPECT_EQ(fel.pop().id, 0u);
    EXPECT_EQ(fel.pop().id, 2u);
}

TEST(CalendarQueue, GuardsMisuse) {
    EXPECT_THROW(CalendarQueue(0, 1.0), std::invalid_argument);
    CalendarQueue fel(2, 1.0);
    EXPECT_THROW(fel.schedule(2, 1.0), std::invalid_argument);
    EXPECT_THROW(fel.pop(), std::logic_error);
    EXPECT_THROW(fel.peek(), std::logic_error);
    EXPECT_THROW(fel.time_of(0), std::logic_error);
    EXPECT_THROW(fel.pop_and_reschedule(0, 1.0), std::logic_error);
    EXPECT_FALSE(fel.cancel(5)); // out of range is just "not pending".
}

TEST(CalendarQueue, ClearEmptiesButKeepsCapacity) {
    CalendarQueue fel(3, 1.0);
    fel.schedule(0, 1.0);
    fel.schedule(2, 2.0);
    fel.clear();
    EXPECT_TRUE(fel.empty());
    EXPECT_EQ(fel.capacity(), 3u);
    EXPECT_FALSE(fel.contains(0));
    fel.schedule(0, 4.0); // usable again.
    EXPECT_EQ(fel.pop().id, 0u);
}

TEST(CalendarQueue, BucketBoundaryAndSharedBucketTimesStayOrdered) {
    // Times at exact bucket-width multiples, inside one bucket, and spread
    // far apart must all drain in (time, id) order regardless of which
    // physical bucket they land in (the day array wraps).
    CalendarQueue fel(16, 1.0); // width 1.0.
    fel.schedule(0, 3.0);       // exactly on a boundary.
    fel.schedule(1, 3.0);       // tie on the boundary.
    fel.schedule(2, 2.9999999);
    fel.schedule(3, 3.0000001);
    fel.schedule(4, 0.0);
    fel.schedule(5, 0.5);  // same bucket as id 4.
    fel.schedule(6, 0.25); // same bucket, lands between them.
    fel.schedule(7, 1000.0);
    fel.schedule(8, 999.75); // wraps onto earlier physical buckets.
    const std::vector<std::size_t> expected{4, 6, 5, 2, 0, 1, 3, 8, 7};
    double last = -1.0;
    for (const std::size_t id : expected) {
        const CalendarQueue::Event event = fel.pop();
        EXPECT_EQ(event.id, id);
        EXPECT_GE(event.time, last);
        last = event.time;
    }
}

TEST(CalendarQueue, FarFutureTimesSaturateWithoutLosingOrder) {
    // Events beyond the virtual-index clamp share one saturated bucket but
    // stay sorted inside it; mixing them with near-term events must keep
    // the global order exact.
    CalendarQueue fel(8, 1.0);
    fel.schedule(0, 1e300);
    fel.schedule(1, 1e18);
    fel.schedule(2, 0.5);
    fel.schedule(3, 1e300); // tie at the clamp: id order.
    fel.schedule(4, 4.5e15);
    EXPECT_EQ(fel.pop().id, 2u);
    EXPECT_EQ(fel.pop().id, 4u);
    EXPECT_EQ(fel.pop().id, 1u);
    EXPECT_EQ(fel.pop().id, 0u);
    EXPECT_EQ(fel.pop().id, 3u);
}

TEST(CalendarQueue, PopAndRescheduleMatchesPopPlusSchedule) {
    // The fused fast path must leave the queue in a state indistinguishable
    // from popping and re-inserting: run the same operation stream both ways
    // and compare the full drain.
    CalendarQueue fused(16, 2.0);
    CalendarQueue split(16, 2.0);
    Rng rng_a(7);
    Rng rng_b(7);
    for (std::size_t id = 0; id < 16; ++id) {
        const double t = rng_a.uniform(0.0, 8.0);
        fused.schedule(id, t);
        split.schedule(id, rng_b.uniform(0.0, 8.0));
    }
    for (int round = 0; round < 200; ++round) {
        const CalendarQueue::Event top = fused.peek();
        ASSERT_EQ(split.peek().id, top.id);
        const double next = top.time + rng_a.uniform(0.0, 2.0);
        rng_b.uniform(0.0, 2.0); // keep the streams aligned.
        fused.pop_and_reschedule(top.id, next);
        const CalendarQueue::Event popped = split.pop();
        split.schedule(popped.id, next);
    }
    ASSERT_EQ(fused.size(), split.size());
    while (!fused.empty()) {
        const CalendarQueue::Event a = fused.pop();
        const CalendarQueue::Event b = split.pop();
        EXPECT_EQ(a.id, b.id);
        EXPECT_DOUBLE_EQ(a.time, b.time);
    }
}

TEST(CalendarQueue, RetuneMidStreamPreservesContentAndOrder) {
    // Repeated retunes between bursts (growth + width adaptation + rebuild)
    // must never change the pending set or its drain order.
    CalendarQueue fel(256, 1e6); // absurd rate hint: forces width adaptation.
    std::vector<double> reference(256, -1.0);
    Rng rng(11);
    double clock = 0.0;
    for (int burst = 0; burst < 20; ++burst) {
        for (int i = 0; i < 200; ++i) {
            const auto id = static_cast<std::size_t>(rng.uniform_below(256));
            const double t = clock + rng.uniform(0.0, 50.0);
            fel.schedule(id, t);
            reference[id] = t;
        }
        for (int i = 0; i < 100 && !fel.empty(); ++i) {
            const CalendarQueue::Event event = fel.pop();
            EXPECT_DOUBLE_EQ(event.time, reference[event.id]);
            reference[event.id] = -1.0;
            clock = event.time;
        }
        fel.retune(); // epoch barrier.
    }
    std::vector<std::pair<double, std::size_t>> expected;
    for (std::size_t id = 0; id < reference.size(); ++id) {
        if (reference[id] >= 0.0) {
            expected.push_back({reference[id], id});
        }
    }
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(fel.size(), expected.size());
    for (const auto& [time, id] : expected) {
        const CalendarQueue::Event event = fel.pop();
        EXPECT_DOUBLE_EQ(event.time, time);
        EXPECT_EQ(event.id, id);
    }
}

TEST(CalendarQueue, CountersTrackOperations) {
    CalendarQueue fel(4, 1.0);
    fel.schedule(0, 1.0);
    fel.schedule(1, 2.0);
    EXPECT_EQ(fel.schedules(), 2u);
    fel.pop();
    EXPECT_EQ(fel.pops(), 1u);
    EXPECT_GE(fel.bucket_scans(), 1u); // the pop's min-search probed >= 1 head.
    fel.pop_and_reschedule(1, 3.0);    // counts as one pop plus one schedule.
    EXPECT_EQ(fel.schedules(), 3u);
    EXPECT_EQ(fel.pops(), 2u);
    fel.clear(); // counters are lifetime: clear() keeps them.
    EXPECT_EQ(fel.schedules(), 3u);
    EXPECT_EQ(fel.pops(), 2u);
}

// ---------------------------------------------------------------------------
// Differential fuzz: calendar vs heap, identical operation streams
// ---------------------------------------------------------------------------

TEST(CalendarQueue, DifferentialFuzzMatchesEventQueueExactly) {
    // The determinism contract, adversarially: the same randomized stream of
    // schedule / reschedule / cancel / pop / pop_and_reschedule applied to
    // both FELs must produce the exact same observable sequence. Quantized
    // times force frequent (time, id) ties; retunes are sprinkled in.
    const std::size_t capacity = 96;
    CalendarQueue calendar(capacity, 4.0);
    EventQueue heap(capacity);
    Rng rng(1234);
    for (int op = 0; op < 20000; ++op) {
        const auto id = static_cast<std::size_t>(rng.uniform_below(capacity));
        const double coin = rng.uniform();
        // Quantized to 1/8 so distinct draws collide on exact times often.
        const double time = std::floor(rng.uniform(0.0, 64.0) * 8.0) / 8.0;
        if (coin < 0.45) {
            calendar.schedule(id, time);
            heap.schedule(id, time);
        } else if (coin < 0.55) {
            EXPECT_EQ(calendar.cancel(id), heap.cancel(id));
        } else if (coin < 0.75) {
            ASSERT_EQ(calendar.empty(), heap.empty());
            if (!heap.empty()) {
                const CalendarQueue::Event a = calendar.pop();
                const EventQueue::Event b = heap.pop();
                ASSERT_EQ(a.id, b.id) << "op " << op;
                ASSERT_EQ(a.time, b.time) << "op " << op; // bitwise.
            }
        } else if (coin < 0.85) {
            ASSERT_EQ(calendar.empty(), heap.empty());
            if (!heap.empty()) {
                const CalendarQueue::Event top = calendar.peek();
                ASSERT_EQ(top.id, heap.peek().id);
                calendar.pop_and_reschedule(top.id, top.time + time);
                heap.pop_and_reschedule(top.id, top.time + time);
            }
        } else {
            ASSERT_EQ(calendar.contains(id), heap.contains(id));
            if (heap.contains(id)) {
                ASSERT_EQ(calendar.time_of(id), heap.time_of(id));
            }
        }
        if (op % 1024 == 1023) {
            calendar.retune(); // heap needs none; contents must not change.
        }
        ASSERT_EQ(calendar.size(), heap.size());
    }
    while (!heap.empty()) {
        const CalendarQueue::Event a = calendar.pop();
        const EventQueue::Event b = heap.pop();
        ASSERT_EQ(a.id, b.id);
        ASSERT_EQ(a.time, b.time);
    }
    EXPECT_TRUE(calendar.empty());
}

// ---------------------------------------------------------------------------
// EventQueue::pop_and_reschedule (heap fast path)
// ---------------------------------------------------------------------------

TEST(EventQueuePopAndReschedule, MatchesPopPlusScheduleBitExactly) {
    // The sift-in-place fast path must leave the drain order identical to
    // the historical pop + schedule pair under the same operation stream.
    const std::size_t capacity = 48;
    EventQueue fused(capacity);
    EventQueue split(capacity);
    Rng rng(5);
    for (std::size_t id = 0; id < capacity; ++id) {
        const double t = rng.uniform(0.0, 10.0);
        fused.schedule(id, t);
        split.schedule(id, t);
    }
    for (int round = 0; round < 2000; ++round) {
        const EventQueue::Event top = fused.peek();
        ASSERT_EQ(split.peek().id, top.id);
        const double next = top.time + rng.uniform(0.0, 1.0);
        fused.pop_and_reschedule(top.id, next);
        split.schedule(split.pop().id, next);
    }
    while (!fused.empty()) {
        const EventQueue::Event a = fused.pop();
        const EventQueue::Event b = split.pop();
        ASSERT_EQ(a.id, b.id);
        ASSERT_EQ(a.time, b.time);
    }
    EXPECT_TRUE(split.empty());
}

TEST(EventQueuePopAndReschedule, ThrowsOnAbsentSlotAndWorksOffRoot) {
    EventQueue fel(4);
    EXPECT_THROW(fel.pop_and_reschedule(0, 1.0), std::logic_error);
    fel.schedule(0, 1.0);
    fel.schedule(1, 2.0);
    fel.schedule(2, 3.0);
    fel.pop_and_reschedule(1, 0.5); // non-root pending slot: sift_up path.
    EXPECT_EQ(fel.pop().id, 1u);
    EXPECT_EQ(fel.pop().id, 0u);
    EXPECT_EQ(fel.pop().id, 2u);
}

// ---------------------------------------------------------------------------
// FEL seam: kind parsing and facade counters
// ---------------------------------------------------------------------------

TEST(FutureEventList, KindNamesRoundTrip) {
    EXPECT_EQ(fel_kind_name(FelKind::Heap), "heap");
    EXPECT_EQ(fel_kind_name(FelKind::Calendar), "calendar");
    EXPECT_EQ(parse_fel_kind("heap"), FelKind::Heap);
    EXPECT_EQ(parse_fel_kind("calendar"), FelKind::Calendar);
    EXPECT_THROW(parse_fel_kind("splay"), std::invalid_argument);
}

TEST(FutureEventList, CountsOperationsOnBothKinds) {
    for (const FelKind kind : {FelKind::Heap, FelKind::Calendar}) {
        SCOPED_TRACE(fel_kind_name(kind));
        FutureEventList fel(kind, 8, 1.0);
        fel.schedule(0, 1.0);
        fel.schedule(1, 2.0);
        fel.pop();
        fel.pop_and_reschedule(1, 3.0); // one pop + one schedule.
        const FutureEventList::Stats stats = fel.stats();
        EXPECT_EQ(stats.schedules, 3u);
        EXPECT_EQ(stats.pops, 2u);
        if (kind == FelKind::Heap) {
            EXPECT_EQ(stats.bucket_scans, 0u);
        }
    }
}

// ---------------------------------------------------------------------------
// Episode-level bitwise equality: heap vs calendar on both DES backends
// ---------------------------------------------------------------------------

FiniteSystemConfig episode_config(ClientModel model, FelKind fel) {
    FiniteSystemConfig config;
    config.num_queues = 30;
    config.num_clients = 900;
    config.dt = 2.0;
    config.horizon = 25;
    config.client_model = model;
    config.track_sojourn = true;
    config.fel = fel;
    return config;
}

void expect_bit_identical(const EpisodeStats& a, const EpisodeStats& b) {
    EXPECT_EQ(a.dropped_packets, b.dropped_packets);
    EXPECT_EQ(a.accepted_packets, b.accepted_packets);
    EXPECT_EQ(a.completed_jobs, b.completed_jobs);
    EXPECT_EQ(a.total_drops_per_queue, b.total_drops_per_queue);
    EXPECT_EQ(a.discounted_return, b.discounted_return);
    EXPECT_EQ(a.mean_queue_length, b.mean_queue_length);
    EXPECT_EQ(a.server_utilization, b.server_utilization);
    EXPECT_EQ(a.mean_sojourn, b.mean_sojourn);
    EXPECT_EQ(a.sojourn_p50, b.sojourn_p50);
    EXPECT_EQ(a.sojourn_p95, b.sojourn_p95);
    EXPECT_EQ(a.sojourn_p99, b.sojourn_p99);
    ASSERT_EQ(a.drops_per_epoch.size(), b.drops_per_epoch.size());
    for (std::size_t t = 0; t < a.drops_per_epoch.size(); ++t) {
        EXPECT_EQ(a.drops_per_epoch[t], b.drops_per_epoch[t]) << "epoch " << t;
    }
}

TEST(FelEquivalence, DesSystemEpisodesAreBitIdenticalAcrossKinds) {
    // The tentpole contract: switching the FEL implementation changes cost
    // only — the episode, including every RNG draw, is bitwise unchanged.
    for (const ClientModel model :
         {ClientModel::PerClient, ClientModel::Aggregated, ClientModel::InfiniteClients}) {
        SCOPED_TRACE(static_cast<int>(model));
        const auto run = [&](FelKind kind) {
            const FiniteSystemConfig config = episode_config(model, kind);
            DesSystem system(config);
            const TupleSpace space(config.queue.num_states(), config.d);
            const FixedRulePolicy policy = make_jsq_policy(space);
            Rng rng(91);
            system.reset(rng);
            return system.run_episode(policy, rng);
        };
        expect_bit_identical(run(FelKind::Heap), run(FelKind::Calendar));
    }
}

TEST(FelEquivalence, RouterEpisodesAreBitIdenticalAcrossKinds) {
    // The router path exercises the arrival-slot cancel branch (zero-mass
    // shards) and the round-robin cursor; it must honor the same contract.
    for (const RouterKind router : {RouterKind::RoundRobin, RouterKind::Jsq}) {
        SCOPED_TRACE(static_cast<int>(router));
        const auto run = [&](FelKind kind) {
            FiniteSystemConfig config = episode_config(ClientModel::Aggregated, kind);
            config.router.kind = router;
            DesSystem system(config);
            Rng rng(17);
            system.reset(rng);
            return system.run_episode(rng);
        };
        expect_bit_identical(run(FelKind::Heap), run(FelKind::Calendar));
    }
}

} // namespace
} // namespace mflb
