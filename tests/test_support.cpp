// Tests for CLI parsing, tables, serialization, logging, and the thread pool.
#include "support/cli.hpp"
#include "support/logging.hpp"
#include "support/serialization.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>

namespace mflb {
namespace {

TEST(Cli, ParsesValuesAndDefaults) {
    CliParser cli("test");
    cli.flag("m", "100", "queues").flag("dt", "1.0", "delay").flag("fast", "false", "quick mode");
    const char* argv[] = {"prog", "--m", "400", "--fast", "--dt=2.5"};
    ASSERT_TRUE(cli.parse(5, argv));
    EXPECT_EQ(cli.get_int("m"), 400);
    EXPECT_DOUBLE_EQ(cli.get_double("dt"), 2.5);
    EXPECT_TRUE(cli.get_bool("fast"));
    EXPECT_TRUE(cli.provided("m"));
    EXPECT_FALSE(cli.provided("help"));
}

TEST(Cli, RejectsUnknownFlag) {
    CliParser cli("test");
    const char* argv[] = {"prog", "--nope", "1"};
    EXPECT_FALSE(cli.parse(3, argv));
    EXPECT_TRUE(cli.parse_error());
}

TEST(Cli, RejectsPositionalArgument) {
    CliParser cli("test");
    const char* argv[] = {"prog", "stray"};
    EXPECT_FALSE(cli.parse(2, argv));
    EXPECT_TRUE(cli.parse_error());
    EXPECT_EQ(cli.exit_code(), 2);
}

TEST(Cli, RejectsMissingValueForNonBoolFlag) {
    CliParser cli("test");
    cli.flag("seed", "1", "seed").flag("fast", "false", "quick mode");
    const char* at_end[] = {"prog", "--seed"};
    EXPECT_FALSE(cli.parse(2, at_end));
    EXPECT_TRUE(cli.parse_error());

    CliParser cli2("test");
    cli2.flag("seed", "1", "seed").flag("fast", "false", "quick mode");
    const char* before_flag[] = {"prog", "--seed", "--fast"};
    EXPECT_FALSE(cli2.parse(3, before_flag));
    EXPECT_TRUE(cli2.parse_error());
}

TEST(Cli, BoolFlagConsumesExplicitValueToken) {
    CliParser cli("test");
    cli.flag("fast", "false", "quick mode").flag("seed", "1", "seed");
    const char* argv[] = {"prog", "--fast", "false", "--seed", "7"};
    ASSERT_TRUE(cli.parse(5, argv));
    EXPECT_FALSE(cli.get_bool("fast"));
    EXPECT_EQ(cli.get_int("seed"), 7);

    CliParser cli2("test");
    cli2.flag("fast", "false", "quick mode");
    const char* bare[] = {"prog", "--fast"};
    ASSERT_TRUE(cli2.parse(2, bare));
    EXPECT_TRUE(cli2.get_bool("fast"));
}

TEST(Cli, RejectsValuesMismatchingDefaultImpliedType) {
    CliParser cli("test");
    cli.flag("seed", "1", "seed");
    const char* bad_int[] = {"prog", "--seed", "abc"};
    EXPECT_FALSE(cli.parse(3, bad_int));
    EXPECT_TRUE(cli.parse_error());

    CliParser cli2("test");
    cli2.flag("dts", "1,3,5", "delays");
    const char* bad_list[] = {"prog", "--dts", "1,x,3"};
    EXPECT_FALSE(cli2.parse(3, bad_list));
    EXPECT_TRUE(cli2.parse_error());

    CliParser cli3("test");
    cli3.flag("full", "false", "full run");
    const char* bad_bool[] = {"prog", "--full=banana"};
    EXPECT_FALSE(cli3.parse(2, bad_bool));
    EXPECT_TRUE(cli3.parse_error());

    CliParser cli4("test");
    cli4.flag("dt", "5", "delay").flag("dts", "1,3,5", "delays");
    const char* ok[] = {"prog", "--dt", "2.5", "--dts", "7"};
    EXPECT_TRUE(cli4.parse(5, ok));
    EXPECT_DOUBLE_EQ(cli4.get_double("dt"), 2.5);
    ASSERT_EQ(cli4.get_int_list("dts").size(), 1u);
}

TEST(Cli, TypedRegistrationsParseRoundTrip) {
    CliParser cli("test");
    cli.flag_int("m", 100, "queues")
        .flag_double("dt", 1.0, "delay")
        .flag_bool("fast", false, "quick mode")
        .flag_int_list("ms", "100,200", "queue sizes")
        .flag_double_list("dts", "1,2.5", "delays");
    const char* argv[] = {"prog", "--m", "400", "--fast", "--dt=2.5", "--dts", "3,4.5"};
    ASSERT_TRUE(cli.parse(7, argv));
    EXPECT_EQ(cli.get_int("m"), 400);
    EXPECT_DOUBLE_EQ(cli.get_double("dt"), 2.5);
    EXPECT_TRUE(cli.get_bool("fast"));
    ASSERT_EQ(cli.get_int_list("ms").size(), 2u);
    EXPECT_EQ(cli.get_int_list("ms")[1], 200);
    ASSERT_EQ(cli.get_double_list("dts").size(), 2u);
    EXPECT_DOUBLE_EQ(cli.get_double_list("dts")[1], 4.5);
}

TEST(Cli, IntFlagRejectsFloatAtParseTime) {
    // ROADMAP item: the int/float mismatch must fail during parse(), not in
    // the typed-getter backstop.
    CliParser cli("test");
    cli.flag_int("m", 100, "queues");
    const char* argv[] = {"prog", "--m", "2.5"};
    EXPECT_FALSE(cli.parse(3, argv));
    EXPECT_TRUE(cli.parse_error());
    EXPECT_EQ(cli.exit_code(), 2);
}

TEST(Cli, IntListFlagRejectsFloatElementAtParseTime) {
    CliParser cli("test");
    cli.flag_int_list("ms", "100,200", "queue sizes");
    const char* argv[] = {"prog", "--ms", "100,2.5"};
    EXPECT_FALSE(cli.parse(3, argv));
    EXPECT_TRUE(cli.parse_error());

    // An empty default is fine for typed lists, and values stay validated.
    CliParser cli2("test");
    cli2.flag_int_list("ms", "", "queue sizes");
    const char* bad[] = {"prog", "--ms", "1,x"};
    EXPECT_FALSE(cli2.parse(3, bad));
    EXPECT_TRUE(cli2.parse_error());
}

TEST(Cli, TypedBoolFlagKeepsBareAndExplicitForms) {
    CliParser cli("test");
    cli.flag_bool("fast", true, "quick mode").flag_int("seed", 1, "seed");
    const char* argv[] = {"prog", "--fast", "false", "--seed", "7"};
    ASSERT_TRUE(cli.parse(5, argv));
    EXPECT_FALSE(cli.get_bool("fast"));
    EXPECT_EQ(cli.get_int("seed"), 7);
}

TEST(Cli, MalformedTypedListDefaultThrowsAtRegistration) {
    CliParser cli("test");
    EXPECT_THROW(cli.flag_int_list("ms", "1,2.5", "bad default"), std::invalid_argument);
    EXPECT_THROW(cli.flag_double_list("dts", "1,x", "bad default"), std::invalid_argument);
}

TEST(CliDeathTest, GetterBackstopExitsWithCode2OnUntypedFlag) {
    // String-default flags are not validated at parse time; the typed
    // getters remain a last-resort guard.
    CliParser cli("test");
    cli.flag("mode", "sweep", "mode");
    const char* argv[] = {"prog", "--mode", "fast"};
    ASSERT_TRUE(cli.parse(3, argv));
    EXPECT_EXIT(cli.get_int("mode"), ::testing::ExitedWithCode(2), "invalid value for --mode");
}

TEST(Cli, ParsesLists) {
    CliParser cli("test");
    cli.flag("ms", "100,200,400", "queue sizes").flag("dts", "1,2.5", "delays");
    const char* argv[] = {"prog"};
    ASSERT_TRUE(cli.parse(1, argv));
    const auto ms = cli.get_int_list("ms");
    ASSERT_EQ(ms.size(), 3u);
    EXPECT_EQ(ms[2], 400);
    const auto dts = cli.get_double_list("dts");
    ASSERT_EQ(dts.size(), 2u);
    EXPECT_DOUBLE_EQ(dts[1], 2.5);
}

TEST(Cli, HelpReturnsFalse) {
    CliParser cli("test");
    const char* argv[] = {"prog", "--help"};
    EXPECT_FALSE(cli.parse(2, argv));
    EXPECT_FALSE(cli.parse_error());
    EXPECT_EQ(cli.exit_code(), 0);
}

TEST(Table, TextAndCsvRendering) {
    Table t({"a", "b"});
    t.row().cell("x").cell(1.23456, 2);
    t.row().cell(std::int64_t{7}).cell_ci(3.0, 0.5, 1);
    const std::string text = t.to_text();
    EXPECT_NE(text.find("1.23"), std::string::npos);
    EXPECT_NE(text.find("3.0 +- 0.5"), std::string::npos);
    const std::string csv = t.to_csv();
    EXPECT_NE(csv.find("a,b"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Archive, RoundTripsScalarsAndVectors) {
    Archive a;
    a.put("alpha", 1.5);
    a.put("count", std::int64_t{42});
    a.put("name", std::string("mflb"));
    a.put("params", std::vector<double>{0.1, -2.5e-7, 3.0});
    const Archive b = Archive::from_string(a.to_string());
    EXPECT_DOUBLE_EQ(b.get_double("alpha"), 1.5);
    EXPECT_EQ(b.get_int("count"), 42);
    EXPECT_EQ(b.get_string("name"), "mflb");
    const auto params = b.get_vector("params");
    ASSERT_EQ(params.size(), 3u);
    EXPECT_DOUBLE_EQ(params[1], -2.5e-7);
    EXPECT_TRUE(b.contains("alpha"));
    EXPECT_FALSE(b.contains("missing"));
}

TEST(Archive, ThrowsOnMissingKeyAndBadSyntax) {
    Archive a;
    EXPECT_THROW(a.get_double("nope"), std::invalid_argument);
    EXPECT_THROW(Archive::from_string("no equals sign"), std::invalid_argument);
    EXPECT_THROW(Archive::from_string("k = [1, 2"), std::invalid_argument);
}

TEST(Archive, IgnoresCommentsAndBlankLines) {
    const Archive a = Archive::from_string("# comment\n\nkey = 3\n");
    EXPECT_EQ(a.get_int("key"), 3);
}

TEST(Logging, ConcurrentLoggingAndLevelChangesAreSerialized) {
    // Regression guard for the logger's thread-safety contract (atomic level,
    // mutex-serialized emission): concurrent writers and level togglers must
    // produce whole lines, never torn bytes — TSan runs this test in CI.
    const LogLevel before = log_level();
    ::testing::internal::CaptureStderr();
    constexpr int kThreads = 8;
    constexpr int kMessages = 50;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kMessages; ++i) {
                // Both levels pass warn messages, so the line count below is
                // deterministic while the level still changes under load.
                set_log_level(t % 2 == 0 ? LogLevel::Debug : LogLevel::Warn);
                log_warn("logging-race t=", t, " i=", i);
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    const std::string captured = ::testing::internal::GetCapturedStderr();
    set_log_level(before);

    const auto lines = static_cast<int>(std::count(captured.begin(), captured.end(), '\n'));
    EXPECT_EQ(lines, kThreads * kMessages);
    // Every line is a complete "[ts LEVEL] message" record.
    std::size_t pos = 0;
    while (pos < captured.size()) {
        const std::size_t end = captured.find('\n', pos);
        ASSERT_NE(end, std::string::npos);
        const std::string_view line(captured.data() + pos, end - pos);
        EXPECT_EQ(line.front(), '[');
        EXPECT_NE(line.find("WARN ] logging-race t="), std::string_view::npos) << line;
        pos = end + 1;
    }
}

TEST(ThreadPool, RunsAllTasks) {
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i) {
        pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleRethrowsAThrowingSubmittedTask) {
    // Regression: an exception escaping a submitted task reached the worker
    // thread's top level and called std::terminate.
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([] { throw std::runtime_error("task failed"); });
    for (int i = 0; i < 10; ++i) {
        pool.submit([&counter] { counter.fetch_add(1); });
    }
    try {
        pool.wait_idle();
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
        EXPECT_STREQ(error.what(), "task failed");
    }
    EXPECT_EQ(counter.load(), 10); // the other tasks still ran
    // The error is reported once; the pool keeps working afterwards.
    pool.submit([&counter] { counter.fetch_add(1); });
    EXPECT_NO_THROW(pool.wait_idle());
    EXPECT_EQ(counter.load(), 11);
}

TEST(CompletionToken, WaitRethrowsTheTaskException) {
    // Inline (1 thread) and offloaded (2 threads) tasks report alike.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
        CompletionToken token;
        auto failing = [] { throw std::runtime_error("offloaded"); };
        token.launch(failing, threads);
        EXPECT_THROW(token.wait(), std::runtime_error) << threads << " threads";
        int ran = 0;
        auto ok = [&ran] { ++ran; };
        token.launch(ok, threads);
        EXPECT_NO_THROW(token.wait());
        EXPECT_EQ(ran, 1);
    }
}

TEST(ParallelFor, CoversAllIndicesOnce) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
    for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelFor, ZeroAndSingleElement) {
    int calls = 0;
    parallel_for(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallel_for(1, [&](std::size_t) { ++calls; }, 8);
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, RethrowsFirstExceptionOnCaller) {
    // Regression: a throwing body used to call std::terminate (exception
    // escaping a worker thread); it must surface on the calling thread.
    try {
        parallel_for(
            100,
            [](std::size_t i) {
                if (i == 13) {
                    throw std::runtime_error("boom at 13");
                }
            },
            4);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
        EXPECT_STREQ(error.what(), "boom at 13");
    }
}

TEST(ParallelFor, ExceptionStopsSchedulingRemainingIndices) {
    std::atomic<int> executed{0};
    EXPECT_THROW(parallel_for(
                     10000,
                     [&](std::size_t) {
                         executed.fetch_add(1);
                         throw std::runtime_error("always");
                     },
                     4),
                 std::runtime_error);
    // Every worker stops after at most one throwing index.
    EXPECT_LE(executed.load(), 4);
}

TEST(ParallelFor, SerialPathPropagatesException) {
    EXPECT_THROW(parallel_for(
                     5, [](std::size_t) { throw std::logic_error("serial"); }, 1),
                 std::logic_error);
}

TEST(ParallelFor, ReusesThePersistentSharedPool) {
    // Regression for the spawn-per-call era: every parallel_for body must
    // execute on a worker of the process-wide pool (no fresh threads).
    // Enumerate the pool's worker ids by submitting one blocking task per
    // worker, then check parallel_for bodies land only on those ids.
    ThreadPool& pool = shared_thread_pool();
    EXPECT_EQ(&pool, &shared_thread_pool()); // one pool, lazily constructed
    const std::size_t workers = pool.thread_count();
    ASSERT_GE(workers, 1u);

    std::mutex mutex;
    std::set<std::thread::id> pool_ids;
    {
        // Hold every worker until all have checked in, so each distinct
        // worker id is observed exactly once.
        std::condition_variable all_in;
        std::size_t arrived = 0;
        for (std::size_t i = 0; i < workers; ++i) {
            pool.submit([&] {
                std::unique_lock lock(mutex);
                pool_ids.insert(std::this_thread::get_id());
                ++arrived;
                all_in.notify_all();
                all_in.wait(lock, [&] { return arrived == workers; });
            });
        }
        pool.wait_idle();
    }
    ASSERT_EQ(pool_ids.size(), workers);

    std::set<std::thread::id> body_ids;
    for (int round = 0; round < 3; ++round) {
        parallel_for(
            64,
            [&](std::size_t) {
                std::lock_guard lock(mutex);
                body_ids.insert(std::this_thread::get_id());
            },
            4);
    }
    for (const auto& id : body_ids) {
        EXPECT_TRUE(pool_ids.count(id) > 0) << "body ran outside the shared pool";
        EXPECT_NE(id, std::this_thread::get_id());
    }
}

TEST(ParallelFor, NestedCallsRunInlineOnTheOuterWorker) {
    // Nested use (replications x shards): the inner fan-out must degrade to
    // serial inline execution on the *same* worker — no pool re-entry, no
    // deadlock — and still cover every index.
    std::atomic<int> inner_total{0};
    std::atomic<int> mismatched_threads{0};
    parallel_for(
        4,
        [&](std::size_t) {
            const auto outer_id = std::this_thread::get_id();
            EXPECT_TRUE(on_pool_worker());
            parallel_for(
                50,
                [&](std::size_t) {
                    inner_total.fetch_add(1);
                    if (std::this_thread::get_id() != outer_id) {
                        mismatched_threads.fetch_add(1);
                    }
                },
                8);
        },
        4);
    EXPECT_EQ(inner_total.load(), 4 * 50);
    EXPECT_EQ(mismatched_threads.load(), 0);
    EXPECT_FALSE(on_pool_worker()); // caller is not a pool worker
}

TEST(ParallelFor, DirectSubmitTasksAreAlsoGuardedAgainstNestedFanOut) {
    // A task submitted straight to the shared pool (not via parallel_for)
    // must still hit the nested-use guard when it fans out — otherwise it
    // could block on pool capacity it occupies and deadlock a fully busy
    // pool. One task per worker, each fanning out, makes that concrete.
    ThreadPool& pool = shared_thread_pool();
    const std::size_t workers = pool.thread_count();
    std::atomic<int> total{0};
    std::atomic<int> guarded{0};
    for (std::size_t t = 0; t < workers; ++t) {
        pool.submit([&] {
            guarded.fetch_add(on_pool_worker() ? 1 : 0);
            parallel_for(
                10, [&](std::size_t) { total.fetch_add(1); }, 4);
        });
    }
    pool.wait_idle();
    EXPECT_EQ(total.load(), static_cast<int>(workers) * 10);
    EXPECT_EQ(guarded.load(), static_cast<int>(workers));
}

TEST(ParallelFor, NestedExceptionPropagatesThroughBothLevels) {
    EXPECT_THROW(parallel_for(
                     3,
                     [](std::size_t) {
                         parallel_for(
                             10,
                             [](std::size_t i) {
                                 if (i == 7) {
                                     throw std::runtime_error("inner boom");
                                 }
                             },
                             4);
                     },
                     2),
                 std::runtime_error);
}

TEST(Latch, BlocksUntilCountReachesZero) {
    Latch latch(3);
    std::atomic<bool> released{false};
    std::thread waiter([&] {
        latch.wait();
        released.store(true);
    });
    latch.count_down();
    latch.count_down();
    EXPECT_FALSE(released.load());
    latch.count_down();
    waiter.join();
    EXPECT_TRUE(released.load());
    latch.wait(); // already zero: returns immediately
}

TEST(Logging, LevelFiltering) {
    const LogLevel before = log_level();
    set_log_level(LogLevel::Error);
    EXPECT_EQ(log_level(), LogLevel::Error);
    log_info("should be filtered");
    set_log_level(before);
}

} // namespace
} // namespace mflb
